// Adaptive rollback agent (paper §III-B2, Fig 5b).
//
// Tracks the best (fewest-findings) program state seen during slow-thinking
// iteration. When a step regresses — hallucination increasing the error
// count — the process rolls back to the *best intermediate* state instead of
// the initial one, keeping valuable partial corrections at lower cost
// (c * T_{n-a} instead of c * T_n).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/sim_clock.hpp"

namespace rustbrain::agents {

class RollbackAgent {
  public:
    /// Record a new state and its MiriLite error count. The first observed
    /// state becomes the initial baseline.
    void observe(const std::string& code, std::size_t error_count);

    /// Adaptive policy: roll back iff the latest count exceeds the best seen.
    [[nodiscard]] bool should_rollback(std::size_t latest_error_count) const;

    /// Revert to the best state, charging the rollback's thought-replay
    /// cost to the clock. Returns the best code.
    const std::string& rollback(support::SimClock& clock);

    [[nodiscard]] const std::string& best_code() const { return best_code_; }
    [[nodiscard]] std::size_t best_errors() const { return best_errors_; }
    [[nodiscard]] int rollbacks_performed() const { return rollbacks_; }
    [[nodiscard]] const std::vector<std::size_t>& trajectory() const {
        return trajectory_;
    }

  private:
    bool observed_ = false;
    std::string best_code_;
    std::size_t best_errors_ = 0;
    std::vector<std::size_t> trajectory_;
    int rollbacks_ = 0;
};

}  // namespace rustbrain::agents
