// Feedback mechanism between slow and fast thinking (paper §III-C).
//
// Slow thinking evaluates every attempted solution on the triplet
// (accuracy, acceptability, overhead) and records the outcome against the
// error-feature key. Fast thinking consults the store when generating
// solutions: rules that already repaired similar errors are emitted as
// "preferred" hints, raising the model's effective competence — the
// self-learning loop that reduces knowledge-base dependence over time
// (Table I's red cells).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rustbrain::core {

/// The paper's evaluation triplet for one attempted solution. Its third
/// element, the attempt's overhead, is not kept: no policy reads it.
struct EvalTriplet {
    bool accuracy = false;       // passes MiriLite
    bool acceptability = false;  // semantics match the reference benchmark
};

struct RuleOutcome {
    std::uint32_t successes = 0;  // accurate AND acceptable
    std::uint32_t partial = 0;    // accurate only
    std::uint32_t failures = 0;

    [[nodiscard]] double score() const;
};

class FeedbackStore {
  public:
    void record(const std::string& feature_key, const std::string& rule_id,
                const EvalTriplet& triplet);

    /// Rules ranked by outcome score for this feature key (best first);
    /// rules with non-positive score are omitted.
    [[nodiscard]] std::vector<std::string> preferred_rules(
        const std::string& feature_key, std::size_t max_rules = 3) const;

    /// True once this key has enough successful history that fast thinking
    /// can skip the knowledge-base consultation entirely (the paper's
    /// reduced-KB-dependence effect).
    [[nodiscard]] bool is_confident(const std::string& feature_key) const;

    /// Best RuleOutcome score recorded for this key (0.0 when the key is
    /// unknown or every rule scores non-positive). The confidence signal
    /// thinking policies threshold on.
    [[nodiscard]] double best_score(const std::string& feature_key) const;

    [[nodiscard]] std::size_t key_count() const { return outcomes_.size(); }
    [[nodiscard]] std::uint64_t records() const { return records_; }

    /// Adds what `after` recorded beyond `before`, where `after` is a copy
    /// of `before` that has only recorded since: for each (feature key,
    /// rule), after's success, partial and failure counts minus before's,
    /// and the same for records(). The table is the one replaying those
    /// record() calls here would build. The serve layer hands each request
    /// a copy of the warm store and absorbs (copy, pre-repair copy), so
    /// concurrent requests never double-count what they share, and a
    /// store's size follows its (key, rule) pairs, not its history.
    void absorb(const FeedbackStore& after, const FeedbackStore& before);

  private:
    std::map<std::string, std::map<std::string, RuleOutcome>> outcomes_;
    std::uint64_t records_ = 0;
};

}  // namespace rustbrain::core
