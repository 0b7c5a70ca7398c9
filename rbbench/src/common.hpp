// Shared helpers for the benchmark program: wall-clock timing, order
// statistics, result fingerprints, the metric sheet and its JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/repair_engine.hpp"

namespace rbbench {

namespace core = rustbrain::core;

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
double ms_since(Clock::time_point start);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes);
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Fingerprint of one CaseResult: the wire rendering with the screen
/// counters zeroed (they are observability, not behaviour, and are the one
/// set of fields allowed to differ between equivalent runs).
std::uint64_t result_fingerprint(const core::CaseResult& result);

/// Named metrics in insertion order, rendered as the benchmark's JSON line.
class MetricSheet {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
    units() const {
        return units_;
    }
    /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
    [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                   std::uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::string>> units_;
    std::vector<double> values_;
};

}  // namespace rbbench
