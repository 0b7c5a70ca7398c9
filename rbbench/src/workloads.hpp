// The four benchmark workloads. Each one builds its inputs from the seed,
// sets up, measures for the requested wall time, checks every output
// against a reference computed outside the timed window, and fills a
// metric sheet: end-to-end metrics for untraced runs, per-layer metrics for
// traced ones.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace rbbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Where the traced run writes its spans (empty => not written).
    std::string span_path;
};

struct RunOutcome {
    MetricSheet metrics;
    std::uint64_t attempted = 0;
    /// Failed operations and outputs that differ from their reference.
    std::uint64_t failed = 0;
};

/// Every per-layer metric, zeroed, in report order — so a traced run
/// always prints the full set, 0 where a layer is not on its path.
void declare_layer_metrics(MetricSheet& sheet);

RunOutcome run_sweep(const RunConfig& config, bool warm);
RunOutcome run_forge(const RunConfig& config);
RunOutcome run_serve(const RunConfig& config);

/// Threads the sweeps use (BatchRunner workers).
constexpr std::size_t kSweepWorkers = 4;

}  // namespace rbbench
