// Per-layer bookkeeping shared by the workloads: the full per-layer metric
// list, per-pass samples reduced to medians, and the snapshots of the
// library's stats structs that turn into layer metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "replay.hpp"
#include "verify/oracle.hpp"

namespace rbbench {

/// Named per-pass samples; flush() writes each name's median to a sheet.
class LayerSamples {
  public:
    void add(const std::string& name, double value) {
        samples_[name].push_back(value);
    }
    void flush(MetricSheet& sheet) const;

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/// Oracle cache + screener counters over one interval (after − before).
struct OracleDelta {
    verify::VerifyCacheStats cache;
    verify::ScreenStats screen;
};
OracleDelta oracle_delta(const verify::VerifyCacheStats& cache_before,
                         const verify::ScreenStats& screen_before,
                         const verify::Oracle& oracle);

/// verify.* hit ratios/evictions and screen.* counters from one interval.
void add_oracle_layers(LayerSamples& samples, const OracleDelta& delta);

/// The replayed layer times plus verify.replay_coverage (captured programs
/// over compiled programs).
void set_replay_layers(MetricSheet& sheet, const ReplayTimes& replay,
                       double compiled_programs);

}  // namespace rbbench
