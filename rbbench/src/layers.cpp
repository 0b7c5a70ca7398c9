#include "layers.hpp"

#include "workloads.hpp"

namespace rbbench {

void declare_layer_metrics(MetricSheet& sheet) {
    static const std::pair<const char*, const char*> kLayers[] = {
        {"core.repair_ms.p50", "ms"},
        {"core.repair_ms.p99", "ms"},
        {"core.fast_thinking.self_ms", "ms"},
        {"core.slow_thinking.self_ms", "ms"},
        {"llm.calls", "count"},
        {"llm.sim_ms", "ms"},
        {"llm.cache_ms", "ms"},
        {"llm.cache_hit_ratio", "ratio"},
        {"verify.interpret_calls", "count"},
        {"verify.interpret_ms", "ms"},
        {"verify.interpret_share", "ratio"},
        {"verify.program_hit_ratio", "ratio"},
        {"verify.report_hit_ratio", "ratio"},
        {"verify.evictions", "count"},
        {"verify.replay_coverage", "ratio"},
        {"screen.screens", "count"},
        {"screen.ops", "count"},
        {"screen.proven_safe_ratio", "ratio"},
        {"screen.ms", "ms"},
        {"lang.parse_ms", "ms"},
        {"lang.typecheck_ms", "ms"},
        {"miri.lower_ms", "ms"},
        {"vm.compile_ms", "ms"},
        {"vm.optimize_ms", "ms"},
        {"miri.interp_tree_ms", "ms"},
        {"miri.interp_slot_ms", "ms"},
        {"vm.interp_ms", "ms"},
        {"vm.interp_opt_ms", "ms"},
        {"kb.consults", "count"},
        {"kb.skips", "count"},
        {"gen.attempts", "count"},
        {"gen.accept_ratio", "ratio"},
        {"gen.verify_ms", "ms"},
        {"gen.generate_ms", "ms"},
        {"serve.p50_ms.low", "ms"},
        {"serve.p99_ms.low", "ms"},
        {"serve.p50_ms.high", "ms"},
        {"serve.p99_ms.high", "ms"},
        {"serve.max_rate_rps", "1/s"},
        {"serve.capacity_rps", "1/s"},
        {"serve.queue_ms.p50", "ms"},
        {"serve.queue_ms.p99", "ms"},
        {"serve.service_ms.p50", "ms"},
        {"serve.wire_ms", "ms"},
        {"serve.loop_wakeups", "count"},
        {"serve.epollout_arms", "count"},
        {"serve.shed", "count"},
        {"support.steals", "count"},
        {"loadgen.send_lag.p99_ms", "ms"},
        {"bench.tracing_overhead", "ratio"},
        {"error_rate", "ratio"},
    };
    for (const auto& [name, unit] : kLayers) sheet.set(name, 0.0, unit);
}

void LayerSamples::flush(MetricSheet& sheet) const {
    // Units were fixed by declare_layer_metrics; look them up by name.
    for (const auto& [name, values] : samples_) {
        std::string unit = "count";
        for (const auto& [known, known_unit] : sheet.units()) {
            if (known == name) unit = known_unit;
        }
        sheet.set(name, median(values), unit);
    }
}

OracleDelta oracle_delta(const verify::VerifyCacheStats& cache_before,
                         const verify::ScreenStats& screen_before,
                         const verify::Oracle& oracle) {
    const verify::VerifyCacheStats after = oracle.stats();
    const verify::ScreenStats screen_after = oracle.screen_stats();
    OracleDelta d;
    d.cache.program_hits = after.program_hits - cache_before.program_hits;
    d.cache.program_misses = after.program_misses - cache_before.program_misses;
    d.cache.report_hits = after.report_hits - cache_before.report_hits;
    d.cache.report_misses = after.report_misses - cache_before.report_misses;
    d.cache.program_evictions =
        after.program_evictions - cache_before.program_evictions;
    d.cache.report_evictions =
        after.report_evictions - cache_before.report_evictions;
    d.screen.screens = screen_after.screens - screen_before.screens;
    d.screen.proven_safe = screen_after.proven_safe - screen_before.proven_safe;
    d.screen.ops = screen_after.ops - screen_before.ops;
    return d;
}

namespace {

double ratio(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void add_oracle_layers(LayerSamples& samples, const OracleDelta& delta) {
    const verify::VerifyCacheStats& c = delta.cache;
    samples.add("verify.program_hit_ratio",
                ratio(c.program_hits, c.program_hits + c.program_misses));
    samples.add("verify.report_hit_ratio",
                ratio(c.report_hits, c.report_hits + c.report_misses));
    samples.add("verify.evictions",
                static_cast<double>(c.program_evictions + c.report_evictions));
    samples.add("screen.screens", static_cast<double>(delta.screen.screens));
    samples.add("screen.ops", static_cast<double>(delta.screen.ops));
    samples.add("screen.proven_safe_ratio",
                ratio(delta.screen.proven_safe, delta.screen.screens));
}

void set_replay_layers(MetricSheet& sheet, const ReplayTimes& replay,
                       double compiled_programs) {
    sheet.set("lang.parse_ms", replay.parse_ms, "ms");
    sheet.set("lang.typecheck_ms", replay.typecheck_ms, "ms");
    sheet.set("miri.lower_ms", replay.lower_ms, "ms");
    sheet.set("vm.compile_ms", replay.compile_ms, "ms");
    sheet.set("vm.optimize_ms", replay.optimize_ms, "ms");
    sheet.set("screen.ms", replay.screen_ms, "ms");
    sheet.set("miri.interp_tree_ms", replay.tree_ms, "ms");
    sheet.set("miri.interp_slot_ms", replay.slot_ms, "ms");
    sheet.set("vm.interp_ms", replay.vm_ms, "ms");
    sheet.set("vm.interp_opt_ms", replay.vm_opt_ms, "ms");
    sheet.set("verify.replay_coverage",
              compiled_programs > 0.0
                  ? static_cast<double>(replay.sources) / compiled_programs
                  : 0.0,
              "ratio");
}

}  // namespace rbbench
