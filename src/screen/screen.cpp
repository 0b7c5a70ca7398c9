#include "screen/screen.hpp"

#include <utility>

#include "miri/interp.hpp"
#include "miri/mirilite.hpp"

namespace rustbrain::screen {

const char* verdict_kind_name(VerdictKind kind) {
    switch (kind) {
        case VerdictKind::ProvenSafe: return "proven-safe";
        case VerdictKind::LikelyUB: return "likely-ub";
        case VerdictKind::Unknown: return "unknown";
    }
    return "?";
}

ScreenVerdict screen_program(
    const lang::Program& program,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options) {
    ScreenVerdict verdict;
    try {
        for (const auto& inputs : miri::input_runs(input_sets)) {
            // The op budget spans all runs, so screening cost is bounded
            // per candidate, not per input vector.
            miri::ScreenRun run = miri::Interpreter(program, inputs, limits)
                                      .screen(options.max_ops, verdict.ops);
            verdict.ops = run.ops;
            if (run.stop) {
                verdict.detail = std::move(*run.stop);
                return verdict;
            }
            if (run.finding) {
                verdict.kind = VerdictKind::LikelyUB;
                verdict.confidence = 0.95;
                verdict.category = run.finding->category;
                verdict.span = run.finding->span;
                verdict.detail = std::move(run.finding->message);
                return verdict;
            }
        }
        verdict.kind = VerdictKind::ProvenSafe;
        verdict.confidence = 1.0;
    } catch (...) {
        // Nothing escapes: any error degrades to Unknown.
        verdict = ScreenVerdict{};
        verdict.detail = "screening failed unexpectedly";
    }
    return verdict;
}

ScreenVerdict screen_program(
    const lang::Program& program, const miri::LoweredProgram& /*ignored*/,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options) {
    return screen_program(program, input_sets, limits, options);
}

}  // namespace rustbrain::screen
