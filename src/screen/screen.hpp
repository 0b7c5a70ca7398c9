// Static UB pre-screener — a budgeted MiriLite run of a type-checked
// program.
//
// The screener is the rung between "no verify" and "full MiriLite" the
// ROADMAP names. It runs the tree walk itself (miri::Interpreter::screen)
// on the run's concrete inputs, charged an op budget and stopped at every
// construct it does not accept, and returns a three-point verdict lattice:
//
//   ProvenSafe   every input run finished within the budget, touching
//                only accepted constructs, and MiriLite found no UB.
//   LikelyUB     a run's first finding (category + span) on a concrete
//                path, recorded before any stop.
//   Unknown      a run reached a construct a screening does not accept
//                (references, raw pointers, heap intrinsics,
//                threads/atomics, `become`) or the op budget ran out.
//                Unknown is always sound.
//
// Verdicts are advisory: MiriLite stays the authority on every report, and
// verify::Oracle::screen asks for a verdict only on behalf of the
// `screened` thinking policy.
//
// Soundness contract: ProvenSafe must NEVER contradict MiriLite. It holds
// by construction: a ProvenSafe run is a complete MiriLite run under the
// same limits, so it reports what interpretation reports (DESIGN.md §7
// lists the stop and charge sites). Errors never escape screen_program
// (asserted over the hand-written + forged corpora in
// tests/screen_soundness_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/finding.hpp"
#include "miri/machine.hpp"
#include "miri/lower.hpp"  // LoweredProgram, for the old screen_program
#include "support/source_span.hpp"

namespace rustbrain::screen {

enum class VerdictKind {
    ProvenSafe,
    LikelyUB,
    Unknown,
};

/// "proven-safe" / "likely-ub" / "unknown" (trace labels, bench columns).
const char* verdict_kind_name(VerdictKind kind);

struct ScreenOptions {
    /// Abstract-op budget per screening (all runs together). Exhausting it
    /// degrades to Unknown — screening must stay strictly cheaper than the
    /// interpretation it tries to skip.
    std::uint64_t max_ops = 250'000;
};

struct ScreenVerdict {
    VerdictKind kind = VerdictKind::Unknown;
    /// ProvenSafe = 1.0 (a complete MiriLite run), LikelyUB = 0.95
    /// (the concrete path is exact but MiriLite stays the authority),
    /// Unknown = 0.0.
    double confidence = 0.0;
    /// Pinned category; meaningful only when kind == LikelyUB.
    miri::UbCategory category = miri::UbCategory::Panic;
    /// Site of the definite finding (LikelyUB only).
    support::SourceSpan span;
    /// Finding message (LikelyUB) or the degradation reason (Unknown).
    std::string detail;
    /// Abstract ops spent screening — the verdict's cost.
    std::uint64_t ops = 0;
};

/// Screen `program`, which must have passed lang::type_check, against every
/// input vector, following verify::Oracle::interpret's run normalization
/// (an empty `input_sets` means one run with no inputs). Never throws:
/// every internal error degrades to an Unknown verdict.
[[nodiscard]] ScreenVerdict screen_program(
    const lang::Program& program,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options = {});

/// The same; the lowering is ignored. Kept so callers that still pass one
/// compile.
[[nodiscard]] ScreenVerdict screen_program(
    const lang::Program& program, const miri::LoweredProgram& lowering,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options = {});

}  // namespace rustbrain::screen
