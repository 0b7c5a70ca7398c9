// Static UB pre-screener — constraint propagation over LoweredProgram.
//
// The screener is the rung between "no verify" and "full MiriLite" the
// ROADMAP names: an abstract interpreter that propagates value / bounds /
// initialization / borrow-state constraints over the lowered program
// (reusing the dense indices from miri/lower.hpp — no name scans) and
// returns a three-point verdict lattice:
//
//   ProvenSafe   the screener walked every input run to completion through
//                constructs it models exactly and proved no UB fires.
//   LikelyUB     a definite finding (category + span) on a concrete path.
//   Unknown      anything the screener does not model: references, raw
//                pointers, heap intrinsics, threads/atomics, `become`,
//                non-singleton constraints reaching control flow, or the
//                op budget running out. Unknown is always sound.
//
// Verdicts are advisory: MiriLite stays the authority on every report, and
// verify::Oracle::screen asks for a verdict only on behalf of the
// `screened` thinking policy.
//
// Soundness contract: ProvenSafe must NEVER contradict MiriLite. The
// screener guarantees this by construction — it only reports ProvenSafe
// when every abstract value on the executed path stayed a singleton
// interval (exact), every construct was one it mirrors operation-for-
// operation (including step accounting, so step-limit exhaustion is a
// definite finding), and every run finished cleanly within the interpreter
// limits. Everything else degrades to Unknown; errors never escape
// screen_program (asserted over the hand-written + forged corpora in
// tests/screen_soundness_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/finding.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "support/source_span.hpp"

namespace rustbrain::screen {

/// Closed signed interval [lo, hi] — the screener's value-constraint
/// domain. Concrete execution keeps every interval a singleton; joins (and
/// the full range) exist for the lattice operations the checks are written
/// against, so widening a future non-concrete source of values (symbolic
/// inputs, merged branches) slots in without touching the checks.
struct Interval {
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    static Interval singleton(std::int64_t value) { return {value, value}; }
    static Interval full();
    /// The representable range of an integer of `size_bytes` bytes
    /// (size_bytes < 8; 8-byte widths use the hardware-overflow path).
    static Interval type_range(std::uint64_t size_bytes, bool is_signed);

    [[nodiscard]] bool is_singleton() const { return lo == hi; }
    [[nodiscard]] bool contains(std::int64_t value) const {
        return lo <= value && value <= hi;
    }
    /// True when every value of this interval lies inside `other`.
    [[nodiscard]] bool within(const Interval& other) const {
        return other.lo <= lo && hi <= other.hi;
    }
    [[nodiscard]] Interval join(const Interval& other) const {
        return {lo < other.lo ? lo : other.lo, hi > other.hi ? hi : other.hi};
    }
};

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
    /// ProvenSafe = 1.0 (exact on the modelled subset), LikelyUB = 0.95
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

/// Screen `program` (paired with its exact lowering — see miri/lower.hpp)
/// against every input vector, mirroring verify::Oracle::interpret's run
/// normalization (an empty `input_sets` means one run with no inputs).
/// Never throws: every internal error degrades to an Unknown verdict.
[[nodiscard]] ScreenVerdict screen_program(
    const lang::Program& program, const miri::LoweredProgram& lowering,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options = {});

}  // namespace rustbrain::screen
