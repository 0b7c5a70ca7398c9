// Static pre-screener soundness (screen/screen.hpp).
//
// The load-bearing contract: ProvenSafe must never contradict MiriLite —
// not in pass/fail, not in outputs, not in step counts (the synthesized
// report replaces interpretation byte for byte). LikelyUB must name a
// category MiriLite actually finds. Unknown is always sound. Asserted
// over the full hand-written corpus plus a 560-case forged corpus (the
// miri_lower_test observational-identity pattern), then end to end:
// every registry engine sweeps bit-identically with screening off (a cell
// of identity_matrix.hpp). Plus: unsupported constructs degrade to
// Unknown (never throw), and the Oracle's screening tier
// synthesizes/replays verdicts the way its header promises.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "identity_matrix.hpp"
#include "miri/mirilite.hpp"
#include "screen/screen.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::screen {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

struct Observed {
    bool compiled_ok = false;
    ScreenResult screened;
    miri::MiriReport miri;
};

/// Screen `source` and interpret it through a screening-off Oracle (the
/// ground truth; bit-identical to MiriLite per verify_oracle_test).
Observed observe(const std::string& source, const Inputs& inputs,
                 miri::InterpLimits limits = {}, ScreenOptions options = {}) {
    verify::OracleOptions oracle_options;
    oracle_options.limits = limits;
    oracle_options.caching = false;
    oracle_options.screening = false;
    const verify::Oracle oracle(oracle_options);

    Observed out;
    const auto compiled = oracle.compile(source);
    out.compiled_ok = compiled->ok();
    if (!out.compiled_ok) return out;
    out.screened = screen_program(compiled->program, compiled->lowering,
                                  inputs, limits, options);
    out.miri = oracle.test_source(source, inputs);
    return out;
}

/// The soundness contract for one already-observed (source, inputs) pair.
void expect_sound_observed(const Observed& o, const std::string& source) {
    if (!o.compiled_ok) return;  // nothing to screen
    switch (o.screened.verdict.kind) {
        case VerdictKind::ProvenSafe:
            EXPECT_TRUE(o.miri.passed()) << source;
            EXPECT_EQ(o.screened.report.outputs, o.miri.outputs) << source;
            EXPECT_EQ(o.screened.report.total_steps, o.miri.total_steps)
                << source;
            EXPECT_TRUE(o.screened.report.findings.empty()) << source;
            EXPECT_DOUBLE_EQ(o.screened.verdict.confidence, 1.0);
            break;
        case VerdictKind::LikelyUB:
            EXPECT_FALSE(o.miri.passed()) << source;
            EXPECT_TRUE(o.miri.has_category(o.screened.verdict.category))
                << source << "\nscreener pinned "
                << miri::ub_category_label(o.screened.verdict.category)
                << " (" << o.screened.verdict.detail << ")";
            break;
        case VerdictKind::Unknown:
            break;  // always sound
    }
}

void expect_sound(const std::string& source, const Inputs& inputs,
                  miri::InterpLimits limits = {}) {
    expect_sound_observed(observe(source, inputs, limits), source);
}

// --- soundness over the corpora ---------------------------------------------

TEST(ScreenSoundnessTest, HandWrittenCorpusIsSound) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        expect_sound(ub_case.buggy_source, ub_case.inputs);
        expect_sound(ub_case.reference_fix, ub_case.inputs);
    }
}

TEST(ScreenSoundnessTest, ForgedCorpusOf560CasesIsSound) {
    gen::ForgeOptions options;
    options.seed = 11;
    options.count = 560;
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle forge_oracle(std::move(oracle_options));
    options.oracle = &forge_oracle;
    const dataset::Corpus corpus = gen::forge_corpus(options);
    ASSERT_EQ(corpus.cases().size(), 560u);

    std::size_t proven_safe = 0;
    std::size_t likely_ub = 0;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        const Observed buggy = observe(ub_case.buggy_source, ub_case.inputs);
        expect_sound_observed(buggy, ub_case.buggy_source);
        const Observed fix = observe(ub_case.reference_fix, ub_case.inputs);
        expect_sound_observed(fix, ub_case.reference_fix);
        proven_safe +=
            fix.screened.verdict.kind == VerdictKind::ProvenSafe ? 1 : 0;
        likely_ub +=
            buggy.screened.verdict.kind == VerdictKind::LikelyUB ? 1 : 0;
    }
    // The screener must be useful, not just sound: a decisive share of the
    // forged corpus screens to a definite verdict.
    EXPECT_GT(proven_safe, 0u);
    EXPECT_GT(likely_ub, 0u);
}

// --- end-to-end bit-identity -------------------------------------------------

TEST(ScreenSoundnessTest, EveryRegistryEngineSweepsBitIdenticallyScreenOnOrOff) {
    // Screen-on serial and screen-off with four workers, each against the
    // unscreened reference.
    verify::identity::expect_rows_match_reference(
        dataset::Corpus::standard(),
        {verify::identity::kDefaultSerial, verify::identity::kScreeningOff});
}

// --- error paths: degrade to Unknown, never throw ----------------------------

ScreenVerdict screen_only(const std::string& source, const Inputs& inputs = {},
                          miri::InterpLimits limits = {},
                          ScreenOptions options = {}) {
    const Observed o = observe(source, inputs, limits, options);
    EXPECT_TRUE(o.compiled_ok) << source;
    return o.screened.verdict;
}

TEST(ScreenSoundnessTest, UnsupportedConstructsDegradeToUnknown) {
    const std::vector<std::string> out_of_domain = {
        // references / borrows / deref
        "fn main() { let x = 5; let p = &x as *const i32; "
        "unsafe { let y = *p; } }",
        // raw-pointer casts (no deref, still out of the modelled domain)
        "fn main() { let p = 4096 as *const i32; }",
        // heap intrinsics
        "fn main() { unsafe { let p = alloc(8, 8); dealloc(p, 8, 8); } }",
        // threads
        "fn f() { } fn main() { let h = spawn(f); join(h); }",
        // mutexes
        "static mut LOCK: i64 = 0; fn main() { unsafe { LOCK = mutex_new(); "
        "mutex_lock(LOCK); mutex_unlock(LOCK); } }",
        // guaranteed tail calls
        "fn loop_fn(n: i32) -> i32 { if n <= 0 { return 0; } "
        "become loop_fn(n - 1); } fn main() { let r = loop_fn(3); }",
    };
    for (const std::string& source : out_of_domain) {
        SCOPED_TRACE(source);
        const ScreenVerdict verdict = screen_only(source);
        EXPECT_EQ(verdict.kind, VerdictKind::Unknown);
        EXPECT_DOUBLE_EQ(verdict.confidence, 0.0);
        EXPECT_FALSE(verdict.detail.empty());
    }
}

TEST(ScreenSoundnessTest, DeepRecursionIsADefiniteStackOverflow) {
    const std::string source =
        "fn spin(n: i64) -> i64 {\n    return spin(n + 1);\n}\n"
        "fn main() {\n    print_int(spin(0));\n}\n";
    const ScreenVerdict verdict = screen_only(source);
    EXPECT_EQ(verdict.kind, VerdictKind::LikelyUB);
    EXPECT_EQ(verdict.category, miri::UbCategory::Panic);
    EXPECT_NE(verdict.detail.find("stack overflow"), std::string::npos);
    expect_sound(source, {});
}

TEST(ScreenSoundnessTest, StepLimitExhaustionIsADefinitePanic) {
    miri::InterpLimits limits;
    limits.max_steps = 100;
    const std::string source =
        "fn main() {\n    let mut i = 0;\n    while i >= 0 {\n"
        "        i = i + 1;\n    }\n}\n";
    const ScreenVerdict verdict = screen_only(source, {}, limits);
    EXPECT_EQ(verdict.kind, VerdictKind::LikelyUB);
    EXPECT_EQ(verdict.category, miri::UbCategory::Panic);
    EXPECT_NE(verdict.detail.find("step limit exceeded"), std::string::npos);
    expect_sound(source, {}, limits);
}

TEST(ScreenSoundnessTest, OpBudgetExhaustionDegradesToUnknown) {
    ScreenOptions options;
    options.max_ops = 50;  // far below the honest cost of the loop
    const std::string source =
        "fn main() {\n    let mut i = 0;\n    while i < 1000 {\n"
        "        i = i + 1;\n    }\n    print_int(i);\n}\n";
    const ScreenVerdict verdict = screen_only(source, {}, {}, options);
    EXPECT_EQ(verdict.kind, VerdictKind::Unknown);
    EXPECT_NE(verdict.detail.find("budget"), std::string::npos);
    EXPECT_LE(verdict.ops, options.max_ops + 1);
}

// --- the Oracle's screening tier ---------------------------------------------

std::shared_ptr<verify::Oracle> oracle_with_screening(bool screening) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    options.screening = screening;
    return std::make_shared<verify::Oracle>(std::move(options));
}

TEST(ScreenSoundnessTest, ProvenSafeSynthesisSkipsInterpretationExactly) {
    const std::string source = "fn main() {\n    print_int(6 * 7);\n}\n";
    const auto on = oracle_with_screening(true);
    const auto off = oracle_with_screening(false);

    verify::VerifyOutcome outcome;
    const miri::MiriReport synthesized = on->test_source(source, {{}}, &outcome);
    EXPECT_TRUE(outcome.screened);
    EXPECT_EQ(outcome.screen_verdict.kind, VerdictKind::ProvenSafe);
    EXPECT_TRUE(outcome.screen_synthesized);

    const miri::MiriReport interpreted = off->test_source(source, {{}});
    EXPECT_EQ(synthesized.outputs, interpreted.outputs);
    EXPECT_EQ(synthesized.total_steps, interpreted.total_steps);
    EXPECT_TRUE(synthesized.findings.empty());

    const verify::ScreenStats stats = on->screen_stats();
    EXPECT_EQ(stats.screens, 1u);
    EXPECT_EQ(stats.proven_safe, 1u);
    EXPECT_EQ(stats.synthesized, 1u);
    EXPECT_GT(stats.ops, 0u);
}

TEST(ScreenSoundnessTest, ReportCacheHitsReplayTheStoredVerdict) {
    const std::string source = "fn main() {\n    print_int(1 / 0);\n}\n";
    const auto oracle = oracle_with_screening(true);

    verify::VerifyOutcome first;
    (void)oracle->test_source(source, {{}}, &first);
    EXPECT_FALSE(first.report_cached);
    EXPECT_TRUE(first.screened);
    EXPECT_EQ(first.screen_verdict.kind, VerdictKind::LikelyUB);
    EXPECT_EQ(first.screen_verdict.category, miri::UbCategory::Panic);

    verify::VerifyOutcome second;
    (void)oracle->test_source(source, {{}}, &second);
    EXPECT_TRUE(second.report_cached);
    EXPECT_TRUE(second.screened);
    EXPECT_EQ(second.screen_verdict.kind, first.screen_verdict.kind);
    EXPECT_EQ(second.screen_verdict.category, first.screen_verdict.category);
    EXPECT_FALSE(second.screen_synthesized);
    // Replay, not re-screen: exactly one live screening happened.
    EXPECT_EQ(oracle->screen_stats().screens, 1u);

    // A screening-off oracle sharing the same cache must stay fully inert:
    // it serves the memoized report but never surfaces the stored verdict.
    verify::OracleOptions off_options;
    off_options.cache = oracle->cache();
    off_options.screening = false;
    const verify::Oracle off(std::move(off_options));
    verify::VerifyOutcome inert;
    (void)off.test_source(source, {{}}, &inert);
    EXPECT_TRUE(inert.report_cached);
    EXPECT_FALSE(inert.screened);
}

// --- the constraint domain ---------------------------------------------------

TEST(ScreenSoundnessTest, IntervalLatticeBehaves) {
    const Interval five = Interval::singleton(5);
    EXPECT_TRUE(five.is_singleton());
    EXPECT_TRUE(five.contains(5));
    EXPECT_FALSE(five.contains(6));

    const Interval joined = five.join(Interval::singleton(-3));
    EXPECT_FALSE(joined.is_singleton());
    EXPECT_TRUE(joined.contains(0));
    EXPECT_TRUE(five.within(joined));
    EXPECT_FALSE(joined.within(five));

    const Interval i8 = Interval::type_range(1, /*is_signed=*/true);
    EXPECT_EQ(i8.lo, -128);
    EXPECT_EQ(i8.hi, 127);
    const Interval u16 = Interval::type_range(2, /*is_signed=*/false);
    EXPECT_EQ(u16.lo, 0);
    EXPECT_EQ(u16.hi, 65535);
    EXPECT_TRUE(i8.within(Interval::full()));
}

}  // namespace
}  // namespace rustbrain::screen
