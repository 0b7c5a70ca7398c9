// Static pre-screener soundness (screen/screen.hpp).
//
// The load-bearing contract: ProvenSafe must never contradict MiriLite
// (the program passes), and LikelyUB must name a category MiriLite
// actually finds. Unknown is always sound. Asserted over the full
// hand-written corpus plus a 560-case forged corpus (the miri_lower_test
// observational-identity pattern), then end to end: every registry engine
// sweeping under the `screened` policy reproduces goldens fingerprinted
// when the Oracle still screened before every interpretation. Plus:
// unsupported constructs degrade to Unknown (never throw), and
// Oracle::screen screens only when asked.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "identity_matrix.hpp"
#include "kb/seed.hpp"
#include "miri/mirilite.hpp"
#include "screen/screen.hpp"
#include "support/hashing.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::screen {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

struct Observed {
    bool compiled_ok = false;
    ScreenVerdict verdict;
    miri::MiriReport miri;
};

/// Screen `source` and interpret it through an uncached Oracle (the
/// ground truth; bit-identical to MiriLite per verify_oracle_test).
Observed observe(const std::string& source, const Inputs& inputs,
                 miri::InterpLimits limits = {}, ScreenOptions options = {}) {
    verify::OracleOptions oracle_options;
    oracle_options.limits = limits;
    oracle_options.caching = false;
    const verify::Oracle oracle(oracle_options);

    Observed out;
    const auto compiled = oracle.compile(source);
    out.compiled_ok = compiled->ok();
    if (!out.compiled_ok) return out;
    out.verdict = screen_program(compiled->program, compiled->lowering,
                                 inputs, limits, options);
    out.miri = oracle.test_source(source, inputs);
    return out;
}

/// The soundness contract for one already-observed (source, inputs) pair.
void expect_sound_observed(const Observed& o, const std::string& source) {
    if (!o.compiled_ok) return;  // nothing to screen
    switch (o.verdict.kind) {
        case VerdictKind::ProvenSafe:
            EXPECT_TRUE(o.miri.passed()) << source;
            EXPECT_DOUBLE_EQ(o.verdict.confidence, 1.0);
            break;
        case VerdictKind::LikelyUB:
            EXPECT_FALSE(o.miri.passed()) << source;
            EXPECT_TRUE(o.miri.has_category(o.verdict.category))
                << source << "\nscreener pinned "
                << miri::ub_category_label(o.verdict.category) << " ("
                << o.verdict.detail << ")";
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
        proven_safe += fix.verdict.kind == VerdictKind::ProvenSafe ? 1 : 0;
        likely_ub += buggy.verdict.kind == VerdictKind::LikelyUB ? 1 : 0;
    }
    // The screener must be useful, not just sound: a decisive share of the
    // forged corpus screens to a definite verdict.
    EXPECT_GT(proven_safe, 0u);
    EXPECT_GT(likely_ub, 0u);
}

// --- end-to-end bit-identity -------------------------------------------------

/// FNV-1a over the identity matrix's rendering (screen_* counters
/// included), one line at a time.
std::uint64_t digest(const std::vector<std::string>& lines) {
    std::uint64_t h = support::fnv1a64("");
    for (const std::string& line : lines) h = support::fnv1a64(line + "\n", h);
    return h;
}

TEST(ScreenSoundnessTest, EveryRegistryEngineSweepsBitIdenticallyScreenOnOrOff) {
    // `policy=screened` over the hand-written corpus, serial and with four
    // workers. The goldens were fingerprinted when the Oracle screened
    // before every uncached interpretation and replayed verdicts on report
    // hits; screening on demand must reproduce them byte for byte.
    struct Golden {
        const char* engine;
        std::uint64_t digest;
    };
    constexpr Golden kGoldens[] = {
        {"expert", 0x1001c6878dcc5d9fULL},
        {"fixed-pipeline", 0xb0423882f49c3835ULL},
        {"rustbrain", 0x60299769cdff0034ULL},
        {"standalone", 0x1d077043607a79a7ULL},
    };
    const std::vector<std::string> ids = core::EngineRegistry::builtin().ids();
    ASSERT_EQ(ids.size(), std::size(kGoldens));

    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);
    const core::EngineOptions options =
        core::EngineOptions::parse("policy=screened");
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Golden& golden = kGoldens[i];
        SCOPED_TRACE(golden.engine);
        ASSERT_EQ(ids[i], golden.engine);
        for (const std::size_t workers : {1, 4}) {
            SCOPED_TRACE(workers);
            const auto oracle = std::make_shared<verify::Oracle>(
                verify::identity::options_for(verify::identity::kDefaultSerial));
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = oracle;
            const core::BatchRunner runner(golden.engine, options, context,
                                           core::BatchOptions{workers});
            EXPECT_EQ(digest(verify::identity::render(
                          runner.run(dataset::Corpus::standard()))),
                      golden.digest);
            // Not vacuous: every engine that verifies asked for verdicts.
            EXPECT_EQ(oracle->screen_stats().screens > 0,
                      std::string(golden.engine) != "expert");
        }
    }
}

// --- error paths: degrade to Unknown, never throw ----------------------------

ScreenVerdict screen_only(const std::string& source, const Inputs& inputs = {},
                          miri::InterpLimits limits = {},
                          ScreenOptions options = {}) {
    const Observed o = observe(source, inputs, limits, options);
    EXPECT_TRUE(o.compiled_ok) << source;
    return o.verdict;
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

// --- Oracle::screen ----------------------------------------------------------

TEST(ScreenSoundnessTest, OracleScreensOnlyWhenAsked) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(std::move(options));
    const std::string safe = "fn main() {\n    print_int(6 * 7);\n}\n";
    const std::string panics = "fn main() {\n    print_int(1 / 0);\n}\n";

    // Verification alone never screens, cached or not.
    for (int pass = 0; pass < 2; ++pass) {
        EXPECT_TRUE(oracle.test_source(safe, {{}}).passed());
        EXPECT_FALSE(oracle.test_source(panics, {{}}).passed());
    }
    EXPECT_EQ(oracle.screen_stats().screens, 0u);

    const std::optional<ScreenVerdict> proven = oracle.screen(safe, {{}});
    ASSERT_TRUE(proven.has_value());
    EXPECT_EQ(proven->kind, VerdictKind::ProvenSafe);
    EXPECT_GT(proven->ops, 0u);

    const std::optional<ScreenVerdict> pinned = oracle.screen(panics, {{}});
    ASSERT_TRUE(pinned.has_value());
    EXPECT_EQ(pinned->kind, VerdictKind::LikelyUB);
    EXPECT_EQ(pinned->category, miri::UbCategory::Panic);

    // A front-end failure has nothing to screen and counts nothing.
    EXPECT_FALSE(oracle.screen("fn main( {", {{}}).has_value());

    const verify::ScreenStats stats = oracle.screen_stats();
    EXPECT_EQ(stats.screens, 2u);
    EXPECT_EQ(stats.proven_safe, 1u);
    EXPECT_EQ(stats.likely_ub, 1u);
    EXPECT_EQ(stats.unknown, 0u);
    EXPECT_EQ(stats.ops, proven->ops + pinned->ops);
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
