// Static pre-screener soundness (screen/screen.hpp).
//
// The load-bearing contract: ProvenSafe must never contradict MiriLite
// (the program passes), and LikelyUB must name a category MiriLite
// actually finds. Unknown is always sound. Asserted over the full
// hand-written corpus plus a 560-case forged corpus (the miri_lower_test
// observational-identity pattern), then end to end: every registry engine
// sweeping under the `screened` policy reproduces goldens fingerprinted
// when the Oracle still screened before every interpretation. A digest of
// every verdict field over some 4,500 programs pins where a screening
// charges ops and stops. Plus: unsupported constructs degrade to Unknown
// (never throw), and Oracle::screen screens only when asked.
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
#include "mutation.hpp"
#include "screen/screen.hpp"
#include "support/hashing.hpp"
#include "support/rng.hpp"
#include "tier_agreement.hpp"
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
    out.verdict = screen_program(compiled->program, inputs, limits, options);
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

// --- verdict fingerprint -----------------------------------------------------

/// Every field of a verdict, one line.
std::string render_verdict(const ScreenVerdict& verdict) {
    return std::string(verdict_kind_name(verdict.kind)) + " " +
           std::to_string(verdict.confidence) + " " +
           miri::ub_category_label(verdict.category) + " " +
           std::to_string(verdict.span.begin) + ":" +
           std::to_string(verdict.span.end) + ":" +
           std::to_string(verdict.span.line) + ":" +
           std::to_string(verdict.span.column) + " " +
           std::to_string(verdict.ops) + " " + verdict.detail;
}

TEST(ScreenSoundnessTest, VerdictsMatchTheirFingerprint) {
    // Every verdict field of a wide input set under several op budgets and
    // interpreter limits: the standard corpus, two 560-case forges, 2,000
    // type-checked mutants and the indirect-call programs. The digest pins
    // the verdicts the screener gave when it was a separate interpreter
    // mirroring the tree walk; screening on the tree walk reproduces them.
    struct Program {
        std::string source;
        Inputs inputs;
    };
    std::vector<Program> programs;
    const auto add_corpus = [&](const dataset::Corpus& corpus) {
        for (const dataset::UbCase& ub_case : corpus.cases()) {
            programs.push_back({ub_case.buggy_source, ub_case.inputs});
            programs.push_back({ub_case.reference_fix, ub_case.inputs});
        }
    };
    const dataset::Corpus standard = dataset::Corpus::standard();
    add_corpus(standard);
    for (const std::uint64_t seed : {7, 42}) {
        const dataset::Corpus forged = verify::identity::forge(
            seed, 560,
            verify::Oracle(verify::identity::options_for(
                verify::identity::kDefaultSerial)));
        ASSERT_EQ(forged.size(), 560u);
        add_corpus(forged);
    }
    programs.push_back({miri::agreement::kIndirectCallWithArgs, {}});
    programs.push_back({miri::agreement::kFnTableCallWithArgs, {}});

    std::vector<std::string> donors;
    for (const dataset::UbCase& ub_case : standard.cases()) {
        donors.push_back(ub_case.buggy_source);
        donors.push_back(ub_case.reference_fix);
    }
    verify::OracleOptions oracle_options;
    oracle_options.caching = false;
    const verify::Oracle oracle(oracle_options);
    support::Rng rng(support::derive_seed(1, "screen-fingerprint"));
    std::size_t mutants = 0;
    for (std::size_t i = 0; mutants < 2000 && i < 100000; ++i) {
        const dataset::UbCase& seed =
            standard.cases()[i % standard.cases().size()];
        const std::string& source =
            i % 2 == 0 ? seed.buggy_source : seed.reference_fix;
        std::string mutant = mutation::mutate(source, donors, rng);
        if (!oracle.compile(mutant)->ok()) continue;
        programs.push_back({std::move(mutant), seed.inputs});
        ++mutants;
    }
    ASSERT_EQ(mutants, 2000u);

    struct Setting {
        miri::InterpLimits limits;
        ScreenOptions options;
    };
    std::vector<Setting> settings = {{{}, {}}};
    for (const std::uint64_t max_ops : {1, 10, 100, 1000}) {
        settings.push_back({{}, ScreenOptions{max_ops}});
    }
    // A step limit and a call depth low enough for runs to reach them (a
    // depth of 1 is main alone).
    settings.push_back({miri::InterpLimits{30, 3}, {}});
    settings.push_back({miri::InterpLimits{300, 1}, {}});

    ASSERT_EQ(programs.size(), 4494u);
    std::uint64_t h = support::fnv1a64("");
    for (const Program& program : programs) {
        const auto compiled = oracle.compile(program.source);
        ASSERT_TRUE(compiled->ok()) << program.source;
        for (const Setting& setting : settings) {
            const ScreenVerdict verdict =
                screen_program(compiled->program, program.inputs,
                               setting.limits, setting.options);
            h = support::fnv1a64(render_verdict(verdict) + "\n", h);
        }
    }
    EXPECT_EQ(h, 0x2b3eb5a89915aceeULL);
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

TEST(ScreenSoundnessTest, MemoryCapIsTheInterpretersFinding) {
    // The screener charges each stack allocation it mirrors to the same
    // per-run cap, so it pins MiriLite's finding rather than proving safe.
    const std::string source =
        "fn main() {\n    let a: [i64; 700000] = [0; 700000];\n"
        "    print_int(a[0]);\n}\n";
    const Observed o = observe(source, {{}});
    ASSERT_TRUE(o.compiled_ok);
    EXPECT_EQ(o.verdict.kind, VerdictKind::LikelyUB);
    EXPECT_EQ(o.verdict.category, miri::UbCategory::Alloc);
    ASSERT_EQ(o.miri.findings.size(), 1u);
    EXPECT_EQ(o.verdict.detail, o.miri.findings.front().message);
    expect_sound_observed(o, source);
}

TEST(ScreenSoundnessTest, ArrayRepeatPastTheCapIsTheInterpretersFinding) {
    // The screener builds a repeat through the machine core's cap check,
    // so it pins MiriLite's finding, at the same span, before building a
    // value.
    const std::string source =
        "fn main() {\n    let a = [0; 100000000];\n    print_int(a[0]);\n}\n";
    const Observed o = observe(source, {{}});
    ASSERT_TRUE(o.compiled_ok);
    EXPECT_EQ(o.verdict.kind, VerdictKind::LikelyUB);
    EXPECT_EQ(o.verdict.category, miri::UbCategory::Alloc);
    ASSERT_EQ(o.miri.findings.size(), 1u);
    EXPECT_EQ(o.verdict.detail, o.miri.findings.front().message);
    EXPECT_EQ(o.verdict.span.begin, o.miri.findings.front().span.begin);
    EXPECT_EQ(o.verdict.span.end, o.miri.findings.front().span.end);
    expect_sound_observed(o, source);
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

}  // namespace
}  // namespace rustbrain::screen
