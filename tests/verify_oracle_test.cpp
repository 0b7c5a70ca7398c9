// verify::Oracle — compile-once, memoized verification.
//
// The load-bearing contract is bit-identity: with the cache on or off,
// every consumer produces byte-identical results; the cache only changes
// how fast the answer arrives. Here: every registry engine sweeps the
// hand-written corpus identically cached or not, serial or with four
// workers sharing one Oracle (cells of identity_matrix.hpp), the forge
// emits the same corpus cached or not, the semantic judge interprets a
// case's reference fix exactly once per process (counted through a
// counting oracle double), front-end failures match MiriLite verbatim,
// a program handed to compile() is type-checked in place of a parse, and
// the stats counters behave.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataset/semantic.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "identity_matrix.hpp"
#include "lang/parser.hpp"
#include "miri/mirilite.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::verify {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

/// Oracle with a private store, cache on.
std::shared_ptr<Oracle> cached_oracle() {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    return std::make_shared<Oracle>(std::move(options));
}

/// Oracle that recomputes everything. Its store is private too, so its
/// stats read zero even after other code in the process filled the
/// process-wide cache.
std::shared_ptr<Oracle> uncached_oracle() {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = false;
    return std::make_shared<Oracle>(std::move(options));
}

// --- bit-identity across the stack -----------------------------------------

TEST(VerifyOracleTest, EveryRegistryEngineSweepsBitIdenticallyCachedOrNot) {
    identity::expect_rows_match_reference(
        dataset::Corpus::standard(),
        {identity::kDefaultSerial, identity::kCachingOff});
}

TEST(VerifyOracleTest, ParallelSweepSharesOneOracleAndMatchesSerial) {
    // Four workers share one cached Oracle; the row also checks that the
    // shared store was actually consulted.
    identity::expect_rows_match_reference(dataset::Corpus::standard(),
                                          {identity::kDefaultParallel});
}

TEST(VerifyOracleTest, ForgedCorpusIsByteIdenticalCachedOrNot) {
    gen::ForgeOptions options;
    options.seed = 9;
    options.count = 32;

    const auto cached = cached_oracle();
    options.oracle = cached.get();
    const std::string with_cache = gen::corpus_to_string(gen::forge_corpus(options));

    const auto uncached = uncached_oracle();
    options.oracle = uncached.get();
    const std::string without_cache =
        gen::corpus_to_string(gen::forge_corpus(options));

    EXPECT_EQ(with_cache, without_cache);
    // The forge's rejection sampler actually exercised the cache: the
    // front-end compile is shared with validate_case's two runs.
    EXPECT_GT(cached->stats().program_hits, 0u);
    EXPECT_EQ(uncached->stats().program_hits + uncached->stats().report_hits, 0u);
}

// --- semantic judge: reference fix interpreted once -------------------------

class CountingOracle final : public Oracle {
  public:
    explicit CountingOracle(OracleOptions options)
        : Oracle(std::move(options)) {}

    mutable std::map<std::uint64_t, int> interpretations;

  protected:
    miri::MiriReport interpret(const CompiledProgram& compiled,
                               const Inputs& input_sets) const override {
        ++interpretations[compiled.fingerprint];
        return Oracle::interpret(compiled, input_sets);
    }
};

TEST(VerifyOracleTest, JudgeInterpretsTheReferenceFixOncePerCase) {
    dataset::UbCase ub_case;
    ub_case.id = "oracle/ref_memo";
    ub_case.category = miri::UbCategory::Panic;
    ub_case.inputs = {{}};
    ub_case.reference_fix = "fn main() {\n    print_int(42);\n}\n";

    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    const CountingOracle oracle(std::move(options));

    const std::vector<std::string> candidates = {
        "fn main() {\n    print_int(40 + 2);\n}\n",
        "fn main() {\n    print_int(21 * 2);\n}\n",
        "fn main() {\n    let x = 42;\n    print_int(x);\n}\n",
        "fn main() {\n    print_int(43);\n}\n",  // passes, diverges
    };
    int acceptable = 0;
    for (const std::string& candidate : candidates) {
        acceptable +=
            dataset::judge_semantics(candidate, ub_case, oracle).acceptable();
    }
    EXPECT_EQ(acceptable, 3);

    // Four candidate interpretations, ONE reference interpretation: the
    // three later judgments reuse the memoized reference report.
    const std::uint64_t reference_key = source_fingerprint(ub_case.reference_fix);
    EXPECT_EQ(oracle.interpretations.at(reference_key), 1);
    for (const std::string& candidate : candidates) {
        EXPECT_EQ(oracle.interpretations.at(source_fingerprint(candidate)), 1)
            << candidate;
    }
}

TEST(VerifyOracleTest, WithoutCachingTheReferenceFixRunsPerCandidate) {
    // The pre-Oracle behavior, kept reachable through caching = false —
    // the contrast that proves the memoization is what drops the count.
    dataset::UbCase ub_case;
    ub_case.id = "oracle/ref_uncached";
    ub_case.category = miri::UbCategory::Panic;
    ub_case.inputs = {{}};
    ub_case.reference_fix = "fn main() {\n    print_int(7);\n}\n";

    OracleOptions options;
    options.caching = false;
    const CountingOracle oracle(std::move(options));

    const std::vector<std::string> candidates = {
        "fn main() {\n    print_int(3 + 4);\n}\n",
        "fn main() {\n    print_int(14 / 2);\n}\n",
        "fn main() {\n    print_int(8 - 1);\n}\n",
    };
    for (const std::string& candidate : candidates) {
        EXPECT_TRUE(
            dataset::judge_semantics(candidate, ub_case, oracle).acceptable());
    }
    EXPECT_EQ(oracle.interpretations.at(source_fingerprint(ub_case.reference_fix)),
              3);
}

// --- front-end parity and cache mechanics ----------------------------------

TEST(VerifyOracleTest, FrontEndFailuresMatchMiriLiteVerbatim) {
    const miri::MiriLite reference;
    const auto oracle = cached_oracle();
    std::string sum = "1";
    for (int i = 1; i < 10'000; ++i) sum += " + 1";
    const std::vector<std::string> broken = {
        "fn main( {",                    // parse error
        "fn main() {\n    x = 1;\n}\n",  // typecheck error
        "fn not_main() {}\n",            // no main
        // Nested past lang::kMaxNesting: without the cap, a 100 000-deep
        // unary chain and a 10 000-term sum exhaust the native stack.
        "fn main() { let x = " + std::string(100'000, '-') + "1; }",
        "fn main() { let x = " + sum + "; }",
    };
    for (const std::string& source : broken) {
        SCOPED_TRACE(source);
        const miri::MiriReport a = reference.test_source(source, {});
        // Twice: the second answer comes from the program cache.
        for (int round = 0; round < 2; ++round) {
            const miri::MiriReport b = oracle->test_source(source, {});
            ASSERT_EQ(a.findings.size(), b.findings.size());
            ASSERT_EQ(a.findings.size(), 1u);
            EXPECT_EQ(b.findings.front().category,
                      miri::UbCategory::CompileError);
            EXPECT_EQ(a.findings.front().category, b.findings.front().category);
            EXPECT_EQ(a.findings.front().message, b.findings.front().message);
        }
    }
}

TEST(VerifyOracleTest, ReportCacheHitsAreObservableAndCounted) {
    const auto oracle = cached_oracle();
    const std::string source = "fn main() {\n    print_int(1);\n}\n";

    VerifyOutcome first;
    const miri::MiriReport a = oracle->test_source(source, {{}}, &first);
    EXPECT_FALSE(first.report_cached);
    EXPECT_FALSE(first.program_cached);

    VerifyOutcome second;
    const miri::MiriReport b = oracle->test_source(source, {{}}, &second);
    EXPECT_TRUE(second.report_cached);
    EXPECT_TRUE(second.program_cached);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.total_steps, b.total_steps);

    // Distinct inputs are a distinct report key over the same compile.
    VerifyOutcome other_inputs;
    (void)oracle->test_source(source, {{1, 2}}, &other_inputs);
    EXPECT_TRUE(other_inputs.program_cached);
    EXPECT_FALSE(other_inputs.report_cached);

    const VerifyCacheStats stats = oracle->stats();
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.reports, 2u);
    EXPECT_EQ(stats.report_hits, 1u);
    EXPECT_EQ(stats.report_misses, 2u);
    EXPECT_DOUBLE_EQ(stats.report_hit_rate(), 1.0 / 3.0);
}

TEST(VerifyOracleTest, CompileSharesOneCanonicalProgram) {
    const auto oracle = cached_oracle();
    const std::string source = "fn main() {\n    print_int(2);\n}\n";
    const auto first = oracle->compile(source);
    const auto second = oracle->compile(source);
    EXPECT_EQ(first.get(), second.get());
    ASSERT_TRUE(first->ok());
    // The shared program carries the type checker's bindings.
    ASSERT_EQ(first->program.functions.size(), 1u);
    const auto& stmt = static_cast<const lang::ExprStmt&>(
        *first->program.functions[0].body.statements[0]);
    EXPECT_EQ(static_cast<const lang::CallExpr&>(*stmt.expr).binding.kind,
              lang::Binding::Kind::Intrinsic);
}

TEST(VerifyOracleTest, CompileTypeChecksAHandedProgramOnAMiss) {
    // A miss keeps the handed program itself (its arena comes along), type
    // checked; a hit returns the cached entry and drops the handed one.
    // With caching off every call keeps what it was handed.
    const std::string source = "fn main() {\n    print_int(4);\n}\n";
    const auto handed = [&](const lang::AstArena** arena) {
        std::optional<lang::Program> program = lang::try_parse(source);
        *arena = &program->arena();
        return std::move(*program);
    };
    const auto cached = cached_oracle();
    const lang::AstArena* first_arena = nullptr;
    const auto first = cached->compile(source, handed(&first_arena));
    ASSERT_TRUE(first->ok());
    EXPECT_EQ(&first->program.arena(), first_arena);
    const auto& stmt = static_cast<const lang::ExprStmt&>(
        *first->program.functions[0].body.statements[0]);
    EXPECT_EQ(static_cast<const lang::CallExpr&>(*stmt.expr).binding.kind,
              lang::Binding::Kind::Intrinsic);
    const lang::AstArena* second_arena = nullptr;
    VerifyOutcome outcome;
    const auto second = cached->compile(source, handed(&second_arena), &outcome);
    EXPECT_TRUE(outcome.program_cached);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(cached->compile(source).get(), first.get());

    const auto uncached = uncached_oracle();
    const lang::AstArena* fresh_arena = nullptr;
    const auto fresh = uncached->compile(source, handed(&fresh_arena));
    ASSERT_TRUE(fresh->ok());
    EXPECT_EQ(&fresh->program.arena(), fresh_arena);
    EXPECT_EQ(uncached->stats().programs, 0u);
}

TEST(VerifyOracleTest, DisabledCachingStoresNothing) {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = false;
    const Oracle oracle(std::move(options));
    const std::string source = "fn main() {\n    print_int(3);\n}\n";
    (void)oracle.test_source(source, {{}});
    (void)oracle.test_source(source, {{}});
    const VerifyCacheStats stats = oracle.stats();
    EXPECT_EQ(stats.programs, 0u);
    EXPECT_EQ(stats.reports, 0u);
    EXPECT_EQ(stats.report_hits + stats.report_misses, 0u);
}

TEST(VerifyOracleTest, DifferentLimitsNeverShareAReport) {
    OracleOptions strict_options;
    strict_options.cache = std::make_shared<VerifyCache>();
    strict_options.limits.max_steps = 50;
    const Oracle strict(std::move(strict_options));

    OracleOptions roomy_options;
    roomy_options.cache = strict.cache();  // same store, different limits
    const Oracle roomy(OracleOptions{roomy_options});

    const std::string source = R"(fn main() {
    let mut i = 0;
    while i < 100 {
        i = i + 1;
    }
}
)";
    EXPECT_TRUE(roomy.test_source(source, {}).passed());
    const miri::MiriReport limited = strict.test_source(source, {});
    ASSERT_EQ(limited.findings.size(), 1u);
    EXPECT_EQ(limited.findings.front().message,
              "step limit exceeded (possible infinite loop)");
}

}  // namespace
}  // namespace rustbrain::verify
