// Key collisions in the shared caches. Every entry of the verify cache
// keeps its full key material and checks it on each hit, so a 64-bit key
// that two sources (or two report keys) share costs a recompute and never
// another entry's answer: a mismatching probe is a counted miss that does
// not promote the owner, the owner stays, and the first insert under a key
// wins. The prompt cache keeps the first response under a key too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "llm/caching_backend.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::verify {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

/// Keys 16 apart land in the same shard of either cache.
constexpr std::uint64_t kShardStride = 16;

std::shared_ptr<const CompiledProgram> compiled_from(const std::string& source) {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = false;
    return Oracle(std::move(options)).compile(source);
}

std::string program_printing(int value) {
    return "fn main() {\n    print_int(" + std::to_string(value) + ");\n}\n";
}

void expect_same_report(const miri::MiriReport& a, const miri::MiriReport& b) {
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].to_string(), b.findings[i].to_string());
    }
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.total_steps, b.total_steps);
}

TEST(CacheCollisionTest, ProgramLookupWithAnotherSourceMissesAndKeepsTheOwnerCold) {
    VerifyCache cache(/*programs_per_shard=*/2, /*reports_per_shard=*/2);
    const auto owner = compiled_from(program_printing(1));
    const auto neighbour = compiled_from(program_printing(2));
    const auto intruder = compiled_from(program_printing(3));
    constexpr std::uint64_t kKey = 5;
    ASSERT_EQ(cache.insert_program(kKey, owner), owner);
    ASSERT_EQ(cache.insert_program(kKey + kShardStride, neighbour), neighbour);

    // The owner is now the shard's least recently used entry. A probe
    // under its key with another source misses and counts a miss.
    EXPECT_EQ(cache.lookup_program(kKey, intruder->source), nullptr);
    VerifyCacheStats stats = cache.stats();
    EXPECT_EQ(stats.program_hits, 0u);
    EXPECT_EQ(stats.program_misses, 1u);
    // Inserting the other source under the taken key keeps nothing of it.
    EXPECT_EQ(cache.insert_program(kKey, intruder), nullptr);
    EXPECT_EQ(cache.stats().programs, 2u);

    // Neither call promoted the owner: the next insert into the full shard
    // evicts it, not the neighbour.
    const auto newcomer = compiled_from(program_printing(4));
    ASSERT_EQ(cache.insert_program(kKey + 2 * kShardStride, newcomer), newcomer);
    EXPECT_EQ(cache.lookup_program(kKey, owner->source), nullptr);
    EXPECT_EQ(cache.lookup_program(kKey + kShardStride, neighbour->source),
              neighbour);
    stats = cache.stats();
    EXPECT_EQ(stats.program_evictions, 1u);
    EXPECT_EQ(stats.program_hits, 1u);
    EXPECT_EQ(stats.program_misses, 2u);
}

TEST(CacheCollisionTest, ASourceWhoseKeyIsTakenIsVerifiedUncached) {
    // Plant source A's program under source B's fingerprint, as a key_hash
    // collision would leave it. B must still get its own report, store no
    // report under the borrowed key, and leave A's entry answering.
    const std::string a = program_printing(7);
    const std::string b = program_printing(8);
    const std::uint64_t b_key = source_fingerprint(b);
    const auto planted = compiled_from(a);

    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    const Oracle oracle(std::move(options));
    ASSERT_EQ(oracle.cache()->insert_program(b_key, planted), planted);

    OracleOptions uncached_options;
    uncached_options.cache = std::make_shared<VerifyCache>();
    uncached_options.caching = false;
    const Oracle uncached(std::move(uncached_options));

    const Inputs inputs = {{}};
    const miri::MiriReport expected = uncached.test_source(b, inputs);
    ASSERT_NE(expected.outputs, uncached.test_source(a, inputs).outputs);
    for (int round = 0; round < 2; ++round) {
        VerifyOutcome outcome;
        expect_same_report(oracle.test_source(b, inputs, &outcome), expected);
        EXPECT_FALSE(outcome.program_cached);
        EXPECT_FALSE(outcome.report_cached);
    }
    const VerifyCacheStats stats = oracle.stats();
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.reports, 0u);
    EXPECT_EQ(stats.report_hits + stats.report_misses, 0u);
    EXPECT_EQ(oracle.cache()->lookup_program(b_key, a), planted);
}

TEST(CacheCollisionTest, AReportKeyThatDiffersPastItsHashMissesAndTheFirstStays) {
    VerifyCache cache;
    const Inputs inputs = {{1, 2}};
    const Inputs other_inputs = {{1, 3}};
    ReportKeyView key;
    key.hash = 42;
    key.fingerprint = 9;
    key.check = 10;
    key.input_sets = &inputs;
    miri::MiriReport first;
    first.outputs = {{"first"}};
    first.total_steps = 3;
    cache.insert_report(key, first);

    ReportKeyView other_check = key;
    other_check.check = 11;
    ReportKeyView other_steps = key;
    other_steps.limits.max_steps = key.limits.max_steps + 1;
    ReportKeyView other_depth = key;
    other_depth.limits.max_call_depth = key.limits.max_call_depth + 1;
    ReportKeyView other_sets = key;
    other_sets.input_sets = &other_inputs;
    for (const ReportKeyView& colliding :
         {other_check, other_steps, other_depth, other_sets}) {
        EXPECT_FALSE(cache.lookup_report(colliding).has_value());
        miri::MiriReport second;
        second.outputs = {{"second"}};
        cache.insert_report(colliding, second);
    }

    const std::optional<miri::MiriReport> kept = cache.lookup_report(key);
    ASSERT_TRUE(kept.has_value());
    expect_same_report(*kept, first);
    const VerifyCacheStats stats = cache.stats();
    EXPECT_EQ(stats.reports, 1u);
    EXPECT_EQ(stats.report_hits, 1u);
    EXPECT_EQ(stats.report_misses, 4u);
}

TEST(CacheCollisionTest, ASecondPromptInsertUnderAKeyKeepsTheFirstResponse) {
    llm::PromptCache cache;
    llm::ChatResponse first;
    first.content = "first";
    first.prompt_tokens = 3;
    first.completion_tokens = 4;
    first.latency_ms = 5.0;
    llm::ChatResponse second;
    second.content = "second";
    second.latency_ms = 6.0;
    cache.insert(77, first);
    cache.insert(77, second);

    const std::optional<llm::ChatResponse> kept = cache.lookup(77);
    ASSERT_TRUE(kept.has_value());
    EXPECT_EQ(kept->content, "first");
    EXPECT_EQ(kept->prompt_tokens, 3u);
    EXPECT_EQ(kept->completion_tokens, 4u);
    EXPECT_EQ(kept->latency_ms, 5.0);
    const llm::PromptCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
}

}  // namespace
}  // namespace rustbrain::verify
