// support::LruMap and the shared caches built on it: true LRU keeps hot
// entries alive under eviction pressure (the regression flushing a whole
// shard at its cap failed), and the eviction/age stats surface what was
// dropped.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "llm/caching_backend.hpp"
#include "lru_reference.hpp"
#include "support/lru.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::support {
namespace {

TEST(LruMapTest, FindPromotesAndInsertEvictsTheColdest) {
    LruMap<int, std::string> map;
    map.configure(3);
    map.insert(1, "one");
    map.insert(2, "two");
    map.insert(3, "three");
    // Touch 1 so 2 becomes the least recently used.
    ASSERT_NE(map.find(1), nullptr);
    map.insert(4, "four");
    EXPECT_EQ(map.find(2), nullptr);  // evicted
    EXPECT_NE(map.find(1), nullptr);
    EXPECT_NE(map.find(3), nullptr);
    EXPECT_NE(map.find(4), nullptr);
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.stats().evictions, 1u);
}

TEST(LruMapTest, HotKeySurvivesSustainedEvictionPressure) {
    // The regression flush-on-cap failed: a key touched on every access
    // must survive arbitrarily many cold inserts.
    LruMap<int, int> map;
    map.configure(4);
    map.insert(0, 0);
    for (int cold = 1; cold <= 100; ++cold) {
        ASSERT_NE(map.find(0), nullptr) << "hot key evicted at " << cold;
        map.insert(cold, cold);
    }
    EXPECT_NE(map.find(0), nullptr);
    EXPECT_EQ(map.stats().evictions, 97u);  // 101 inserts into capacity 4
}

TEST(LruMapTest, PeekDoesNotPromote) {
    // The collision-check probe: VerifyCache peeks, validates the source,
    // and only a validated hit may refresh the entry's LRU position. A
    // mismatching probe (counted as a miss) must leave the order alone.
    LruMap<int, std::string> map;
    map.configure(2);
    map.insert(1, "one");
    map.insert(2, "two");
    // 1 is the LRU victim; repeated peeks must not rescue it.
    for (int i = 0; i < 5; ++i) ASSERT_NE(map.peek(1), nullptr);
    map.insert(3, "three");
    EXPECT_EQ(map.peek(1), nullptr);  // evicted: peeks were not accesses
    EXPECT_NE(map.peek(2), nullptr);
    EXPECT_NE(map.peek(3), nullptr);
}

TEST(LruMapTest, FindIfMismatchIsAMissAndDoesNotPromote) {
    // find_if's twin of PeekDoesNotPromote: a failing validation (a hash
    // collision) is a miss and must leave the LRU order alone.
    LruMap<int, std::string> map;
    map.configure(2);
    map.insert(1, "one");
    map.insert(2, "two");
    const auto is = [](const char* want) {
        return [want](const std::string& value) { return value == want; };
    };
    // 1 is the LRU victim; repeated failing validations must not rescue it.
    for (int i = 0; i < 5; ++i) ASSERT_EQ(map.find_if(1, is("uno")), nullptr);
    map.insert(3, "three");
    EXPECT_EQ(map.peek(1), nullptr);  // evicted: mismatches were not accesses
    EXPECT_NE(map.peek(2), nullptr);
    EXPECT_NE(map.peek(3), nullptr);
    // A passing validation is an access: it rescues the victim, 2.
    ASSERT_NE(map.find_if(2, is("two")), nullptr);
    map.insert(4, "four");
    EXPECT_NE(map.peek(2), nullptr);
    EXPECT_EQ(map.peek(3), nullptr);
    EXPECT_EQ(map.stats().evictions, 2u);
}

/// Drives the flat LruMap and the list + unordered_map reference with the
/// same seeded operation sequence and checks, after every operation, the
/// same answer, size and eviction count. `shard_keys` draws keys as
/// multiples of 16 (every key one cache shard sees); otherwise keys are
/// random 64-bit values.
void expect_matches_reference(std::size_t capacity, std::uint64_t seed,
                              std::size_t operations, bool shard_keys) {
    SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                 std::to_string(seed) + (shard_keys ? " shard keys" : ""));
    LruMap<std::uint64_t, std::uint64_t> flat;
    reference::LruMap<std::uint64_t, std::uint64_t> list;
    flat.configure(capacity);
    list.configure(capacity);
    Rng rng(seed);
    // About twice the capacity, so hits, misses and evictions all occur.
    std::vector<std::uint64_t> keys(2 * capacity + 3);
    for (std::uint64_t& key : keys) {
        key = shard_keys ? rng.next_below(std::uint64_t{1} << 40) * 16
                         : rng.next_u64();
    }
    // find_if's validation: odd values pass, so about half the probes of a
    // present key are mismatches.
    const auto odd = [](const std::uint64_t& value) { return value % 2 == 1; };
    for (std::size_t op = 0; op < operations; ++op) {
        const std::uint64_t key = keys[rng.next_below(keys.size())];
        const std::uint64_t* want = nullptr;
        const std::uint64_t* got = nullptr;
        switch (rng.next_below(4)) {
            case 0:  // insert, under its precondition that `key` is absent
                want = list.peek(key);
                got = flat.peek(key);
                if (want == nullptr && got == nullptr) {
                    const std::uint64_t value = rng.next_u64();
                    want = &list.insert(key, value);
                    got = &flat.insert(key, value);
                }
                break;
            case 1:
                want = list.find(key);
                got = flat.find(key);
                break;
            case 2:
                want = list.peek(key);
                got = flat.peek(key);
                break;
            default:  // find_if == peek, validate, then find
                want = list.peek(key);
                if (want != nullptr && !odd(*want)) want = nullptr;
                if (want != nullptr) want = list.find(key);
                got = flat.find_if(key, odd);
                break;
        }
        ASSERT_EQ(want == nullptr, got == nullptr) << "op " << op;
        if (want != nullptr) {
            ASSERT_EQ(*want, *got) << "op " << op;
        }
        ASSERT_EQ(list.size(), flat.size()) << "op " << op;
        ASSERT_EQ(list.stats().evictions, flat.stats().evictions)
            << "op " << op;
    }
    EXPECT_EQ(flat.size(), capacity);  // filled, then evicting
    EXPECT_GT(flat.stats().evictions, 0u);
}

TEST(LruMapTest, MatchesTheListReferenceOperationForOperation) {
    std::uint64_t seed = 2300;
    for (const std::size_t capacity : {1u, 2u, 3u, 7u, 64u}) {
        for (const bool shard_keys : {true, false}) {
            expect_matches_reference(capacity, ++seed, 4000, shard_keys);
        }
    }
    // Long enough to grow the index from 8 to 2048 slots, then to evict
    // (and so delete by backward shift) thousands of times at capacity.
    for (const bool shard_keys : {true, false}) {
        expect_matches_reference(1000, ++seed, 40000, shard_keys);
    }
}

TEST(PromptCacheLruTest, HotPromptSurvivesEvictionPressure) {
    llm::PromptCache cache(/*capacity_per_shard=*/4);
    llm::ChatResponse response;
    response.content = "hot";
    constexpr std::uint64_t kShardStride = 16;  // all keys land in shard 0
    cache.insert(0, response);
    for (std::uint64_t cold = 1; cold <= 64; ++cold) {
        ASSERT_TRUE(cache.lookup(0).has_value())
            << "hot prompt evicted after " << cold << " cold inserts";
        llm::ChatResponse filler;
        filler.content = "cold";
        cache.insert(cold * kShardStride, filler);
    }
    EXPECT_TRUE(cache.lookup(0).has_value());
    EXPECT_EQ(cache.lookup(0)->content, "hot");
    const llm::PromptCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    // An early cold key is long gone.
    EXPECT_FALSE(cache.lookup(1 * kShardStride).has_value());
}

TEST(VerifyCacheLruTest, HotProgramSurvivesAndEvictionsAreCounted) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>(
        /*programs_per_shard=*/2, /*reports_per_shard=*/2);
    const verify::Oracle oracle(std::move(options));

    const std::string hot = "fn main() {\n    print_int(1);\n}\n";
    (void)oracle.compile(hot);
    for (int cold = 0; cold < 40; ++cold) {
        // Touch the hot program, then push a fresh source through the same
        // (sharded) store.
        verify::VerifyOutcome outcome;
        (void)oracle.compile(hot, &outcome);
        EXPECT_TRUE(outcome.program_cached)
            << "hot program fell out of the cache at " << cold;
        const std::string fresh = "fn main() {\n    print_int(" +
                                  std::to_string(100 + cold) + ");\n}\n";
        (void)oracle.compile(fresh);
    }
    const verify::VerifyCacheStats stats = oracle.stats();
    EXPECT_GT(stats.program_evictions, 0u);
    EXPECT_GT(stats.program_hits, 0u);
}

TEST(CacheCountersTest, ConcurrentLookupsAreCountedExactly) {
    // The hit/miss counters live in the shards, bumped under the lock the
    // lookup holds; with four threads racing on one store the totals must
    // still equal the lookups issued.
    constexpr int kThreads = 4;
    constexpr int kLookups = 2000;
    llm::PromptCache prompts(/*capacity_per_shard=*/4);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&prompts, t] {
            Rng rng(100 + t);
            for (int i = 0; i < kLookups; ++i) {
                const std::uint64_t key = rng.next_below(128);
                if (!prompts.lookup(key).has_value()) {
                    llm::ChatResponse response;
                    response.content = std::to_string(key);
                    prompts.insert(key, response);
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    const llm::PromptCacheStats prompt_stats = prompts.stats();
    EXPECT_EQ(prompt_stats.hits + prompt_stats.misses,
              std::uint64_t{kThreads} * kLookups);
    EXPECT_GT(prompt_stats.hits, 0u);
    EXPECT_GT(prompt_stats.evictions, 0u);

    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>(
        /*programs_per_shard=*/1, /*reports_per_shard=*/1);
    const verify::Oracle oracle(std::move(options));
    constexpr int kTests = 300;
    threads.clear();
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&oracle, t] {
            Rng rng(200 + t);
            for (int i = 0; i < kTests; ++i) {
                const std::string source = "fn main() {\n    print_int(" +
                                           std::to_string(rng.next_below(24)) +
                                           ");\n}\n";
                const miri::MiriReport report = oracle.test_source(source, {{}});
                ASSERT_TRUE(report.findings.empty()) << source;
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    // Every source compiles, so each test_source looks up one program and
    // one report.
    const verify::VerifyCacheStats verify_stats = oracle.stats();
    EXPECT_EQ(verify_stats.program_hits + verify_stats.program_misses,
              std::uint64_t{kThreads} * kTests);
    EXPECT_EQ(verify_stats.report_hits + verify_stats.report_misses,
              std::uint64_t{kThreads} * kTests);
    EXPECT_GT(verify_stats.program_hits, 0u);
    EXPECT_GT(verify_stats.report_hits, 0u);
}

}  // namespace
}  // namespace rustbrain::support
