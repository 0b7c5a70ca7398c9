// CachingBackend — deterministic prompt-keyed memoization.
//
// A PromptCache is shared across every session of a sweep (and across
// repeated sweeps — or, in service mode, across every request a
// serve::RepairService handles). The cache key is the full call identity —
// (session tag, session seed, sequence, temperature, message contents) —
// and backends are per-call deterministic in exactly those inputs, so a
// cached answer is bit-identical to a live one: sweeps with and without
// the cache produce the same CaseResults (asserted in
// tests/llm_backend_test.cpp). Repeated configurations — the same sweep at
// several worker counts, re-runs of a config inside one bench, zipfian
// repeat traffic through the repair service — answer almost entirely from
// cache, skipping the simulated model's parse/mutate/print work on the hot
// path.
//
// The store is sharded 16 ways to keep lock contention negligible when a
// BatchRunner or RepairService fans requests out across workers. Each
// shard is bounded by a support::LruMap: a full shard evicts its
// least-recently-used entry, so hot entries survive pressure. Dropping
// entries is always safe — bit-identity means only speed is at stake.
// A shard owns a whole cache line and counts its own hits and misses
// under the lock a lookup already holds, so a hit writes no line another
// shard's lookups touch (DESIGN.md §16).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "llm/backend.hpp"
#include "support/lru.hpp"

namespace rustbrain::llm {

struct PromptCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /// LRU evictions: single entries dropped at capacity,
    /// plus the summed idle age (in shard accesses) of the victims —
    /// evicted_idle_ticks / evictions = how cold the dropped entries were.
    std::uint64_t evictions = 0;
    std::uint64_t evicted_idle_ticks = 0;

    [[nodiscard]] double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
};

class PromptCache {
  public:
    /// Default: true LRU eviction at ~512k responses total;
    /// `capacity_per_shard` is exposed so tests can exercise eviction
    /// pressure without millions of inserts.
    explicit PromptCache(
        std::size_t capacity_per_shard = kDefaultEntriesPerShard);

    /// Returns the cached response for a call identity, counting a hit or
    /// a miss (a hit promotes the entry to most-recently-used).
    std::optional<ChatResponse> lookup(std::uint64_t key);
    void insert(std::uint64_t key, const ChatResponse& response);
    [[nodiscard]] PromptCacheStats stats() const;

  private:
    static constexpr std::size_t kShards = 16;
    /// Per-shard cap: ~512k responses total.
    static constexpr std::size_t kDefaultEntriesPerShard = 32768;
    /// 64, not hardware_destructive_interference_size: GCC warns that the
    /// latter may vary between builds (-Winterference-size).
    struct alignas(64) Shard {
        mutable std::mutex mutex;
        support::LruMap<std::uint64_t, ChatResponse> entries;
        std::uint64_t hits = 0;  // guarded by mutex, like the entries
        std::uint64_t misses = 0;
    };
    Shard& shard_for(std::uint64_t key) { return shards_[key % kShards]; }

    std::array<Shard, kShards> shards_;
};

class CachingBackend final : public LlmBackend {
  public:
    CachingBackend(std::shared_ptr<PromptCache> cache,
                   std::unique_ptr<LlmBackend> inner, std::string session_tag,
                   std::uint64_t session_seed);

    ChatResponse complete(const ChatRequest& request) override;
    [[nodiscard]] std::uint64_t calls_served() const override { return calls_; }
    [[nodiscard]] std::string description() const override;

  private:
    std::shared_ptr<PromptCache> cache_;
    std::unique_ptr<LlmBackend> inner_;
    std::string session_tag_;
    std::uint64_t session_seed_;
    std::uint64_t calls_ = 0;
};

/// Wraps `inner` (default: SimLLM) sessions with a shared PromptCache.
BackendFactory caching_backend_factory(std::shared_ptr<PromptCache> cache,
                                       BackendFactory inner = {});

}  // namespace rustbrain::llm
