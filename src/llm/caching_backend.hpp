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
// The store is a support::ShardedLru (DESIGN.md §16), the one the
// Oracle's program and report caches use: 16 cache-line-aligned shards,
// each an LruMap under its own lock that counts its own hits and misses,
// so lock contention stays negligible when a BatchRunner or RepairService
// fans requests out across workers. A full shard evicts its
// least-recently-used entry; dropping entries is always safe, because
// bit-identity means only speed is at stake.
//
// Unlike the Oracle's caches, an entry keeps no key material: a lookup
// trusts its 64-bit call_key, so two calls whose keys collide share the
// first one's response (DESIGN.md §14).
//
// Replay: every exchange is stored under its call_key, so a cache that one
// run filled answers a second run of the same sessions with no model
// behind it — caching_backend_factory(cache, inner) with an `inner` whose
// sessions never answer. The cache must hold the whole recording (size
// capacity_per_shard so no shard evicts), or the replay reaches `inner`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "llm/backend.hpp"
#include "support/lru.hpp"

namespace rustbrain::llm {

struct PromptCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /// LRU evictions: single entries dropped at capacity.
    std::uint64_t evictions = 0;

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
    /// The first insert under a key wins.
    void insert(std::uint64_t key, const ChatResponse& response);
    [[nodiscard]] PromptCacheStats stats() const;

  private:
    /// Per-shard cap (16 shards): ~512k responses total.
    static constexpr std::size_t kDefaultEntriesPerShard = 32768;

    support::ShardedLru<ChatResponse> entries_;
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
