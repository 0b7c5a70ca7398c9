// LruMap — a bounded map with true least-recently-used eviction — and
// ShardedLru, the one thread-safe store built from sixteen of them.
//
// The shared caches (llm::PromptCache, verify::VerifyCache) are
// ShardedLrus: each shard is an LruMap rather than a map flushed at its
// cap, because a flush drops hot entries along with cold ones, which is
// hostile to a long-lived service whose whole value is keeping the hot set
// warm across requests.
// find() moves an entry to the front of the access order, insertion past
// capacity evicts from the back, and every eviction is counted, so cache
// pressure is observable instead of silent. The caches' bit-identity
// contract means dropping any entry is always safe.
//
// Layout (DESIGN.md §16). A warm sweep is almost nothing but lookups, so
// a lookup is one probe of two flat arrays:
//   - the slab: every entry is a Node {key, value, prev, next}
//     in one std::vector, the access order a doubly linked list threaded
//     through it by 32-bit slot numbers. The slab grows by doubling as
//     entries arrive (it is never reserved to capacity); at capacity an
//     eviction reuses the victim's slot, so it never shrinks or holes.
//   - the index: an open-addressed, power-of-two std::vector<uint32_t> of
//     slot numbers, kept at most half full, probed linearly and deleted
//     from by backward shift (no tombstones). Growing it rebuilds only
//     this array; nodes never move for it.
// The home slot comes from the *high* bits of key * 2^64/phi. ShardedLru
// routes a key to its shard by key % 16, so every key within one shard
// shares its low 4 bits; an index homed on the low bits would use a
// sixteenth of its slots.
//
// Pointers returned by find()/find_if()/peek() stay valid until the next
// insert(), which may grow (and so move) the slab. Callers copy what they
// need before inserting.
//
// find_if() is the validated hit: callers whose entries carry full key
// material (hash-collision checks) pass the check, and only an entry that
// passes is promoted — a mismatching probe is a miss that leaves the LRU
// order alone, in one probe instead of peek() followed by find().
//
// LruMap is not thread-safe by itself; ShardedLru locks each shard.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rustbrain::support {

struct LruStats {
    std::uint64_t evictions = 0;  // single-entry LRU evictions
};

template <typename Key, typename Value>
class LruMap {
    static_assert(std::is_integral_v<Key>,
                  "LruMap keys are integers (the caches key by hash)");

  public:
    LruMap() = default;

    /// Applied before first use (the shard arrays that hold LruMaps are
    /// default-constructed). `capacity` 0 means 1.
    void configure(std::size_t capacity) {
        capacity_ = capacity == 0 ? 1 : capacity;
        assert(capacity_ < kNone && "LruMap slots are 32-bit");
    }

    /// The entry for `key`, promoted to most-recently-used; null if absent.
    Value* find(const Key& key) {
        return find_if(key, [](const Value&) { return true; });
    }

    /// The entry for `key` if `valid(entry)` holds, promoted to
    /// most-recently-used; null if absent or invalid. An invalid entry (a
    /// hash collision) is a miss and keeps its LRU position.
    template <class Valid>
    Value* find_if(const Key& key, Valid&& valid) {
        const std::uint32_t slot = slot_of(key);
        if (slot == kNone) return nullptr;
        Node& node = nodes_[slot];
        if (!valid(static_cast<const Value&>(node.value))) return nullptr;
        if (slot != head_) {
            unlink(slot);
            push_front(slot);
        }
        return &node.value;
    }

    /// The entry for `key` with no LRU promotion; null if absent.
    Value* peek(const Key& key) {
        const std::uint32_t slot = slot_of(key);
        return slot == kNone ? nullptr : &nodes_[slot].value;
    }

    /// Insert a fresh entry as most-recently-used, evicting the
    /// least-recently-used one first when at capacity. Precondition: `key`
    /// is absent (callers always probe first under the same lock).
    /// Invalidates every pointer find()/find_if()/peek() returned.
    Value& insert(const Key& key, Value value) {
        assert(slot_of(key) == kNone && "LruMap::insert: key already present");
        std::uint32_t slot = 0;
        if (nodes_.size() >= capacity_) {
            slot = tail_;
            Node& victim = nodes_[slot];
            ++stats_.evictions;
            unindex(victim.key);
            unlink(slot);
            victim.key = key;
            victim.value = std::move(value);
        } else {
            if (2 * (nodes_.size() + 1) > index_.size()) grow_index();
            slot = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{key, std::move(value)});
        }
        push_front(slot);
        place(slot);
        return nodes_[slot].value;
    }

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] const LruStats& stats() const { return stats_; }

  private:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
    static constexpr std::size_t kMinIndex = 8;

    struct Node {
        Key key;
        Value value;
        std::uint32_t prev = kNone;  // toward the most recently used
        std::uint32_t next = kNone;  // toward the eviction victim
    };
    // Slab growth must move values, never copy them.
    static_assert(std::is_nothrow_move_constructible_v<Node>,
                  "LruMap values must be nothrow-move-constructible");

    [[nodiscard]] std::size_t home(const Key& key) const {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * kGolden) >> shift_);
    }

    /// The slot holding `key`, or kNone.
    [[nodiscard]] std::uint32_t slot_of(const Key& key) const {
        if (index_.empty()) return kNone;
        const std::size_t mask = index_.size() - 1;
        for (std::size_t pos = home(key);; pos = (pos + 1) & mask) {
            const std::uint32_t slot = index_[pos];
            if (slot == kNone || nodes_[slot].key == key) return slot;
        }
    }

    /// Records `slot` in the index (its key is absent and the index has
    /// room).
    void place(std::uint32_t slot) {
        const std::size_t mask = index_.size() - 1;
        std::size_t pos = home(nodes_[slot].key);
        while (index_[pos] != kNone) pos = (pos + 1) & mask;
        index_[pos] = slot;
    }

    /// Removes `key` (present) from the index by backward shift: each
    /// later entry of the probe run moves back into the hole unless its
    /// home lies between the hole and itself, so no tombstones are left.
    void unindex(const Key& key) {
        const std::size_t mask = index_.size() - 1;
        std::size_t hole = home(key);
        while (nodes_[index_[hole]].key != key) hole = (hole + 1) & mask;
        for (std::size_t pos = (hole + 1) & mask; index_[pos] != kNone;
             pos = (pos + 1) & mask) {
            const std::size_t from_home =
                (pos - home(nodes_[index_[pos]].key)) & mask;
            if (from_home >= ((pos - hole) & mask)) {
                index_[hole] = index_[pos];
                hole = pos;
            }
        }
        index_[hole] = kNone;
    }

    /// Doubles the index (at least kMinIndex slots) and re-places every
    /// node; the slab is untouched.
    void grow_index() {
        const std::size_t size =
            index_.empty() ? kMinIndex : 2 * index_.size();
        index_.assign(size, kNone);
        int bits = 0;
        while ((std::size_t{1} << bits) < size) ++bits;
        shift_ = 64 - bits;
        for (std::uint32_t slot = 0; slot < nodes_.size(); ++slot) place(slot);
    }

    void unlink(std::uint32_t slot) {
        Node& node = nodes_[slot];
        if (node.prev != kNone) nodes_[node.prev].next = node.next;
        else head_ = node.next;
        if (node.next != kNone) nodes_[node.next].prev = node.prev;
        else tail_ = node.prev;
    }

    void push_front(std::uint32_t slot) {
        Node& node = nodes_[slot];
        node.prev = kNone;
        node.next = head_;
        if (head_ != kNone) nodes_[head_].prev = slot;
        else tail_ = slot;
        head_ = slot;
    }

    std::size_t capacity_ = 1;
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> index_;  // slot numbers; kNone = empty
    int shift_ = 64;                    // 64 - log2(index_.size())
    std::uint32_t head_ = kNone;        // most recently used
    std::uint32_t tail_ = kNone;        // the eviction victim
    LruStats stats_;
};

struct ShardedLruStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    std::uint64_t evictions = 0;
};

/// Sixteen LruMaps keyed by a 64-bit hash, each behind its own lock: the
/// store every shared cache is. A key lives in shard key % 16. A shard
/// owns a whole cache line and counts its hits and misses under the lock
/// its lookup already holds, so a hit writes no line another shard's
/// lookups touch. Lookups copy out, under the lock, only what the caller
/// reads (DESIGN.md §16). Thread-safe.
template <typename Value>
class ShardedLru {
  public:
    /// `capacity_per_shard` 0 means 1.
    explicit ShardedLru(std::size_t capacity_per_shard) {
        for (Shard& shard : shards_) shard.entries.configure(capacity_per_shard);
    }

    /// The counted lookup: read(entry) for the entry under `key` if
    /// valid(entry) holds, promoted to most-recently-used and counted as a
    /// hit; nullopt, counted as a miss, if there is none or it fails the
    /// check (a hash collision), which leaves its LRU position alone.
    template <class Valid, class Read>
    auto lookup(std::uint64_t key, Valid&& valid, Read&& read)
        -> std::optional<std::invoke_result_t<Read&, const Value&>> {
        Shard& shard = shard_for(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const Value* entry = shard.entries.find_if(key, valid);
        if (entry == nullptr) {
            ++shard.misses;
            return std::nullopt;
        }
        ++shard.hits;
        return read(*entry);
    }

    /// The first insert wins: stores `value` under `key` unless an entry is
    /// there already, which keeps its LRU position.
    void insert(std::uint64_t key, Value value) {
        Shard& shard = shard_for(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.entries.peek(key) == nullptr) {
            shard.entries.insert(key, std::move(value));
        }
    }

    /// insert() that reads back, under the same lock, the entry the key
    /// then holds: read(value) when it was stored; read(earlier entry),
    /// promoted, when valid(earlier entry) holds (a racing insert of an
    /// equal entry); nullopt when it does not (a hash collision), which
    /// leaves the owner's LRU position alone. Counted as neither a hit nor
    /// a miss: the lookup before it was. One lock, so no eviction can
    /// fall between the insert and the read.
    template <class Valid, class Read>
    auto insert_or_find(std::uint64_t key, Value value, Valid&& valid,
                        Read&& read)
        -> std::optional<std::invoke_result_t<Read&, const Value&>> {
        Shard& shard = shard_for(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const Value* kept = shard.entries.peek(key) == nullptr
                                ? &shard.entries.insert(key, std::move(value))
                                : shard.entries.find_if(key, valid);
        if (kept == nullptr) return std::nullopt;
        return read(*kept);
    }

    [[nodiscard]] ShardedLruStats stats() const {
        ShardedLruStats stats;
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.entries += shard.entries.size();
            stats.evictions += shard.entries.stats().evictions;
        }
        return stats;
    }

  private:
    static constexpr std::size_t kShards = 16;
    /// 64, not hardware_destructive_interference_size: GCC warns that the
    /// latter may vary between builds (-Winterference-size).
    struct alignas(64) Shard {
        mutable std::mutex mutex;
        LruMap<std::uint64_t, Value> entries;
        std::uint64_t hits = 0;  // guarded by mutex, like the entries
        std::uint64_t misses = 0;
    };
    Shard& shard_for(std::uint64_t key) { return shards_[key % kShards]; }

    std::array<Shard, kShards> shards_;
};

}  // namespace rustbrain::support
