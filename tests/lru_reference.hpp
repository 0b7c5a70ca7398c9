// The std::list + std::unordered_map LruMap that support::LruMap's flat
// slab and open-addressed index replaced, kept as the oracle for the
// differential test in cache_lru_test.cpp: both must agree on every
// return value, size and eviction count for the same operation sequence.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "support/lru.hpp"

namespace rustbrain::support::reference {

template <typename Key, typename Value>
class LruMap {
  public:
    LruMap() = default;

    /// Applied before first use (the shard arrays that hold LruMaps are
    /// default-constructed). `capacity` 0 means 1.
    void configure(std::size_t capacity) {
        capacity_ = capacity == 0 ? 1 : capacity;
    }

    /// The entry for `key`, promoted to most-recently-used; null if absent.
    Value* find(const Key& key) {
        auto it = index_.find(key);
        if (it == index_.end()) return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->value;
    }

    /// The entry for `key` with no LRU promotion — for callers that must
    /// validate the entry first (hash-collision checks): a mismatching
    /// probe is a miss and must not refresh the colliding owner's slot.
    /// Promote with find() once the match check succeeds.
    Value* peek(const Key& key) {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &it->second->value;
    }

    /// Insert a fresh entry as most-recently-used, evicting the
    /// least-recently-used one first when at capacity. Precondition: `key`
    /// is absent (callers always find() first under the same lock).
    Value& insert(const Key& key, Value value) {
        if (order_.size() >= capacity_) {
            const Node& victim = order_.back();
            ++stats_.evictions;
            index_.erase(victim.key);
            order_.pop_back();
        }
        order_.push_front(Node{key, std::move(value)});
        index_.emplace(key, order_.begin());
        return order_.front().value;
    }

    [[nodiscard]] std::size_t size() const { return order_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] const LruStats& stats() const { return stats_; }

  private:
    struct Node {
        Key key;
        Value value;
    };

    std::size_t capacity_ = 1;
    std::list<Node> order_;   // front = most recent, back = eviction victim
    std::unordered_map<Key, typename std::list<Node>::iterator> index_;
    LruStats stats_;
};

}  // namespace rustbrain::support::reference
