// AST-centred knowledge base (Fig 6).
//
// Entries pair a pruned-AST feature vector with the repair rules that were
// *verified* to fix that code (KB construction replays rules through
// MiriLite + the semantic judge — see seed.hpp). Queries return the most
// similar entries by cosine similarity; their rules become few-shot
// exemplars in subsequent LLM prompts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/vectorize.hpp"
#include "miri/finding.hpp"

namespace rustbrain::kb {

struct KbEntry {
    std::string source_hint;  // provenance label (e.g. corpus case id)
    miri::UbCategory category = miri::UbCategory::Panic;
    analysis::AstVector vector{};
    std::vector<std::string> rule_ids;  // verified fixes, best first
};

struct KbHit {
    const KbEntry* entry = nullptr;
    double similarity = 0.0;
};

class KnowledgeBase {
  public:
    KnowledgeBase() = default;
    // The usage counters are atomics (so a shared const KB can serve
    // concurrent BatchRunner workers), which makes copy/move user-provided.
    KnowledgeBase(const KnowledgeBase& other)
        : entries_(other.entries_),
          by_category_(other.by_category_),
          queries_(other.queries_.load()),
          hits_(other.hits_.load()) {}
    KnowledgeBase(KnowledgeBase&& other) noexcept
        : entries_(std::move(other.entries_)),
          by_category_(std::move(other.by_category_)),
          queries_(other.queries_.load()),
          hits_(other.hits_.load()) {}
    KnowledgeBase& operator=(const KnowledgeBase& other) {
        entries_ = other.entries_;
        by_category_ = other.by_category_;
        queries_ = other.queries_.load();
        hits_ = other.hits_.load();
        return *this;
    }
    KnowledgeBase& operator=(KnowledgeBase&& other) noexcept {
        entries_ = std::move(other.entries_);
        by_category_ = std::move(other.by_category_);
        queries_ = other.queries_.load();
        hits_ = other.hits_.load();
        return *this;
    }

    void add(KbEntry entry);

    /// Top-k entries by cosine similarity, at or above `min_similarity`.
    /// Entries whose source_hint equals `exclude_hint` are skipped so a
    /// query never trivially retrieves itself. When `category` is set, only
    /// entries for that error category are considered — the KB is indexed
    /// by error pattern, not just code shape (Fig 6's "error AST"), and
    /// such a query scans only that category's entries.
    [[nodiscard]] std::vector<KbHit> query(
        const analysis::AstVector& probe, std::size_t k, double min_similarity,
        const std::string& exclude_hint = "",
        std::optional<miri::UbCategory> category = std::nullopt) const;

    /// Every entry, in insertion order.
    [[nodiscard]] const std::vector<KbEntry>& entries() const { return entries_; }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] bool empty() const { return entries_.empty(); }

    // Usage statistics (reported by the benches).
    [[nodiscard]] std::uint64_t queries_served() const { return queries_; }
    [[nodiscard]] std::uint64_t hits_returned() const { return hits_; }

  private:
    std::vector<KbEntry> entries_;
    /// Indices into entries_ per category, in insertion order, so a
    /// category-scoped query meets its entries in the order a full scan
    /// would and ties sort identically.
    std::array<std::vector<std::size_t>, miri::kUbCategoryCount> by_category_;
    mutable std::atomic<std::uint64_t> queries_{0};
    mutable std::atomic<std::uint64_t> hits_{0};
};

}  // namespace rustbrain::kb
