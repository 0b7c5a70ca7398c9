// AST-centred knowledge base (Fig 6).
//
// Entries pair a pruned-AST feature vector with the repair rules that were
// *verified* to fix that code (KB construction replays rules through
// MiriLite + the semantic judge — see seed.hpp). Queries return the most
// similar entries by cosine similarity; their rules become few-shot
// exemplars in subsequent LLM prompts.
//
// query() writes nothing to the KB, so one const KnowledgeBase serves the
// concurrent workers of a BatchRunner or RepairService without a lock.
#pragma once

#include <array>
#include <cstddef>
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

  private:
    std::vector<KbEntry> entries_;
    /// Indices into entries_ per category, in insertion order, so a
    /// category-scoped query meets its entries in the order a full scan
    /// would and ties sort identically.
    std::array<std::vector<std::size_t>, miri::kUbCategoryCount> by_category_;
};

}  // namespace rustbrain::kb
