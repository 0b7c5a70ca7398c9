#include "kb/knowledge_base.hpp"

#include <algorithm>

namespace rustbrain::kb {

void KnowledgeBase::add(KbEntry entry) {
    by_category_[static_cast<std::size_t>(entry.category)].push_back(
        entries_.size());
    entries_.push_back(std::move(entry));
}

std::vector<KbHit> KnowledgeBase::query(const analysis::AstVector& probe,
                                        std::size_t k, double min_similarity,
                                        const std::string& exclude_hint,
                                        std::optional<miri::UbCategory> category)
    const {
    queries_.fetch_add(1, std::memory_order_relaxed);
    std::vector<KbHit> hits;
    auto consider = [&](const KbEntry& entry) {
        if (!exclude_hint.empty() && entry.source_hint == exclude_hint) return;
        const double similarity = analysis::cosine_similarity(probe, entry.vector);
        if (similarity >= min_similarity) {
            hits.push_back({&entry, similarity});
        }
    };
    if (category.has_value()) {
        for (const std::size_t index :
             by_category_[static_cast<std::size_t>(*category)]) {
            consider(entries_[index]);
        }
    } else {
        for (const KbEntry& entry : entries_) consider(entry);
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const KbHit& a, const KbHit& b) {
                         return a.similarity > b.similarity;
                     });
    if (hits.size() > k) {
        hits.resize(k);
    }
    hits_.fetch_add(hits.size(), std::memory_order_relaxed);
    return hits;
}

}  // namespace rustbrain::kb
