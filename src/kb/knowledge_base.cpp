#include "kb/knowledge_base.hpp"

#include <algorithm>
#include <array>

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
    // The best k hits so far, ordered as a stable sort by descending
    // similarity over the scan order would leave them: an entry goes after
    // every kept hit at least as similar (all of which were scanned
    // before it), and a hit pushed past k can never climb back. So this
    // is the first k of that stable sort, without sorting or keeping the
    // rest.
    std::vector<KbHit> hits;
    hits.reserve(std::min(k, entries_.size()) + 1);
    auto keep = [&](const KbEntry* entry, double similarity) {
        if (!(similarity >= min_similarity)) return;
        const auto at = std::upper_bound(
            hits.begin(), hits.end(), similarity,
            [](double value, const KbHit& hit) { return value > hit.similarity; });
        if (static_cast<std::size_t>(at - hits.begin()) >= k) return;
        hits.insert(at, KbHit{entry, similarity});
        if (hits.size() > k) hits.pop_back();
    };
    // Entries are scored four at a time: one pass over the dimensions with
    // four independent accumulators instead of one dependency chain. Each
    // accumulator adds the same products in the same order as
    // cosine_similarity, so every similarity is bit-identical to it.
    constexpr std::size_t kBatch = 4;
    std::array<const KbEntry*, kBatch> batch{};
    std::size_t batched = 0;
    auto score_batch = [&] {
        // Idle lanes repeat the first entry; only `batched` are kept.
        for (std::size_t lane = batched; lane < kBatch; ++lane) {
            batch[lane] = batch[0];
        }
        const analysis::AstVector& v0 = batch[0]->vector;
        const analysis::AstVector& v1 = batch[1]->vector;
        const analysis::AstVector& v2 = batch[2]->vector;
        const analysis::AstVector& v3 = batch[3]->vector;
        double dot0 = 0.0, dot1 = 0.0, dot2 = 0.0, dot3 = 0.0;
        for (std::size_t i = 0; i < analysis::kAstVectorDim; ++i) {
            const double p = static_cast<double>(probe[i]);
            dot0 += p * v0[i];
            dot1 += p * v1[i];
            dot2 += p * v2[i];
            dot3 += p * v3[i];
        }
        const std::array<double, kBatch> dots{dot0, dot1, dot2, dot3};
        for (std::size_t lane = 0; lane < batched; ++lane) {
            keep(batch[lane], dots[lane]);
        }
        batched = 0;
    };
    auto consider = [&](const KbEntry& entry) {
        if (!exclude_hint.empty() && entry.source_hint == exclude_hint) return;
        batch[batched++] = &entry;
        if (batched == kBatch) score_batch();
    };
    if (category.has_value()) {
        for (const std::size_t index :
             by_category_[static_cast<std::size_t>(*category)]) {
            consider(entries_[index]);
        }
    } else {
        for (const KbEntry& entry : entries_) consider(entry);
    }
    if (batched > 0) score_batch();
    return hits;
}

}  // namespace rustbrain::kb
