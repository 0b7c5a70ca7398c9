// Shared by the suites that check knowledge-base retrieval against the
// pipeline it replaced: a linear-scan query, exactly as KnowledgeBase::query
// ran before it indexed entries by category, and the sweep benchmark's
// corpus (560 cases forged from seed 42).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/vectorize.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/knowledge_base.hpp"

namespace rustbrain::kb::reference {

/// Every entry of `kbase` in insertion order, filtered, scored, stably
/// sorted by similarity and cut to `k`.
inline std::vector<KbHit> linear_query(
    const KnowledgeBase& kbase, const analysis::AstVector& probe,
    std::size_t k, double min_similarity, const std::string& exclude_hint,
    std::optional<miri::UbCategory> category) {
    std::vector<KbHit> hits;
    for (const KbEntry& entry : kbase.entries()) {
        if (!exclude_hint.empty() && entry.source_hint == exclude_hint) continue;
        if (category.has_value() && entry.category != *category) continue;
        const double similarity = analysis::cosine_similarity(probe, entry.vector);
        if (similarity >= min_similarity) hits.push_back({&entry, similarity});
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const KbHit& a, const KbHit& b) {
                         return a.similarity > b.similarity;
                     });
    if (hits.size() > k) hits.resize(k);
    return hits;
}

/// Same entries (by address), same order, bit-equal similarities.
inline void expect_same_hits(const std::vector<KbHit>& want,
                             const std::vector<KbHit>& got,
                             const std::string& label) {
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].entry, got[i].entry) << label << " hit " << i;
        EXPECT_EQ(want[i].similarity, got[i].similarity) << label << " hit " << i;
    }
}

inline const dataset::Corpus& forged_seed42() {
    static const dataset::Corpus corpus = [] {
        gen::ForgeOptions options;
        options.seed = 42;
        options.count = 560;
        return gen::forge_corpus(options);
    }();
    return corpus;
}

}  // namespace rustbrain::kb::reference
