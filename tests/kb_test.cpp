#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/prune.hpp"
#include "analysis/vectorize.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "kb_reference.hpp"
#include "lang/parser.hpp"
#include "support/rng.hpp"

namespace rustbrain::kb {
namespace {

const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const KnowledgeBase& seeded_kb() {
    static const KnowledgeBase kbase = [] {
        KnowledgeBase k;
        seed_from_corpus(corpus(), k);
        return k;
    }();
    return kbase;
}

analysis::AstVector probe_for(const std::string& case_id) {
    const auto* ub_case = corpus().find(case_id);
    auto program = lang::try_parse(ub_case->buggy_source);
    return analysis::probe_ast(*program).vector;
}

TEST(KbTest, SeedingCoversMostCases) {
    EXPECT_GE(seeded_kb().size(), corpus().size() * 9 / 10);
}

TEST(KbTest, SeedStatsConsistent) {
    KnowledgeBase kbase;
    const SeedStats stats = seed_from_corpus(corpus(), kbase);
    EXPECT_EQ(stats.cases_processed, corpus().size());
    EXPECT_EQ(stats.entries_added, kbase.size());
    EXPECT_GE(stats.rules_verified, stats.entries_added);
}

TEST(KbTest, SiblingVariantRetrievedFirst) {
    const auto hits = seeded_kb().query(probe_for("alloc/double_free_0"), 3, 0.6,
                                        "alloc/double_free_0",
                                        miri::UbCategory::Alloc);
    ASSERT_FALSE(hits.empty());
    // The most similar entries are the parametric siblings.
    EXPECT_TRUE(hits[0].entry->source_hint == "alloc/double_free_1" ||
                hits[0].entry->source_hint == "alloc/double_free_2")
        << hits[0].entry->source_hint;
    EXPECT_GT(hits[0].similarity, 0.95);
}

TEST(KbTest, ExcludeHintPreventsSelfRetrieval) {
    const auto hits = seeded_kb().query(probe_for("alloc/double_free_0"), 10, 0.0,
                                        "alloc/double_free_0");
    for (const auto& hit : hits) {
        EXPECT_NE(hit.entry->source_hint, "alloc/double_free_0");
    }
}

TEST(KbTest, CategoryFilterRespected) {
    const auto hits = seeded_kb().query(probe_for("panic/div_zero_0"), 5, 0.0,
                                        "panic/div_zero_0",
                                        miri::UbCategory::Panic);
    ASSERT_FALSE(hits.empty());
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.entry->category, miri::UbCategory::Panic);
    }
}

TEST(KbTest, RetrievedRulesAreVerifiedFixes) {
    const auto hits = seeded_kb().query(probe_for("danglingpointer/use_after_free_0"),
                                        1, 0.6, "danglingpointer/use_after_free_0",
                                        miri::UbCategory::DanglingPointer);
    ASSERT_FALSE(hits.empty());
    ASSERT_FALSE(hits[0].entry->rule_ids.empty());
    EXPECT_EQ(hits[0].entry->rule_ids.front(), "move-dealloc-to-end");
}

TEST(KbTest, MinSimilarityFilters) {
    const auto none = seeded_kb().query(probe_for("alloc/double_free_0"), 5,
                                        1.01, "");
    EXPECT_TRUE(none.empty());
}

TEST(KbTest, TopKLimitsResults) {
    const auto hits = seeded_kb().query(probe_for("alloc/double_free_0"), 2, 0.0);
    EXPECT_LE(hits.size(), 2u);
}

TEST(KbTest, StatisticsAccumulate) {
    KnowledgeBase kbase;
    KbEntry entry;
    entry.source_hint = "x";
    entry.category = miri::UbCategory::Alloc;
    entry.vector[0] = 1.0F;
    kbase.add(entry);
    analysis::AstVector probe{};
    probe[0] = 1.0F;
    const auto first = kbase.query(probe, 3, 0.5);
    const auto second = kbase.query(probe, 3, 0.5);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    // The KB keeps no query state: a repeated query returns the same
    // entries with the same similarities.
    EXPECT_EQ(first[0].entry, second[0].entry);
    EXPECT_EQ(first[0].similarity, second[0].similarity);
}

TEST(KbTest, ProbeFallsBackToTheWholeUnsafeFreeProgram) {
    auto program = lang::try_parse(
        "fn main() { let a = [1, 2, 3]; print_int(a[0] as i64); }");
    ASSERT_TRUE(program.has_value());
    // No unsafe code: pruning would leave a skeleton, so the vector must be
    // the whole program's.
    const analysis::AstProbe probe = analysis::probe_ast(*program);
    EXPECT_EQ(probe.vector, analysis::vectorize(*program));
    EXPECT_LT(probe.retained_fraction, 1.0);
}

std::vector<std::optional<miri::UbCategory>> categories_and_none() {
    std::vector<std::optional<miri::UbCategory>> out{std::nullopt};
    for (std::size_t i = 0; i < miri::kUbCategoryCount; ++i) {
        out.emplace_back(static_cast<miri::UbCategory>(i));
    }
    return out;
}

TEST(KbTest, QueryMatchesALinearScan) {
    const KnowledgeBase& kbase = seeded_kb();
    const dataset::Corpus& forged = reference::forged_seed42();
    ASSERT_EQ(forged.size(), 560u);
    std::size_t compared = 0;
    std::size_t nonempty = 0;
    for (std::size_t i = 0; i < forged.size(); ++i) {
        const dataset::UbCase& ub_case = forged.cases()[i];
        const auto program = lang::try_parse(ub_case.buggy_source);
        ASSERT_TRUE(program.has_value()) << ub_case.id;
        const analysis::AstVector probe = analysis::probe_ast(*program).vector;
        // A real entry's hint, so exclusion drops something in some
        // categories and nothing in the others.
        const std::string excluded =
            kbase.entries()[i % kbase.size()].source_hint;
        for (const auto& category : categories_and_none()) {
            for (const std::string& exclude : {std::string(), excluded}) {
                for (const std::size_t k : {1u, 3u, 10u}) {
                    for (const double min_similarity : {0.0, 0.6}) {
                        const std::string label =
                            ub_case.id + " k=" + std::to_string(k) +
                            " min=" + std::to_string(min_similarity) +
                            " exclude=" + exclude + " category=" +
                            (category ? miri::ub_category_name(*category)
                                      : "none");
                        const auto want = reference::linear_query(
                            kbase, probe, k, min_similarity, exclude, category);
                        const auto got = kbase.query(probe, k, min_similarity,
                                                     exclude, category);
                        reference::expect_same_hits(want, got, label);
                        if (::testing::Test::HasFailure()) return;
                        ++compared;
                        nonempty += want.empty() ? 0 : 1;
                    }
                }
            }
        }
    }
    EXPECT_EQ(compared, 560u * 16 * 2 * 3 * 2);
    EXPECT_GT(nonempty, compared / 4);  // not vacuous
}

KnowledgeBase duplicate_vector_kb() {
    // Equal vectors across and within categories: every similarity ties,
    // so only insertion order decides the ranking.
    KnowledgeBase kbase;
    const std::vector<std::pair<std::string, miri::UbCategory>> layout = {
        {"a", miri::UbCategory::Alloc},  {"b", miri::UbCategory::Panic},
        {"c", miri::UbCategory::Alloc},  {"d", miri::UbCategory::Panic},
        {"e", miri::UbCategory::Alloc},  {"f", miri::UbCategory::DataRace},
    };
    for (const auto& [hint, category] : layout) {
        KbEntry entry;
        entry.source_hint = hint;
        entry.category = category;
        entry.vector[3] = 0.6F;
        entry.vector[7] = 0.8F;
        entry.rule_ids = {"rule-" + hint};
        kbase.add(std::move(entry));
    }
    return kbase;
}

std::vector<std::string> hints_of(const std::vector<KbHit>& hits) {
    std::vector<std::string> out;
    for (const KbHit& hit : hits) out.push_back(hit.entry->source_hint);
    return out;
}

TEST(KbTest, TiesKeepInsertionOrder) {
    const KnowledgeBase kbase = duplicate_vector_kb();
    const analysis::AstVector probe = kbase.entries().front().vector;
    using Hints = std::vector<std::string>;
    EXPECT_EQ(hints_of(kbase.query(probe, 10, 0.0, "", miri::UbCategory::Alloc)),
              (Hints{"a", "c", "e"}));
    EXPECT_EQ(hints_of(kbase.query(probe, 2, 0.0, "a", miri::UbCategory::Alloc)),
              (Hints{"c", "e"}));
    EXPECT_EQ(hints_of(kbase.query(probe, 10, 0.0, "", miri::UbCategory::Panic)),
              (Hints{"b", "d"}));
    EXPECT_EQ(hints_of(kbase.query(probe, 4, 0.0)),
              (Hints{"a", "b", "c", "d"}));
    EXPECT_TRUE(kbase.query(probe, 10, 0.0, "", miri::UbCategory::Uninit).empty());
    for (const auto& category : categories_and_none()) {
        for (const std::string exclude : {"", "c", "f"}) {
            reference::expect_same_hits(
                reference::linear_query(kbase, probe, 10, 0.0, exclude, category),
                kbase.query(probe, 10, 0.0, exclude, category), exclude);
        }
    }
}

TEST(KbTest, BatchedScanMatchesALinearScanForEveryRemainder) {
    // query scores entries four at a time and keeps only the best k: every
    // count of scanned entries mod 4, exclusions inside a batch, tied
    // duplicate vectors and cuts at k must still give the linear scan's
    // hits, bit for bit, in its order.
    support::Rng rng(2323);
    const auto random_vector = [&rng] {
        analysis::AstVector vector{};
        double norm = 0.0;
        for (float& x : vector) {
            x = static_cast<float>(rng.next_gaussian());
            norm += static_cast<double>(x) * x;
        }
        for (float& x : vector) x = static_cast<float>(x / std::sqrt(norm));
        return vector;
    };
    std::size_t compared = 0;
    for (std::size_t count = 1; count <= 9; ++count) {
        // `count` Alloc entries interleaved with Panic ones; every other
        // Alloc entry shares one vector (ties), and a third of them share
        // the hint "mid", so excluding it empties batch lanes.
        KnowledgeBase kbase;
        const analysis::AstVector shared = random_vector();
        for (std::size_t i = 0; i < count; ++i) {
            KbEntry entry;
            entry.source_hint = i % 3 == 1 ? "mid" : "alloc" + std::to_string(i);
            entry.category = miri::UbCategory::Alloc;
            entry.vector = i % 2 == 0 ? shared : random_vector();
            kbase.add(std::move(entry));
            KbEntry other;
            other.source_hint = "panic" + std::to_string(i);
            other.category = miri::UbCategory::Panic;
            other.vector = i % 3 == 0 ? shared : random_vector();
            kbase.add(std::move(other));
        }
        for (const analysis::AstVector& probe : {shared, random_vector()}) {
            for (const std::optional<miri::UbCategory> category :
                 {std::optional<miri::UbCategory>(miri::UbCategory::Alloc),
                  std::optional<miri::UbCategory>(miri::UbCategory::Panic),
                  std::optional<miri::UbCategory>()}) {
                for (const std::string exclude : {"", "mid", "alloc0", "panic1"}) {
                    for (const double min_similarity : {-1.0, 0.0}) {
                        for (const std::size_t k : {1u, 3u, 20u}) {
                            const std::string label =
                                std::to_string(count) + " entries, exclude '" +
                                exclude + "', min " +
                                std::to_string(min_similarity) + ", k " +
                                std::to_string(k);
                            reference::expect_same_hits(
                                reference::linear_query(kbase, probe, k,
                                                        min_similarity,
                                                        exclude, category),
                                kbase.query(probe, k, min_similarity, exclude,
                                            category),
                                label);
                            ++compared;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(compared, 9u * 2 * 3 * 4 * 2 * 3);
}

/// The category index must travel with the entries through every copy and
/// move, pointing into the new owner's entries.
void expect_indexed_like(const KnowledgeBase& original,
                         const KnowledgeBase& copy, const std::string& label) {
    ASSERT_EQ(copy.size(), original.size()) << label;
    const analysis::AstVector probe = probe_for("alloc/double_free_0");
    for (const auto& category : categories_and_none()) {
        const auto got = copy.query(probe, 10, 0.0, "", category);
        reference::expect_same_hits(
            reference::linear_query(copy, probe, 10, 0.0, "", category), got,
            label);
        EXPECT_EQ(hints_of(got),
                  hints_of(original.query(probe, 10, 0.0, "", category)))
            << label;
    }
}

TEST(KbTest, CopiesAndMovesCarryTheCategoryIndex) {
    const KnowledgeBase& original = seeded_kb();
    const KnowledgeBase copied(original);
    expect_indexed_like(original, copied, "copy-constructed");

    KnowledgeBase source(original);
    KnowledgeBase move_assigned = duplicate_vector_kb();
    move_assigned = std::move(source);
    expect_indexed_like(original, move_assigned, "move-assigned");

    KnowledgeBase copy_assigned = duplicate_vector_kb();
    copy_assigned = original;
    expect_indexed_like(original, copy_assigned, "copy-assigned");

    KnowledgeBase donor(original);
    const KnowledgeBase move_constructed(std::move(donor));
    expect_indexed_like(original, move_constructed, "move-constructed");
}

}  // namespace
}  // namespace rustbrain::kb
