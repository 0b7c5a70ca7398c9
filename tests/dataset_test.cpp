// Corpus integrity: every buggy case fails MiriLite with its declared
// category, every reference fix passes and trace-matches itself.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string_view>

#include "dataset/corpus.hpp"
#include "dataset/semantic.hpp"
#include "dataset/shape.hpp"
#include "miri/mirilite.hpp"
#include "support/hashing.hpp"

namespace rustbrain::dataset {
namespace {

const Corpus& corpus() {
    static const Corpus c = Corpus::standard();
    return c;
}

TEST(CorpusTest, HasAllFourteenCategories) {
    EXPECT_EQ(corpus().categories().size(), miri::all_ub_categories().size());
}

TEST(CorpusTest, SizeAndShape) {
    EXPECT_GE(corpus().size(), 100u);
    for (miri::UbCategory category : miri::all_ub_categories()) {
        EXPECT_GE(corpus().by_category(category).size(), 6u)
            << "too few cases for " << miri::ub_category_label(category);
    }
}

TEST(CorpusTest, IdsAreUnique) {
    std::set<std::string> seen;
    for (const auto& c : corpus().cases()) {
        EXPECT_TRUE(seen.insert(c.id).second) << "duplicate id " << c.id;
    }
}

TEST(CorpusTest, FindById) {
    const UbCase* c = corpus().find("alloc/double_free_0");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->category, miri::UbCategory::Alloc);
    EXPECT_EQ(corpus().find("nope/nope"), nullptr);
}

TEST(CorpusTest, StandardCorpusMatchesItsDigest) {
    // FNV-1a over every field of every standard case, in corpus order: the
    // id, category label, strategy name, difficulty, buggy source,
    // reference fix and inputs, each string closed by its length. Rendering
    // the corpus from another source must leave it as it is.
    std::uint64_t h = support::fnv1a64("");
    const auto add_text = [&h](std::string_view text) {
        h = support::fnv1a64(text, h);
        h = support::fnv1a64_u64(text.size(), h);
    };
    const auto add_number = [&h](std::uint64_t value) {
        h = support::fnv1a64_u64(value, h);
    };
    for (const UbCase& c : corpus().cases()) {
        add_text(c.id);
        add_text(miri::ub_category_label(c.category));
        add_text(fix_strategy_name(c.intended_strategy));
        add_number(static_cast<std::uint64_t>(c.difficulty));
        add_text(c.buggy_source);
        add_text(c.reference_fix);
        add_number(c.inputs.size());
        for (const std::vector<std::int64_t>& input : c.inputs) {
            add_number(input.size());
            for (std::int64_t value : input) {
                add_number(static_cast<std::uint64_t>(value));
            }
        }
    }
    EXPECT_EQ(corpus().size(), 126u);
    EXPECT_EQ(h, 0x95382B9B0DD5409EULL);
}

TEST(CorpusTest, RendersEveryCorpusShapeRecordThreeTimes) {
    // Each record with corpus tuples is rendered exactly kVariantsPerShape
    // times, under its category and with its metadata; a composition record
    // is never rendered, and the corpus holds nothing else.
    std::set<std::string> names;
    std::size_t corpus_shapes = 0;
    for (const Shape* shape : all_shapes()) {
        EXPECT_TRUE(names.insert(std::string(shape->name)).second)
            << "duplicate shape " << shape->name;
        const bool in_corpus = !shape->corpus.empty();
        if (in_corpus) {
            ++corpus_shapes;
            EXPECT_EQ(shape->corpus.size(),
                      static_cast<std::size_t>(kVariantsPerShape))
                << shape->name;
        }
        const std::string prefix =
            std::string(miri::ub_category_label(shape->category)) + "/" +
            std::string(shape->name) + "_";
        int rendered = 0;
        for (const UbCase& c : corpus().cases()) {
            if (c.id.size() != prefix.size() + 1 ||
                c.id.compare(0, prefix.size(), prefix) != 0) {
                continue;
            }
            ++rendered;
            EXPECT_EQ(c.category, shape->category) << c.id;
            EXPECT_EQ(c.intended_strategy, shape->strategy) << c.id;
            EXPECT_EQ(c.difficulty, shape->difficulty) << c.id;
        }
        EXPECT_EQ(rendered, in_corpus ? kVariantsPerShape : 0) << shape->name;
    }
    EXPECT_EQ(all_shapes().size(), 44u);
    EXPECT_EQ(corpus_shapes, 42u);
    EXPECT_EQ(corpus().size(), corpus_shapes * kVariantsPerShape);
}

TEST(CorpusTest, EveryCaseHasInputs) {
    for (const auto& c : corpus().cases()) {
        EXPECT_FALSE(c.inputs.empty()) << c.id;
    }
}

// The heavyweight validation: parameterized over every case so failures
// name the exact offender.
class CorpusValidation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorpusValidation, BuggyFailsReferencePasses) {
    const UbCase& c = corpus().cases()[GetParam()];
    const auto validations = [&] {
        // Validating one case via the public API would re-run the whole
        // corpus; call MiriLite directly instead.
        miri::MiriLite miri;
        CaseValidation v;
        v.id = c.id;
        const miri::MiriReport buggy = miri.test_source(c.buggy_source, c.inputs);
        v.buggy_fails = !buggy.passed();
        v.category_matches = buggy.has_category(c.category);
        const miri::MiriReport fixed = miri.test_source(c.reference_fix, c.inputs);
        v.reference_passes = fixed.passed();
        if (!v.buggy_fails) v.detail = "buggy program passed";
        if (!v.category_matches) v.detail += " wrong category: " + buggy.summary();
        if (!v.reference_passes) v.detail += " reference failed: " + fixed.summary();
        return v;
    }();
    EXPECT_TRUE(validations.ok())
        << validations.id << ": " << validations.detail << "\n--- buggy\n"
        << c.buggy_source << "\n--- reference\n"
        << c.reference_fix;
}

INSTANTIATE_TEST_SUITE_P(AllCases, CorpusValidation,
                         ::testing::Range<std::size_t>(0, Corpus::standard().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             std::string name =
                                 Corpus::standard().cases()[info.param].id;
                             for (char& c : name) {
                                 if (!std::isalnum(static_cast<unsigned char>(c))) {
                                     c = '_';
                                 }
                             }
                             return name;
                         });

TEST(SemanticTest, ReferenceFixIsAcceptable) {
    const UbCase* c = corpus().find("panic/oob_index_0");
    ASSERT_NE(c, nullptr);
    const SemanticVerdict verdict = judge_semantics(c->reference_fix, *c);
    EXPECT_TRUE(verdict.acceptable()) << verdict.detail;
}

TEST(SemanticTest, BuggySourceIsNotAcceptable) {
    const UbCase* c = corpus().find("panic/oob_index_0");
    ASSERT_NE(c, nullptr);
    const SemanticVerdict verdict = judge_semantics(c->buggy_source, *c);
    EXPECT_FALSE(verdict.acceptable());
    EXPECT_FALSE(verdict.miri_pass);
}

TEST(SemanticTest, PassButWrongSemanticsRejected) {
    // A "fix" that silences the panic by printing a constant passes MiriLite
    // but diverges from the reference trace -> not acceptable.
    const UbCase* c = corpus().find("panic/div_zero_0");
    ASSERT_NE(c, nullptr);
    const std::string lobotomized = R"(fn main() {
    print_int(25);
}
)";
    const SemanticVerdict verdict = judge_semantics(lobotomized, *c);
    EXPECT_TRUE(verdict.miri_pass);
    EXPECT_FALSE(verdict.trace_match);
    EXPECT_FALSE(verdict.acceptable());
}

TEST(SemanticTest, EquivalentRewriteAccepted) {
    // Different shape, same observable behaviour as the reference -> accepted.
    const UbCase* c = corpus().find("panic/div_zero_0");
    ASSERT_NE(c, nullptr);
    const std::string alternative = R"(fn safe_div(total: i64, parts: i64) -> i64 {
    if parts == 0 {
        return 0 - 1;
    }
    return total / parts;
}
fn main() {
    print_int(safe_div(100, input(0)));
}
)";
    const SemanticVerdict verdict = judge_semantics(alternative, *c);
    EXPECT_TRUE(verdict.acceptable()) << verdict.detail;
}

TEST(SemanticTest, UnparseableCandidateRejected) {
    const UbCase* c = corpus().find("alloc/leak_0");
    ASSERT_NE(c, nullptr);
    const SemanticVerdict verdict = judge_semantics("fn main( {", *c);
    EXPECT_FALSE(verdict.acceptable());
}

TEST(CorpusTest, IndexedLookupsMatchLinearScan) {
    // find() and by_category() answer from indexes built at construction;
    // they must agree exactly with a naive scan over cases().
    for (const auto& c : corpus().cases()) {
        const UbCase* found = corpus().find(c.id);
        ASSERT_NE(found, nullptr) << c.id;
        EXPECT_EQ(found, &c) << c.id;
    }
    for (miri::UbCategory category : miri::all_ub_categories()) {
        std::vector<const UbCase*> expected;
        for (const auto& c : corpus().cases()) {
            if (c.category == category) expected.push_back(&c);
        }
        EXPECT_EQ(corpus().by_category(category), expected)
            << miri::ub_category_label(category);
    }
}

TEST(CorpusTest, ConstructFromArbitraryCases) {
    UbCase a;
    a.id = "custom/one";
    a.category = miri::UbCategory::Panic;
    UbCase b;
    b.id = "custom/two";
    b.category = miri::UbCategory::Alloc;
    const Corpus custom(std::vector<UbCase>{a, b});
    EXPECT_EQ(custom.size(), 2u);
    ASSERT_NE(custom.find("custom/two"), nullptr);
    EXPECT_EQ(custom.find("custom/two")->category, miri::UbCategory::Alloc);
    EXPECT_EQ(custom.by_category(miri::UbCategory::Panic).size(), 1u);
    EXPECT_TRUE(custom.by_category(miri::UbCategory::Uninit).empty());
    // Figure order is preserved even for hand-assembled corpora.
    const std::vector<miri::UbCategory> categories = custom.categories();
    ASSERT_EQ(categories.size(), 2u);
    EXPECT_EQ(categories[0], miri::UbCategory::Alloc);
    EXPECT_EQ(categories[1], miri::UbCategory::Panic);
}

TEST(CorpusTest, DuplicateIdsThrowAtConstruction) {
    UbCase a;
    a.id = "dup/same";
    std::vector<UbCase> cases = {a, a};
    EXPECT_THROW(Corpus{std::move(cases)}, std::invalid_argument);
}

TEST(CorpusTest, StrategiesCoverAllThreeFamilies) {
    bool safe = false;
    bool guard = false;
    bool modify = false;
    for (const auto& c : corpus().cases()) {
        switch (c.intended_strategy) {
            case FixStrategy::SafeAlternative: safe = true; break;
            case FixStrategy::AssertionGuard: guard = true; break;
            case FixStrategy::SemanticModification: modify = true; break;
        }
    }
    EXPECT_TRUE(safe);
    EXPECT_TRUE(guard);
    EXPECT_TRUE(modify);
}

}  // namespace
}  // namespace rustbrain::dataset
