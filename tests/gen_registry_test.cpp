// GeneratorRegistry: the string-id seam of the Corpus Forge — id listing,
// help text, option plumbing, and the unknown-id/option error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "gen/registry.hpp"
#include "miri/finding.hpp"
#include "support/hashing.hpp"

namespace rustbrain::gen {
namespace {

TEST(GeneratorRegistryTest, BuiltinCoversEveryCategoryPlusCompositions) {
    const GeneratorRegistry& registry = GeneratorRegistry::builtin();
    // 14 per-category generators + 2 compositions.
    EXPECT_EQ(registry.ids().size(), 16u);
    for (const char* id :
         {"alloc", "danglingpointer", "panic", "provenance", "uninit",
          "bothborrow", "datarace", "func.call", "func.pointer", "stackborrow",
          "validity", "unaligned", "concurrency", "tailcall",
          "panic-in-borrow", "race-on-dangling"}) {
        EXPECT_TRUE(registry.contains(id)) << id;
        EXPECT_NE(registry.find(id), nullptr) << id;
    }
    EXPECT_FALSE(registry.contains("nope"));
    EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(GeneratorRegistryTest, IdsAreSorted) {
    const std::vector<std::string> ids = GeneratorRegistry::builtin().ids();
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(GeneratorRegistryTest, HelpListsEveryGenerator) {
    const std::string help = GeneratorRegistry::builtin().help();
    for (const std::string& id : GeneratorRegistry::builtin().ids()) {
        EXPECT_NE(help.find(id), std::string::npos) << id;
    }
}

TEST(GeneratorRegistryTest, UnknownIdThrowsListingAvailable) {
    try {
        (void)GeneratorRegistry::builtin().build("no-such-generator");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("no-such-generator"), std::string::npos);
        for (const char* listed : {"alloc", "tailcall", "race-on-dangling"}) {
            EXPECT_NE(message.find(listed), std::string::npos) << listed;
        }
    }
}

TEST(GeneratorRegistryTest, UnknownOptionThrowsListingKnobs) {
    try {
        (void)GeneratorRegistry::builtin().build(
            "panic", support::OptionMap::parse("depht=2"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("depht"), std::string::npos);
        for (const char* knob : {"depth", "padding", "helpers"}) {
            EXPECT_NE(message.find(knob), std::string::npos) << knob;
        }
    }
}

TEST(GeneratorRegistryTest, MalformedOptionValuesThrow) {
    EXPECT_THROW((void)GeneratorRegistry::builtin().build(
                     "alloc", support::OptionMap::parse("depth=two")),
                 std::invalid_argument);
    EXPECT_THROW((void)GeneratorRegistry::builtin().build(
                     "alloc", support::OptionMap::parse("helpers=maybe")),
                 std::invalid_argument);
    EXPECT_THROW((void)GeneratorRegistry::builtin().build(
                     "alloc", support::OptionMap::parse("depth=99")),
                 std::invalid_argument);
    EXPECT_THROW((void)GeneratorRegistry::builtin().build(
                     "alloc", support::OptionMap::parse("padding=-1")),
                 std::invalid_argument);
}

TEST(GeneratorRegistryTest, KnobsReachTheGenerator) {
    const auto generator = GeneratorRegistry::builtin().build(
        "alloc", support::OptionMap::parse("depth=5,padding=1,helpers=off"));
    EXPECT_EQ(generator->knobs().max_nesting, 5);
    EXPECT_EQ(generator->knobs().max_padding, 1);
    EXPECT_FALSE(generator->knobs().helpers);
    EXPECT_EQ(generator->id(), "alloc");
    EXPECT_EQ(generator->category(), miri::UbCategory::Alloc);
}

TEST(GeneratorRegistryTest, BuiltinRowsMatchTheirDigest) {
    // FNV-1a over "id category help" lines of every builtin generator in id
    // order: a renamed id, a moved category or a reworded help line moves it.
    const GeneratorRegistry& registry = GeneratorRegistry::builtin();
    std::string rows;
    for (const std::string& id : registry.ids()) {
        rows += id + " " + miri::ub_category_name(registry.build(id)->category()) +
                " " + registry.find(id)->description + "\n";
    }
    EXPECT_EQ(support::fnv1a64(rows), 0xDE0C4C57AB9EE4B5ULL) << rows;
}

TEST(GeneratorRegistryTest, DuplicateAddThrows) {
    GeneratorRegistry registry;
    registry.add({"x", "first", [](const support::OptionMap&) {
                      return std::unique_ptr<CaseGenerator>();
                  }});
    EXPECT_THROW(registry.add({"x", "second",
                               [](const support::OptionMap&) {
                                   return std::unique_ptr<CaseGenerator>();
                               }}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace rustbrain::gen
