// Corpus serialization: byte-exact round trips over the standard and forged
// corpora, file save/load, and the malformed-input error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"

namespace rustbrain::gen {
namespace {

void expect_cases_equal(const dataset::Corpus& a, const dataset::Corpus& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const dataset::UbCase& x = a.cases()[i];
        const dataset::UbCase& y = b.cases()[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.category, y.category);
        EXPECT_EQ(x.intended_strategy, y.intended_strategy);
        EXPECT_EQ(x.difficulty, y.difficulty);
        EXPECT_EQ(x.inputs, y.inputs);
        EXPECT_EQ(x.buggy_source, y.buggy_source);
        EXPECT_EQ(x.reference_fix, y.reference_fix);
    }
}

TEST(CorpusIoTest, StandardCorpusRoundTripsByteExactly) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    const std::string text = corpus_to_string(corpus);
    const dataset::Corpus reloaded = corpus_from_string(text);
    expect_cases_equal(corpus, reloaded);
    EXPECT_EQ(corpus_to_string(reloaded), text);
}

TEST(CorpusIoTest, ForgedCorpusRoundTripsByteExactly) {
    ForgeOptions options;
    options.seed = 99;
    options.count = 48;
    const dataset::Corpus corpus = forge_corpus(options);
    const std::string text = corpus_to_string(corpus);
    const dataset::Corpus reloaded = corpus_from_string(text);
    expect_cases_equal(corpus, reloaded);
    EXPECT_EQ(corpus_to_string(reloaded), text);
}

TEST(CorpusIoTest, EmptyCorpusRoundTrips) {
    const dataset::Corpus empty(std::vector<dataset::UbCase>{});
    const std::string text = corpus_to_string(empty);
    EXPECT_EQ(corpus_from_string(text).size(), 0u);
}

TEST(CorpusIoTest, SaveThenLoadFileRoundTrips) {
    ForgeOptions options;
    options.seed = 5;
    options.count = 16;
    const dataset::Corpus corpus = forge_corpus(options);
    const std::string path =
        ::testing::TempDir() + "/corpus_io_roundtrip.rbc";
    save_corpus(corpus, path);
    const dataset::Corpus reloaded = load_corpus(path);
    expect_cases_equal(corpus, reloaded);
    EXPECT_EQ(corpus_to_string(reloaded), corpus_to_string(corpus));
    std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadMissingFileThrowsWithPath) {
    try {
        load_corpus("/no/such/dir/corpus.rbc");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("/no/such/dir/corpus.rbc"),
                  std::string::npos);
    }
}

TEST(CorpusIoTest, BadMagicThrows) {
    EXPECT_THROW(corpus_from_string("totally-not-a-corpus v1\ncases 0\n"),
                 std::runtime_error);
}

TEST(CorpusIoTest, UnsupportedVersionThrows) {
    try {
        corpus_from_string("rustbrain-corpus v999\ncases 0\n");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("version"),
                  std::string::npos);
    }
}

TEST(CorpusIoTest, MalformedInputsThrow) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    std::string text = corpus_to_string(corpus);

    // Truncation: cut the file mid-case.
    EXPECT_THROW(corpus_from_string(text.substr(0, text.size() / 2)),
                 std::runtime_error);

    // Unknown category label.
    std::string bad_category = text;
    const std::size_t cat_pos = bad_category.find("category alloc");
    ASSERT_NE(cat_pos, std::string::npos);
    bad_category.replace(cat_pos, 14, "category blorp");
    EXPECT_THROW(corpus_from_string(bad_category), std::runtime_error);

    // Unknown strategy name.
    std::string bad_strategy = text;
    const std::size_t strat_pos = bad_strategy.find("strategy ");
    ASSERT_NE(strat_pos, std::string::npos);
    bad_strategy.insert(strat_pos + 9, "x");
    EXPECT_THROW(corpus_from_string(bad_strategy), std::runtime_error);

    // A wrong byte count desynchronizes the source block.
    std::string bad_count = text;
    const std::size_t buggy_pos = bad_count.find("buggy ");
    ASSERT_NE(buggy_pos, std::string::npos);
    bad_count.insert(buggy_pos + 6, "1");  // inflate the count tenfold
    EXPECT_THROW(corpus_from_string(bad_count), std::runtime_error);

    // Declared case count larger than the actual content.
    std::string bad_cases = text;
    const std::size_t cases_pos = bad_cases.find("cases ");
    ASSERT_NE(cases_pos, std::string::npos);
    bad_cases.insert(cases_pos + 6, "9");
    EXPECT_THROW(corpus_from_string(bad_cases), std::runtime_error);

    // A corrupt header count must be rejected up front, not fed to a
    // vector reservation.
    EXPECT_THROW(
        corpus_from_string("rustbrain-corpus v1\ncases 1099511627776\n"),
        std::runtime_error);

    // A near-UINT64_MAX source byte count must not wrap the bounds check.
    std::string huge_block = text;
    const std::size_t block_pos = huge_block.find("buggy ");
    ASSERT_NE(block_pos, std::string::npos);
    const std::size_t block_end = huge_block.find('\n', block_pos);
    huge_block.replace(block_pos, block_end - block_pos,
                       "buggy 18446744073709551615");
    try {
        corpus_from_string(huge_block);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("runs past end"),
                  std::string::npos)
            << error.what();
    }
}

TEST(CorpusIoTest, OversizedInputLengthIsAFormatError) {
    // An `input <n>` count is untrusted (wire requests embed corpus text),
    // so a count no line could hold must be a located format error, never
    // an allocation sized by it — and load_corpus must keep the path.
    dataset::UbCase ub_case = dataset::Corpus::standard().cases().front();
    ub_case.inputs = {{1}};
    const std::string text = corpus_to_string(dataset::Corpus({ub_case}));
    const std::string line = "\ninput 1 1\n";
    const std::size_t pos = text.find(line);
    ASSERT_NE(pos, std::string::npos);
    const std::string path = ::testing::TempDir() + "/corpus_io_hostile.rbc";
    for (const std::string length : {"1000000000000", "2000000000000000000"}) {
        SCOPED_TRACE(length);
        std::string hostile = text;
        hostile.replace(pos, line.size(), "\ninput " + length + " 1\n");
        try {
            corpus_from_string(hostile);
            FAIL() << "expected std::runtime_error";
        } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find("corpus format error (line"),
                      std::string::npos)
                << error.what();
        }
        std::ofstream(path, std::ios::binary) << hostile;
        try {
            load_corpus(path);
            FAIL() << "expected std::runtime_error";
        } catch (const std::runtime_error& error) {
            EXPECT_EQ(std::string(error.what()).rfind(path + ": corpus format error", 0),
                      0u)
                << error.what();
        }
    }
    std::remove(path.c_str());
}

TEST(CorpusIoTest, UnserializableCasesRejectedAtSaveTime) {
    // What load_corpus would refuse to read must be refused at write time.
    dataset::UbCase newline_id;
    newline_id.id = "bad\nid";
    EXPECT_THROW(corpus_to_string(
                     dataset::Corpus(std::vector<dataset::UbCase>{newline_id})),
                 std::invalid_argument);

    dataset::UbCase bad_difficulty;
    bad_difficulty.id = "bad/difficulty";
    bad_difficulty.difficulty = 0;
    EXPECT_THROW(
        corpus_to_string(
            dataset::Corpus(std::vector<dataset::UbCase>{bad_difficulty})),
        std::invalid_argument);
}

TEST(CorpusIoTest, DuplicateIdsRejected) {
    dataset::UbCase c;
    c.id = "dup/case_0";
    c.category = miri::UbCategory::Panic;
    c.buggy_source = "fn main() {\n}\n";
    c.reference_fix = "fn main() {\n}\n";
    c.inputs = {{}};
    std::vector<dataset::UbCase> twice = {c, c};
    // Both the Corpus constructor and (through it) the loader reject dups.
    EXPECT_THROW(dataset::Corpus{std::move(twice)}, std::invalid_argument);

    const dataset::Corpus single(std::vector<dataset::UbCase>{c});
    std::string text = corpus_to_string(single);
    // Duplicate the whole case block and fix the declared count.
    const std::size_t block = text.find("\ncase ");
    ASSERT_NE(block, std::string::npos);
    text += "\n" + text.substr(block + 1);
    const std::size_t count_pos = text.find("cases 1");
    ASSERT_NE(count_pos, std::string::npos);
    text.replace(count_pos, 7, "cases 2");
    EXPECT_THROW(corpus_from_string(text), std::invalid_argument);
}

TEST(CorpusIoTest, SourcesWithoutTrailingNewlineRoundTrip) {
    // The byte-counted block format must not depend on line conventions.
    dataset::UbCase c;
    c.id = "odd/no_newline";
    c.category = miri::UbCategory::Panic;
    c.buggy_source = "fn main() {\n    print_int(1);\n}";   // no trailing \n
    c.reference_fix = "fn main() {\n    print_int(2);\n}";  // no trailing \n
    c.inputs = {{1, 2}, {}};
    c.difficulty = 3;
    c.intended_strategy = dataset::FixStrategy::AssertionGuard;
    const dataset::Corpus corpus(std::vector<dataset::UbCase>{c});
    const dataset::Corpus reloaded =
        corpus_from_string(corpus_to_string(corpus));
    expect_cases_equal(corpus, reloaded);
}

}  // namespace
}  // namespace rustbrain::gen
