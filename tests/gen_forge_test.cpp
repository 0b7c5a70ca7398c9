// Corpus Forge: generator determinism, validity of everything forged, knob
// behavior, and end-to-end BatchRunner sweeps over generated corpora.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/shape.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "gen/generator.hpp"
#include "gen/registry.hpp"
#include "gen/shape_template.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/typecheck.hpp"
#include "support/hashing.hpp"
#include "support/rng.hpp"
#include "tree_digest.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::gen {
namespace {

ForgeOptions small_forge(std::uint64_t seed, std::size_t count) {
    ForgeOptions options;
    options.seed = seed;
    options.count = count;
    return options;
}

TEST(ForgeTest, FillTemplateReplacesDigitPlaceholders) {
    using dataset::fill_template;
    const std::vector<std::string> args = {"X", "Y"};
    EXPECT_EQ(fill_template("a$0b$1c", args), "aXbYc");
    // Unknown indices, a `$` before a non-digit and a trailing `$` stay.
    EXPECT_EQ(fill_template("$9 $$0 $", args), "$9 $X $");
    EXPECT_EQ(fill_template("$1$0$1", args), "YXY");
    EXPECT_EQ(fill_template("", args), "");
}

TEST(ForgeTest, SameSeedIsByteIdentical) {
    const dataset::Corpus first = forge_corpus(small_forge(42, 64));
    const dataset::Corpus second = forge_corpus(small_forge(42, 64));
    EXPECT_EQ(corpus_to_string(first), corpus_to_string(second));
}

TEST(ForgeTest, ForgedCorporaMatchTheirDigests) {
    // FNV-1a over the raw corpus_to_string bytes of the 560-case forges at
    // seeds 7 and 42. Unlike a parse-and-print golden, it moves on any byte
    // a generator template drifts by, whitespace included.
    const std::pair<std::uint64_t, std::uint64_t> goldens[] = {
        {7, 0x5902F4B1446F2F1DULL}, {42, 0x945D09E2F6AC1D0EULL}};
    for (const auto& [seed, golden] : goldens) {
        const std::string text = corpus_to_string(forge_corpus(small_forge(seed, 560)));
        EXPECT_EQ(support::fnv1a64(text), golden) << "seed " << seed;
    }
}

TEST(ForgeTest, DifferentSeedsProduceDistinctIdsAndContent) {
    const dataset::Corpus a = forge_corpus(small_forge(1, 32));
    const dataset::Corpus b = forge_corpus(small_forge(2, 32));
    ASSERT_EQ(a.size(), b.size());
    std::set<std::string> ids_a;
    for (const auto& c : a.cases()) ids_a.insert(c.id);
    for (const auto& c : b.cases()) {
        EXPECT_EQ(ids_a.count(c.id), 0u) << "seed-colliding id " << c.id;
    }
    EXPECT_NE(corpus_to_string(a), corpus_to_string(b));
}

TEST(ForgeTest, EveryForgedCaseValidates) {
    // One case per generator x4 — then hold the result to the standard
    // corpus's own bar, independently of the forge's internal sampling.
    const dataset::Corpus corpus = forge_corpus(small_forge(7, 64));
    EXPECT_EQ(corpus.size(), 64u);
    for (const dataset::CaseValidation& v : dataset::validate_corpus(corpus)) {
        EXPECT_TRUE(v.ok()) << v.id << ": " << v.detail;
    }
}

TEST(ForgeTest, ForgedCasesParseAndTypecheck) {
    const dataset::Corpus corpus = forge_corpus(small_forge(11, 32));
    for (const auto& c : corpus.cases()) {
        auto buggy = lang::try_parse(c.buggy_source);
        ASSERT_TRUE(buggy.has_value()) << c.id;
        EXPECT_TRUE(lang::type_check(*buggy)) << c.id;
        auto fix = lang::try_parse(c.reference_fix);
        ASSERT_TRUE(fix.has_value()) << c.id;
        EXPECT_TRUE(lang::type_check(*fix)) << c.id;
    }
}

TEST(ForgeTest, CoversEveryBuiltinGeneratorAndCategory) {
    ForgeOptions options = small_forge(3, 2 * 16);
    ForgeStats stats;
    const dataset::Corpus corpus = forge_corpus(options, &stats);
    // Round-robin over 16 generators: two cases each.
    EXPECT_EQ(stats.accepted_by_generator.size(),
              GeneratorRegistry::builtin().ids().size());
    for (const auto& [id, accepted] : stats.accepted_by_generator) {
        EXPECT_EQ(accepted, 2u) << id;
    }
    // All 14 UB categories appear (compositions fold into panic/dangling).
    EXPECT_EQ(corpus.categories().size(), 14u);
}

TEST(ForgeTest, GeneratorSubsetAndDeclaredCategories) {
    for (const std::string& id : GeneratorRegistry::builtin().ids()) {
        ForgeOptions options = small_forge(13, 3);
        options.generators = {id};
        const dataset::Corpus corpus = forge_corpus(options);
        ASSERT_EQ(corpus.size(), 3u) << id;
        const auto generator = GeneratorRegistry::builtin().build(id);
        for (const auto& c : corpus.cases()) {
            EXPECT_EQ(c.category, generator->category()) << c.id;
            EXPECT_EQ(c.id.rfind("gen/" + id + "/", 0), 0u) << c.id;
        }
    }
}

TEST(ForgeTest, MutationKnobsRespected) {
    // depth=0,padding=0,helpers=off must forge plain programs: no pads, no
    // helper functions. (Nesting is hard to assert textually; pads and
    // helpers have reserved name prefixes.)
    ForgeOptions options = small_forge(5, 32);
    options.generator_options = support::OptionMap::parse(
        "depth=0,padding=0,helpers=off");
    const dataset::Corpus plain = forge_corpus(options);
    const std::string text = corpus_to_string(plain);
    EXPECT_EQ(text.find("pad_"), std::string::npos);
    EXPECT_EQ(text.find("unused_"), std::string::npos);

    // The default knobs do produce structural mutations somewhere in a
    // decent sample.
    const dataset::Corpus mutated = forge_corpus(small_forge(5, 32));
    const std::string mutated_text = corpus_to_string(mutated);
    EXPECT_NE(mutated_text.find("pad_"), std::string::npos);
    EXPECT_NE(mutated_text.find("unused_"), std::string::npos);
}

TEST(ForgeTest, UnknownGeneratorIdThrows) {
    ForgeOptions options = small_forge(1, 4);
    options.generators = {"no-such-generator"};
    try {
        forge_corpus(options);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("no-such-generator"), std::string::npos);
        EXPECT_NE(message.find("alloc"), std::string::npos);  // lists options
    }
}

TEST(ForgeTest, UnknownGeneratorOptionThrows) {
    ForgeOptions options = small_forge(1, 4);
    options.generator_options = support::OptionMap::parse("nesting=3");
    try {
        forge_corpus(options);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("nesting"), std::string::npos);
        EXPECT_NE(message.find("depth"), std::string::npos);  // lists knobs
    }
}

TEST(ForgeTest, KnowledgeBaseSeedsFromForgedCorpus) {
    const dataset::Corpus corpus = forge_corpus(small_forge(21, 48));
    kb::KnowledgeBase kbase;
    const kb::SeedStats stats = kb::seed_from_corpus(corpus, kbase);
    EXPECT_EQ(stats.cases_processed, 48u);
    EXPECT_GT(stats.entries_added, 0u);
    EXPECT_GT(stats.rules_verified, 0u);
}

TEST(ForgeTest, EveryRegistryEngineSweepsAForgedCorpus) {
    const dataset::Corpus corpus = forge_corpus(small_forge(42, 32));
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(corpus, kbase);
    core::EngineBuildContext context;
    context.knowledge_base = &kbase;
    for (const std::string& id : core::EngineRegistry::builtin().ids()) {
        const core::BatchRunner runner(id, core::EngineOptions{}, context);
        const core::BatchReport report = runner.run(corpus);
        ASSERT_EQ(report.results.size(), corpus.size()) << id;
        EXPECT_GT(report.pass_total(), 0) << id;
        for (std::size_t i = 0; i < report.results.size(); ++i) {
            EXPECT_EQ(report.results[i].case_id, corpus.cases()[i].id) << id;
        }
    }
}

TEST(ForgeTest, ThousandCaseCorpusRunsThroughBatchRunner) {
    // The scale target from the roadmap: a 1000-case generated corpus,
    // end to end through the parallel BatchRunner. The expert engine keeps
    // the virtual-repair cost deterministic and the wall clock tame.
    const dataset::Corpus corpus = forge_corpus(small_forge(1000, 1000));
    ASSERT_EQ(corpus.size(), 1000u);
    const core::BatchRunner runner("expert", core::EngineOptions{},
                                   core::EngineBuildContext{});
    const core::BatchReport report = runner.run(corpus);
    ASSERT_EQ(report.results.size(), 1000u);
    EXPECT_EQ(report.pass_total(), 1000);  // the expert always succeeds
}

TEST(ForgeTest, ZeroCountYieldsEmptyCorpus) {
    const dataset::Corpus corpus = forge_corpus(small_forge(1, 0));
    EXPECT_EQ(corpus.size(), 0u);
    // Validation is not short-circuited by an empty request...
    ForgeOptions bad = small_forge(1, 0);
    bad.generators = {"no-such-generator"};
    EXPECT_THROW(forge_corpus(bad), std::invalid_argument);
    // ...and caller-provided stats are reset, not left stale.
    ForgeStats stats;
    forge_corpus(small_forge(1, 8), &stats);
    EXPECT_EQ(stats.accepted(), 8u);
    forge_corpus(small_forge(1, 0), &stats);
    EXPECT_EQ(stats.accepted(), 0u);
    EXPECT_EQ(stats.attempts, 0u);
}

TEST(GeneratorTest, GenerateIsPureInItsRng) {
    const auto generator = GeneratorRegistry::builtin().build("alloc");
    support::Rng a(123);
    support::Rng b(123);
    const dataset::UbCase first = generator->generate_parsed(a).value;
    const dataset::UbCase second = generator->generate_parsed(b).value;
    EXPECT_EQ(first.id, second.id);
    EXPECT_EQ(first.buggy_source, second.buggy_source);
    EXPECT_EQ(first.reference_fix, second.reference_fix);
    EXPECT_EQ(first.inputs, second.inputs);
    EXPECT_EQ(first.difficulty, second.difficulty);
}

TEST(GeneratorTest, EveryBuiltinGeneratorDrawsEachOfItsShapes) {
    // Over a fixed seed range, each builtin generator draws only records of
    // its own category, no two generators draw the same record, and
    // together they draw every record: none is unreachable, and no
    // generator draws a shape that has no record.
    std::map<std::string, const dataset::Shape*> records;
    for (const dataset::Shape* shape : dataset::all_shapes()) {
        records.emplace(std::string(shape->name), shape);
    }
    const GeneratorRegistry& registry = GeneratorRegistry::builtin();
    ASSERT_EQ(registry.ids().size(), 16u);
    std::map<std::string, std::string> drawn_by;  // shape -> generator id
    for (const std::string& id : registry.ids()) {
        const auto generator = registry.build(id);
        std::set<std::string> drawn;
        for (std::uint64_t seed = 0; seed < 64; ++seed) {
            support::Rng rng(seed);
            drawn.insert(generator->generate_parsed(rng).value.id);
        }
        for (const std::string& shape : drawn) {
            const auto record = records.find(shape);
            ASSERT_NE(record, records.end()) << id << " drew " << shape;
            EXPECT_EQ(record->second->category, generator->category())
                << id << " drew " << shape;
            const auto [owner, fresh] = drawn_by.emplace(shape, id);
            EXPECT_TRUE(fresh) << shape << " is drawn by " << owner->second
                               << " and " << id;
        }
    }
    EXPECT_EQ(drawn_by.size(), records.size());
    for (const auto& [shape, record] : records) {
        EXPECT_EQ(drawn_by.count(shape), 1u) << "no generator draws " << shape;
    }
}

/// Every byte of a report: the outputs, the steps, and each finding's
/// category, message and span.
std::string render_report(const miri::MiriReport& report) {
    std::string out = "steps " + std::to_string(report.total_steps) + "\n";
    for (const auto& run : report.outputs) {
        out += "run";
        for (const std::string& line : run) out += " [" + line + "]";
        out += "\n";
    }
    for (const miri::Finding& finding : report.findings) {
        out += std::string(miri::ub_category_name(finding.category)) + " " +
               std::to_string(finding.span.begin) + "-" +
               std::to_string(finding.span.end) + " " + finding.span.to_string() +
               " " + finding.message + "\n";
    }
    return out;
}

/// True when `handed`'s kinds, ids and spans equal those of
/// try_parse(source), and it prints back to `source`.
::testing::AssertionResult matches_its_parse(const lang::Program& handed,
                                             const std::string& source) {
    const std::optional<lang::Program> parsed = lang::try_parse(source);
    if (!parsed) return ::testing::AssertionFailure() << "source does not parse";
    if (lang::tree_digest(handed) != lang::tree_digest(*parsed)) {
        return ::testing::AssertionFailure() << "tree digests differ";
    }
    if (!lang::equals(handed, *parsed) || lang::print_program(handed) != source) {
        return ::testing::AssertionFailure() << "structure or text differs";
    }
    return ::testing::AssertionSuccess();
}

TEST(ForgeTest, HandedProgramsMatchTheParseOfTheirSources) {
    // Replays the forge's attempts (one Rng per generator, serial and
    // attempt) up to each accepted case, and checks every program
    // generate_parsed hands over against a parse of its source.
    const GeneratorRegistry& registry = GeneratorRegistry::builtin();
    const std::vector<std::string> ids = registry.ids();
    std::vector<std::unique_ptr<CaseGenerator>> generators;
    for (const std::string& id : ids) generators.push_back(registry.build(id));
    for (const std::uint64_t seed : {7u, 42u}) {
        const dataset::Corpus corpus = forge_corpus(small_forge(seed, 560));
        std::size_t handed = 0;
        std::size_t attempts = 0;
        for (std::size_t serial = 0; serial < corpus.size(); ++serial) {
            const CaseGenerator& generator = *generators[serial % generators.size()];
            const dataset::UbCase& accepted = corpus.cases()[serial];
            bool found = false;
            for (int attempt = 0; attempt < 64 && !found; ++attempt) {
                const std::uint64_t stream = support::derive_seed(
                    seed, generator.id() + "/" + std::to_string(serial) + "/" +
                              std::to_string(attempt));
                support::Rng rng(stream);
                const CaseGenerator::Parsed parsed = generator.generate_parsed(rng);
                EXPECT_TRUE(matches_its_parse(parsed.buggy_program,
                                              parsed.value.buggy_source))
                    << "seed " << seed << " slot " << serial << " attempt " << attempt;
                EXPECT_TRUE(matches_its_parse(parsed.fix_program,
                                              parsed.value.reference_fix))
                    << "seed " << seed << " slot " << serial << " attempt " << attempt;
                for (const lang::Program* program :
                     {&parsed.buggy_program, &parsed.fix_program}) {
                    handed += program->find_function("main") != nullptr ? 1 : 0;
                }
                ++attempts;
                found = parsed.value.buggy_source == accepted.buggy_source &&
                        parsed.value.reference_fix == accepted.reference_fix;
            }
            ASSERT_TRUE(found) << "seed " << seed << " slot " << serial;
        }
        EXPECT_GE(attempts, corpus.size()) << "seed " << seed;
        EXPECT_EQ(handed, 2 * attempts) << "seed " << seed;
    }
}

TEST(ForgeTest, InstantiatedProgramsMatchTheParseOfTheirText) {
    // Every shape at its standard-corpus arguments, and 500 seeded drafts
    // per builtin generator, under the default knobs and the largest ones:
    // each program a case is built with must equal try_parse of its
    // printed text in tree digest, structure and printed bytes.
    const GeneratorRegistry& registry = GeneratorRegistry::builtin();
    for (const char* spec : {"", "depth=16,padding=16,helpers=on"}) {
        const support::OptionMap options = support::OptionMap::parse(spec);
        const MutationKnobs knobs = resolve_knobs(options);
        const auto check = [&](const CaseGenerator::Parsed& parsed, const std::string& what) {
            EXPECT_TRUE(matches_its_parse(parsed.buggy_program, parsed.value.buggy_source))
                << what << " (buggy, knobs '" << spec << "')";
            EXPECT_TRUE(matches_its_parse(parsed.fix_program, parsed.value.reference_fix))
                << what << " (fix, knobs '" << spec << "')";
        };
        std::size_t renderings = 0;
        for (const dataset::Shape* shape : dataset::all_shapes()) {
            for (std::size_t variant = 0; variant < shape->corpus.size(); ++variant) {
                const std::string what = std::string(shape->name) + " variant " +
                                         std::to_string(variant);
                support::Rng rng(support::derive_seed(1, what));
                const dataset::ShapeArgs& args = shape->corpus[variant];
                check(detail::build_case(Draft{shape, args.args, args.inputs},
                                         detail::sample_plan(rng, knobs)),
                      what);
                ++renderings;
            }
        }
        EXPECT_EQ(renderings, 42u * dataset::kVariantsPerShape);
        for (const std::string& id : registry.ids()) {
            const auto generator = registry.build(id, options);
            for (std::uint64_t seed = 0; seed < 500; ++seed) {
                support::Rng rng(seed);
                check(generator->generate_parsed(rng), id + " seed " + std::to_string(seed));
            }
        }
    }
}

TEST(ForgeTest, ArgumentsOfTheWrongKindThrowLogicError) {
    const dataset::Shape& shape = dataset::shapes::double_free();
    ASSERT_EQ(shape.holes, "nii");
    EXPECT_NO_THROW(instantiate(shape, {"p", "8", "41"}));
    const std::vector<std::vector<std::string>> mismatched = {
        {"8", "8", "41"},                     // an integer for a name
        {"p", "q", "41"},                     // a name for an integer
        {"fn", "8", "41"},                    // a keyword for a name
        {"p q", "8", "41"},                   // two tokens
        {"p", "-8", "41"},                    // a negative integer
        {"p", "0x8", "41"},                   // not decimal
        {"p", "18446744073709551616", "41"},  // past u64
        {"p", "", "41"},
        {"p", "8"},                           // one argument short
        {"p", "8", "41", "4"},                // one too many
    };
    for (const std::vector<std::string>& args : mismatched) {
        EXPECT_THROW(instantiate(shape, args), std::logic_error) << args[0] << " " << args[1];
    }
    // Through the generator's path too, before any program is built.
    EXPECT_THROW(detail::build_case(Draft{&shape, {"8", "8", "41"}}, detail::MutationPlan{}),
                 std::logic_error);
    // A copy of a record is not one of the records.
    const dataset::Shape stray = shape;
    EXPECT_THROW(instantiate(stray, {"p", "8", "41"}), std::logic_error);
}

TEST(ForgeTest, TemplatesWithAHoleOutOfPlaceThrowLogicError) {
    dataset::Shape shape = dataset::shapes::double_free();  // holes "nii"
    const auto builds = [&](std::string_view templ) {
        return gen::detail::parse_holed(shape, templ).find_function("main") != nullptr;
    };
    EXPECT_TRUE(builds("fn main() { let $0: [u8; $1] = [$2; $1]; print_int($0[0] as i64); }"));
    EXPECT_TRUE(builds("static mut $0: i64 = $1; fn main() { $0(); }"));
    const char* misplaced[] = {
        "fn main() { let x$0 = 1; }",         // joined to a name
        "fn main() { let $0x = 1; }",
        "fn main() { let x = 1$1; }",         // joined to an integer
        "fn main() { let x = 1; } // $0",     // in a comment
        "fn main() { let $1 = 1; }",          // an integer hole as a name
        "fn main() { let x: [u8; $0] = 0; }", // a name hole as a length
        "fn main() { let x = $9; }",          // past the shape's holes
        "fn main() { let x = __hole1; }",     // a stand-in of the wrong kind
        "fn main( { }",                       // does not parse
    };
    for (const char* templ : misplaced) {
        EXPECT_THROW(gen::detail::parse_holed(shape, templ), std::logic_error) << templ;
    }
    shape.holes = "nx";
    EXPECT_THROW(gen::detail::parse_holed(shape, "fn main() { }"), std::logic_error);
}

TEST(ForgeTest, ConcurrentForgesShareTheTemplates) {
    // Four threads forge seed 42 at once, the first of them building the
    // templates, each through its own Oracle; every corpus must equal a
    // serial forge byte for byte.
    std::vector<std::string> forged(4);
    std::vector<std::thread> threads;
    for (std::string& text : forged) {
        threads.emplace_back([&text] {
            verify::OracleOptions oracle_options;
            oracle_options.cache = std::make_shared<verify::VerifyCache>();
            const verify::Oracle oracle(oracle_options);
            ForgeOptions options = small_forge(42, 560);
            options.oracle = &oracle;
            text = corpus_to_string(forge_corpus(options));
        });
    }
    for (std::thread& thread : threads) thread.join();
    const std::string serial = corpus_to_string(forge_corpus(small_forge(42, 560)));
    for (const std::string& text : forged) EXPECT_EQ(text, serial);
}

TEST(ForgeTest, HandedProgramsReportLikeAParse) {
    // A cached Oracle that the forge fed the printed programs answers
    // every forged case byte for byte, finding spans included, like an
    // uncached Oracle that parses each source.
    for (const std::uint64_t seed : {7u, 42u}) {
        verify::OracleOptions fed_options;
        fed_options.cache = std::make_shared<verify::VerifyCache>();
        const verify::Oracle fed(fed_options);
        verify::OracleOptions parsing_options;
        parsing_options.caching = false;
        const verify::Oracle parsing(parsing_options);
        ForgeOptions options = small_forge(seed, 560);
        options.oracle = &fed;
        const dataset::Corpus corpus = forge_corpus(options);
        ASSERT_EQ(corpus.size(), 560u);
        for (const dataset::UbCase& ub_case : corpus.cases()) {
            for (const std::string* source : {&ub_case.buggy_source, &ub_case.reference_fix}) {
                verify::VerifyOutcome outcome;
                const std::string handed =
                    render_report(fed.test_source(*source, ub_case.inputs, &outcome));
                EXPECT_TRUE(outcome.program_cached) << ub_case.id;
                EXPECT_EQ(handed, render_report(parsing.test_source(*source, ub_case.inputs)))
                    << ub_case.id;
            }
        }
    }
}

}  // namespace
}  // namespace rustbrain::gen
