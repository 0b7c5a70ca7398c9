// FNV-1a digests of everything the front end hands on: try_parse's error
// strings over seeded mutants (lexical and syntax errors mixed, so the order
// the two kinds are reported in is pinned), and for every standard-corpus
// and seed-42 forged program its printed bytes, node ids, spans, and the
// types and Bindings the type checker writes. A change to how the front end
// lexes, parses or allocates must leave every digest as it is.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/typecheck.hpp"
#include "mutation.hpp"
#include "support/rng.hpp"
#include "tree_digest.hpp"

namespace rustbrain::lang {
namespace {

std::vector<std::string> standard_sources() {
    std::vector<std::string> out;
    const dataset::Corpus corpus = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        out.push_back(ub_case.buggy_source);
        out.push_back(ub_case.reference_fix);
    }
    return out;
}

std::vector<std::string> forged_sources() {
    gen::ForgeOptions options;
    options.seed = 42;
    options.count = 560;
    std::vector<std::string> out;
    const dataset::Corpus corpus = gen::forge_corpus(options);
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        out.push_back(ub_case.buggy_source);
        out.push_back(ub_case.reference_fix);
    }
    return out;
}

/// try_parse's verdict: the error string, or the printed program and, when
/// the program parses, type_check's error string.
void add_verdict(Digest& d, const std::string& source) {
    std::string error;
    std::optional<Program> program = try_parse(source, &error);
    if (!program) {
        d.add("E:" + error);
        return;
    }
    d.add("P:" + print_program(*program));
    error.clear();
    d.add(type_check(*program, &error) ? std::string("T") : "X:" + error);
}

TEST(FrontendDigestTest, MutantDiagnosticsMatchTheirDigest) {
    std::vector<std::string> seeds = standard_sources();
    const std::vector<std::string> forged = forged_sources();
    seeds.insert(seeds.end(), forged.begin(), forged.end());
    support::Rng rng(support::derive_seed(1, "frontend-digest"));
    Digest d;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < 3200; ++i) {
        // Alternate standard and forged seeds so both shapes are mutated.
        const std::string& seed = seeds[(i * 7919) % seeds.size()];
        const std::string mutant = mutation::mutate(seed, seeds, rng);
        std::string error;
        rejected += try_parse(mutant, &error) ? 0 : 1;
        add_verdict(d, mutant);
    }
    EXPECT_GT(rejected, 1000u);
    EXPECT_EQ(d.h, 0x1CD8E13A2DF6EA40ULL);
}

TEST(FrontendDigestTest, ErrorStormsMatchTheirDigest) {
    // Sources whose diagnostics cross the parser's 20-error stop, mix late
    // lexical errors with early parse errors, or stop on the nesting cap
    // with lexical errors after it.
    std::vector<std::string> sources = {
        "",
        "// only a comment",
        "/* unterminated",
        "fn main() { let x = 0x; let y = 99999999999999999999999; }",
        "fn main() { let a = 1 } $ $ $",
    };
    std::string late_lexical = "fn main() { }";
    for (int i = 0; i < 30; ++i) late_lexical += " @";
    sources.push_back(late_lexical);
    std::string storm;
    for (int i = 0; i < 25; ++i) storm += "struct X; ";
    sources.push_back(storm);
    std::string early_parse = "fn main() {";
    for (int i = 0; i < 10; ++i) early_parse += " let = ;";
    early_parse += " }";
    for (int i = 0; i < 15; ++i) early_parse += " #";
    sources.push_back(early_parse);
    std::string mixed = "fn main() {";
    for (int i = 0; i < 12; ++i) mixed += " let ~ = 1; print_int(;";
    mixed += " }";
    sources.push_back(mixed);
    std::string deep = "fn main() { let x = ";
    for (int i = 0; i < 300; ++i) deep += "(";
    deep += "1";
    for (int i = 0; i < 300; ++i) deep += ")";
    deep += "; } @ ` /* never closed";
    sources.push_back(deep);
    std::string deep_blocks = "fn main() {";
    for (int i = 0; i < 300; ++i) deep_blocks += " {";
    sources.push_back(deep_blocks + " $");
    Digest d;
    std::size_t storms = 0;
    for (const std::string& source : sources) {
        std::string error;
        try_parse(source, &error);
        storms += std::count(error.begin(), error.end(), '\n') > 20 ? 1 : 0;
        add_verdict(d, source);
    }
    EXPECT_GE(storms, 3u);
    EXPECT_EQ(d.h, 0x68BA1FECAB91C713ULL);
}

TEST(FrontendDigestTest, CorpusTreesMatchTheirDigest) {
    std::vector<std::string> sources = standard_sources();
    const std::vector<std::string> forged = forged_sources();
    sources.insert(sources.end(), forged.begin(), forged.end());
    Digest parsed;
    Digest typed;
    for (const std::string& source : sources) {
        std::string error;
        std::optional<Program> program = try_parse(source, &error);
        ASSERT_TRUE(program.has_value()) << error;
        parsed.add(print_program(*program));
        TreeDigest{parsed, false}.program(*program);
        error.clear();
        typed.add(type_check(*program, &error) ? std::string("T") : "X:" + error);
        TreeDigest{typed, true}.program(*program);
    }
    EXPECT_EQ(parsed.h, 0xCFD8B5576CD4FF8EULL);
    EXPECT_EQ(typed.h, 0x32D400AB14C8FE29ULL);
}

}  // namespace
}  // namespace rustbrain::lang
