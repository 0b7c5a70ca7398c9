// One arena per program (DESIGN.md §21): every node, child list and name a
// program reaches lies in that program's own arena, whichever pass built
// it; a clone needs nothing of its source; a parse makes a handful of
// allocations rather than one per node, and most programs fit the first
// block it reserves; the token stream is never held whole; and a cached
// program's arena reads safely from several threads at once.
//
// The binary replaces the global operator new with one that counts calls
// and records the largest request while a test asks it to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/prune.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "gen/generator.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "llm/hallucinate.hpp"
#include "llm/rules.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};
std::atomic<std::size_t> g_largest{0};

}  // namespace

void* operator new(std::size_t bytes) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_news.fetch_add(1, std::memory_order_relaxed);
        std::size_t largest = g_largest.load(std::memory_order_relaxed);
        while (bytes > largest && !g_largest.compare_exchange_weak(
                                      largest, bytes, std::memory_order_relaxed)) {
        }
    }
    if (void* memory = std::malloc(bytes == 0 ? 1 : bytes)) return memory;
    throw std::bad_alloc();
}

void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }

namespace rustbrain::lang {
namespace {

/// Counts operator new calls and the largest request while alive.
struct CountNews {
    CountNews() {
        g_news = 0;
        g_largest = 0;
        g_counting = true;
    }
    ~CountNews() { g_counting = false; }
    [[nodiscard]] std::size_t calls() const { return g_news.load(); }
    [[nodiscard]] std::size_t largest() const { return g_largest.load(); }
};

/// Every node, non-empty list and non-empty name reachable from a program,
/// checked against the program's arena; `stray` counts the ones that lie
/// elsewhere.
struct Ownership {
    const AstArena& arena;
    std::size_t checked = 0;
    std::size_t stray = 0;

    void check(const void* pointer) {
        ++checked;
        if (!arena.owns(pointer)) ++stray;
    }
    template <typename List>
    void check_list(const List& list) {
        if (!list.empty()) check(list.data());
    }
    void check_name(Name name) {
        if (!name.empty()) {
            check(name.data());
            check(name.data() + name.size() - 1);
        }
    }
    void operator()(const Expr& expr) {
        check(&expr);
        switch (expr.kind) {
            case ExprKind::VarRef:
                check_name(static_cast<const VarRefExpr&>(expr).name);
                break;
            case ExprKind::Call:
                check_name(static_cast<const CallExpr&>(expr).callee);
                check_list(static_cast<const CallExpr&>(expr).args);
                break;
            case ExprKind::CallPtr:
                check_list(static_cast<const CallPtrExpr&>(expr).args);
                break;
            case ExprKind::ArrayLit:
                check_list(static_cast<const ArrayLitExpr&>(expr).elements);
                break;
            default:
                break;
        }
        for_each_child(expr, *this);
    }
    void operator()(const Stmt& stmt) {
        check(&stmt);
        if (stmt.kind == StmtKind::Let) {
            check_name(static_cast<const LetStmt&>(stmt).name);
        }
        if (stmt.kind == StmtKind::Become) {
            check_list(static_cast<const BecomeStmt&>(stmt).args);
        }
        for_each_child(stmt, *this);
    }
    void operator()(const Block& block) {
        check_list(block.statements);
        for (const auto& stmt : block.statements) (*this)(*stmt);
    }
};

/// The number of nodes, lists and names of `program` outside its arena (0
/// when it owns everything it reaches).
std::size_t strays(const Program& program) {
    Ownership own{program.arena()};
    own.check_list(program.functions);
    own.check_list(program.statics);
    for (const StaticItem& item : program.statics) {
        own.check_name(item.name);
        if (item.init) own(*item.init);
    }
    for (const FnItem& fn : program.functions) {
        own.check_name(fn.name);
        own.check_list(fn.params);
        for (const Param& param : fn.params) own.check_name(param.name);
        own(fn.body);
    }
    EXPECT_GT(own.checked, 0u);
    return own.stray;
}

std::vector<std::string> standard_sources() {
    std::vector<std::string> out;
    const dataset::Corpus corpus = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        out.push_back(ub_case.buggy_source);
        out.push_back(ub_case.reference_fix);
    }
    return out;
}

const std::vector<std::string>& forged_sources() {
    static const std::vector<std::string> sources = [] {
        gen::ForgeOptions options;
        options.seed = 42;
        options.count = 560;
        const dataset::Corpus corpus = gen::forge_corpus(options);
        std::vector<std::string> out;
        for (const dataset::UbCase& ub_case : corpus.cases()) {
            out.push_back(ub_case.buggy_source);
            out.push_back(ub_case.reference_fix);
        }
        return out;
    }();
    return sources;
}

Program parse_ok(const std::string& source) {
    std::string error;
    std::optional<Program> program = try_parse(source, &error);
    EXPECT_TRUE(program.has_value()) << error;
    return program ? std::move(*program) : Program{};
}

// --- ownership ---------------------------------------------------------------

TEST(ArenaTest, ParsedProgramsLiveInTheirOwnArena) {
    std::vector<std::string> sources = standard_sources();
    sources.insert(sources.end(), forged_sources().begin(), forged_sources().end());
    for (const std::string& source : sources) {
        const Program program = parse_ok(source);
        EXPECT_EQ(strays(program), 0u) << source;
    }
}

TEST(ArenaTest, ClonesLiveInTheirOwnArena) {
    for (const std::string& source : standard_sources()) {
        const Program program = parse_ok(source);
        const Program copy = program.clone();
        EXPECT_NE(&copy.arena(), &program.arena());
        EXPECT_EQ(strays(copy), 0u) << source;
        EXPECT_TRUE(equals(copy, program));
        EXPECT_EQ(print_program(copy), print_program(program));
    }
}

TEST(ArenaTest, ACloneOutlivesItsSource) {
    // A clone copies every node, list and name into its own arena, so it
    // reads nothing of the program it came from once that one is gone.
    for (std::size_t i = 0; i < forged_sources().size(); i += 37) {
        std::optional<Program> source = try_parse(forged_sources()[i]);
        ASSERT_TRUE(source.has_value());
        const std::string printed = print_program(*source);
        const Program copy = source->clone();
        source.reset();
        EXPECT_EQ(strays(copy), 0u);
        EXPECT_EQ(print_program(copy), printed);
    }
}

TEST(ArenaTest, MovedProgramsKeepTheirArena) {
    Program program = parse_ok("fn main() { let a = [1, 2, 3]; print_int(a[0]); }");
    const AstArena* arena = &program.arena();
    Program moved = std::move(program);
    EXPECT_EQ(&moved.arena(), arena);
    Program assigned = parse_ok("fn main() { }");
    assigned = std::move(moved);
    EXPECT_EQ(&assigned.arena(), arena);
    EXPECT_EQ(strays(assigned), 0u);
    EXPECT_NE(print_program(assigned).find("print_int(a[0]);"), std::string::npos);
}

TEST(ArenaTest, AnEmptyProgramsArenaGrowsOnFirstUse) {
    // Program(0) is what a parse-error entry of the program cache holds.
    const verify::Oracle oracle;
    const auto failed = oracle.compile("fn main( {");
    ASSERT_EQ(failed->front_end, verify::CompiledProgram::FrontEnd::ParseError);
    EXPECT_TRUE(failed->program.functions.empty());
    EXPECT_EQ(failed->program.arena().bytes_used(), 0u);

    const Program parsed = parse_ok("fn main() { let x = 1; print_int(x + 2); }");
    Program program(0);
    for (const FnItem& fn : parsed.functions) {
        program.functions.push_back(fn.clone(program.arena()));
    }
    EXPECT_GT(program.arena().bytes_used(), 0u);
    EXPECT_EQ(strays(program), 0u);
    EXPECT_TRUE(equals(program, parsed));
}

TEST(ArenaTest, EveryRuleWritesIntoItsProgramsArena) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    std::size_t patched = 0;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        const Program program = parse_ok(ub_case.buggy_source);
        miri::Finding finding;
        finding.category = ub_case.category;
        for (const llm::RepairRule& rule : llm::rule_library()) {
            std::optional<Program> out = rule.apply(program, finding);
            if (!out) continue;
            ++patched;
            EXPECT_EQ(strays(*out), 0u) << rule.id << " on " << ub_case.id;
            EXPECT_NE(&out->arena(), &program.arena());
        }
    }
    EXPECT_GT(patched, 50u);
}

TEST(ArenaTest, GeneratorPlansWriteIntoTheProgramsArena) {
    support::Rng rng(support::derive_seed(1, "arena-plans"));
    const gen::MutationKnobs knobs{3, 4, true};
    std::size_t helpers = 0;
    for (const std::string& source : standard_sources()) {
        Program program = parse_ok(source);
        const gen::detail::MutationPlan plan = gen::detail::sample_plan(rng, knobs);
        gen::detail::apply_plan(program, plan);
        helpers += plan.helper ? 1 : 0;
        EXPECT_EQ(strays(program), 0u) << source;
    }
    EXPECT_GT(helpers, 0u);
}

TEST(ArenaTest, PrunedProgramsLiveInTheirOwnArena) {
    std::vector<std::string> sources = standard_sources();
    sources.insert(sources.end(), forged_sources().begin(), forged_sources().end());
    for (const std::string& source : sources) {
        const Program program = parse_ok(source);
        const Program pruned = analysis::prune_ast(program);
        EXPECT_NE(&pruned.arena(), &program.arena());
        EXPECT_EQ(strays(pruned), 0u) << source;
    }
}

TEST(ArenaTest, HallucinatedEditsWriteIntoTheProgramsArena) {
    // SimLLM's extract_ast and improvised edits: llm::mutate_program on a
    // clone, several edits deep so duplicated statements get duplicated.
    support::Rng rng(support::derive_seed(1, "arena-hallucinate"));
    std::size_t edits = 0;
    for (const std::string& source : standard_sources()) {
        const Program program = parse_ok(source);
        Program noisy = program.clone();
        for (int round = 0; round < 4; ++round) {
            edits += llm::mutate_program(noisy, rng) ? 1 : 0;
        }
        EXPECT_EQ(strays(noisy), 0u) << source;
    }
    EXPECT_GT(edits, 100u);
}

// --- allocation --------------------------------------------------------------

TEST(ArenaTest, AParseMakesAHandfulOfAllocations) {
    // The node-per-allocation front end made 52.7 operator new calls per
    // parse of this corpus. The arena's first block and, for a program
    // that names a composite type, its type pool remain; the parser's
    // child stacks are kept per thread.
    const std::vector<std::string>& sources = forged_sources();
    std::size_t calls = 0;
    {
        const CountNews count;
        for (const std::string& source : sources) {
            std::optional<Program> program = try_parse(source);
            ASSERT_TRUE(program.has_value());
        }
        calls = count.calls();
    }
    const double mean = static_cast<double>(calls) / static_cast<double>(sources.size());
    EXPECT_LE(mean, 13.0);
}

TEST(ArenaTest, MostForgedProgramsFitTheirFirstBlock) {
    // arena_bytes_for() sizes the first block near the median of the bytes
    // a program takes per source byte (DESIGN.md §21): most programs fit
    // it, and on average they use no more than it reserves.
    const std::vector<std::string>& sources = forged_sources();
    std::size_t fit = 0;
    double per_source_byte = 0;
    for (const std::string& source : sources) {
        const Program program = parse_ok(source);
        const std::size_t used = program.arena().bytes_used();
        fit += used <= arena_bytes_for(source.size()) ? 1 : 0;
        per_source_byte += static_cast<double>(used) / static_cast<double>(source.size());
    }
    const double count = static_cast<double>(sources.size());
    EXPECT_GT(static_cast<double>(fit) / count, 0.5);
    EXPECT_LE(per_source_byte / count, static_cast<double>(kArenaBytesPerSourceByte));
}

TEST(ArenaTest, ListsAndBlocksRefuseSizesThatWouldWrap) {
    // A count whose byte size overflows is refused before any arithmetic
    // can wrap it into a small request, as std::vector refuses it.
    Program program(0);
    ExprList list(program.arena());
    EXPECT_THROW(list.reserve(std::size_t{1} << 40), std::length_error);
    EXPECT_THROW(list.reserve(static_cast<std::size_t>(-1)), std::length_error);
    EXPECT_TRUE(list.empty());
    EXPECT_THROW(program.arena().allocate(static_cast<std::size_t>(-1) - 8, 8),
                 std::bad_alloc);
    EXPECT_EQ(program.arena().bytes_used(), 0u);
}

TEST(ArenaTest, NoTokenBufferSpansTheSource) {
    // The parser pulls tokens through a two-token window: nothing it
    // allocates grows with the token count the way a whole-stream buffer
    // (48 bytes per token) would.
    std::string source = "fn main() {\n";
    while (source.size() < (std::size_t{1} << 20) - 2) source += "print_int(1);";
    source += "}\n";
    std::size_t largest = 0;
    {
        const CountNews count;
        std::optional<Program> program = try_parse(source);
        ASSERT_TRUE(program.has_value());
        largest = count.largest();
    }
    EXPECT_LT(largest, source.size());
}

// --- concurrency ---------------------------------------------------------------

TEST(ArenaTest, FourThreadsReadOneCachedProgram) {
    // The program cache hands one CompiledProgram to every thread that
    // compiles its source; reading its arena (printing, cloning, counting)
    // needs no lock.
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(std::move(options));
    const std::string& source = forged_sources()[7];
    const auto compiled = oracle.compile(source);
    ASSERT_TRUE(compiled->ok());
    const std::string expected = print_program(compiled->program);
    const std::uint32_t nodes = compiled->program.node_count();
    std::vector<int> matches(4, 0);
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            for (int i = 0; i < 50; ++i) {
                const auto shared = oracle.compile(source);
                const Program copy = shared->program.clone();
                const bool same = print_program(shared->program) == expected &&
                                  print_program(copy) == expected &&
                                  copy.node_count() == nodes &&
                                  equals(copy, shared->program);
                matches[t] += same ? 1 : 0;
            }
        });
    }
    for (std::thread& reader : readers) reader.join();
    for (int t = 0; t < 4; ++t) EXPECT_EQ(matches[t], 50) << "thread " << t;
}

}  // namespace
}  // namespace rustbrain::lang
