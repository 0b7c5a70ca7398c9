// lang::Type is a pointer-sized handle into a per-Program TypePool
// (DESIGN.md §18). Checked here: every type the hand-written and the
// seed-42 forged corpora name matches the value-type reference
// (type_reference.hpp) in kind, size, alignment, spelling and pairwise
// equality; one structure is one node within a pool; types from two
// pools compare structurally; a clone keeps its types alive after the
// original is gone; clones of one cached program intern concurrently; and
// dropping programs frees their pools, however many distinct types they
// named.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/walk.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/typecheck.hpp"
#include "type_reference.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::lang {
namespace {

lang::Program parse_checked(const std::string& source) {
    std::string error;
    std::optional<Program> program = try_parse(source, &error);
    if (!program) throw std::runtime_error("parse: " + error);
    if (!type_check(*program, &error)) throw std::runtime_error("typecheck: " + error);
    return std::move(*program);
}

/// Every type a checked program names: annotations, signatures, statics
/// and each expression's inferred type, plus all their sub-terms.
std::vector<Type> types_named(const Program& program) {
    std::vector<Type> out;
    std::function<void(const Type&)> add = [&](const Type& type) {
        out.push_back(type);
        switch (type.kind()) {
            case Type::Kind::RawPtr:
            case Type::Kind::Ref:
            case Type::Kind::Array:
                add(type.element());
                break;
            case Type::Kind::FnPtr:
                for (const Type& param : type.fn_params()) add(param);
                add(type.fn_return());
                break;
            case Type::Kind::Scalar:
                break;
        }
    };
    for (const StaticItem& item : program.statics) add(item.type);
    for (const FnItem& fn : program.functions) {
        for (const Param& param : fn.params) add(param.type);
        add(fn.return_type);
    }
    analysis::WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        add(expr.type);
        if (expr.kind == ExprKind::Cast) add(static_cast<const CastExpr&>(expr).target);
    };
    callbacks.on_stmt = [&](const Stmt& stmt, bool) {
        if (stmt.kind != StmtKind::Let) return;
        const auto& let = static_cast<const LetStmt&>(stmt);
        if (let.declared_type) add(*let.declared_type);
    };
    analysis::walk_program(program, callbacks);
    return out;
}

void expect_matches_reference(const std::vector<Type>& types) {
    std::vector<reference::Type> refs;
    refs.reserve(types.size());
    for (const Type& type : types) {
        const reference::Type ref = reference::Type::from(type);
        EXPECT_EQ(type.kind(), ref.kind());
        EXPECT_EQ(type.size_bytes(), ref.size_bytes()) << ref.to_string();
        EXPECT_EQ(type.align_bytes(), ref.align_bytes()) << ref.to_string();
        EXPECT_EQ(type.to_string(), ref.to_string());
        refs.push_back(ref);
    }
    for (std::size_t i = 0; i < types.size(); ++i) {
        for (std::size_t j = 0; j < types.size(); ++j) {
            ASSERT_EQ(types[i] == types[j], refs[i] == refs[j])
                << refs[i].to_string() << " vs " << refs[j].to_string();
        }
    }
}

/// The type-bearing sources of a corpus: every buggy program and fix.
std::vector<std::string> sources_of(const dataset::Corpus& corpus) {
    std::vector<std::string> out;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        out.push_back(ub_case.buggy_source);
        out.push_back(ub_case.reference_fix);
    }
    return out;
}

void expect_corpus_matches_reference(const std::vector<std::string>& sources) {
    std::vector<Program> programs;
    for (const std::string& source : sources) {
        std::optional<Program> program = try_parse(source);
        if (!program || !type_check(*program)) continue;
        programs.push_back(std::move(*program));
    }
    ASSERT_GT(programs.size(), sources.size() / 2);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE(print_program(programs[i]));
        std::vector<Type> types = types_named(programs[i]);
        expect_matches_reference(types);
        // Neighbouring programs own different pools: equality across
        // them must fall back to structure.
        const std::vector<Type> next = types_named(programs[(i + 1) % programs.size()]);
        types.insert(types.end(), next.begin(), next.end());
        expect_matches_reference(types);
    }
}

TEST(LangTypeTest, HandleIsOnePointer) {
    EXPECT_EQ(sizeof(Type), sizeof(void*));
    EXPECT_TRUE(std::is_trivially_copyable_v<Type>);
    EXPECT_TRUE(std::is_trivially_destructible_v<Type>);
}

TEST(LangTypeTest, StandardCorpusTypesMatchTheReference) {
    expect_corpus_matches_reference(sources_of(dataset::Corpus::standard()));
}

TEST(LangTypeTest, ForgedCorpusTypesMatchTheReference) {
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(std::move(oracle_options));
    gen::ForgeOptions options;
    options.seed = 42;
    options.count = 560;
    options.oracle = &oracle;
    const dataset::Corpus corpus = gen::forge_corpus(options);
    ASSERT_EQ(corpus.cases().size(), 560u);
    expect_corpus_matches_reference(sources_of(corpus));
}

TEST(LangTypeTest, ScalarsAreProcessWideAndComposeInAPool) {
    EXPECT_EQ(Type::i32().node(), Type::scalar(ScalarKind::I32).node());
    EXPECT_EQ(Type().node(), Type::unit().node());
    EXPECT_EQ(Type::unit().size_bytes(), 0u);
    EXPECT_EQ(Type::unit().align_bytes(), 1u);
    EXPECT_EQ(Type::unit().to_string(), "()");

    TypePool pool;
    const Type arr = pool.array(Type::i64(), 3);
    const Type fn = pool.fn_ptr({pool.raw_ptr(arr, true), Type::boolean()}, Type::usize());
    EXPECT_EQ(arr.size_bytes(), 24u);
    EXPECT_EQ(arr.align_bytes(), 8u);
    EXPECT_EQ(fn.to_string(), "fn(*mut [i64; 3], bool) -> usize");
    EXPECT_EQ(pool.fn_ptr({}, Type::unit()).to_string(), "fn()");
    EXPECT_THROW((void)Type::i32().element(), std::logic_error);
    EXPECT_THROW((void)arr.fn_params(), std::logic_error);
    EXPECT_THROW((void)fn.element(), std::logic_error);
}

TEST(LangTypeTest, OneStructureIsOneNodeWithinAPool) {
    TypePool pool;
    const Type a = pool.raw_ptr(pool.array(Type::i32(), 4), true);
    const Type b = pool.raw_ptr(pool.array(Type::i32(), 4), true);
    EXPECT_EQ(a.node(), b.node());
    EXPECT_NE(a.node(), pool.raw_ptr(pool.array(Type::i32(), 4), false).node());
    EXPECT_NE(a.node(), pool.reference(pool.array(Type::i32(), 4), true).node());
    EXPECT_NE(a.node(), pool.raw_ptr(pool.array(Type::i32(), 5), true).node());
    const Type f = pool.fn_ptr({Type::i32(), a}, Type::unit());
    EXPECT_EQ(f.node(), pool.fn_ptr({Type::i32(), b}, Type::unit()).node());
    EXPECT_NE(f.node(), pool.fn_ptr({a, Type::i32()}, Type::unit()).node());
    EXPECT_NE(f.node(), pool.fn_ptr({Type::i32(), a}, Type::i32()).node());
    EXPECT_EQ(pool.size(), 9u);

    // A parsed program interns each spelling once, whatever its uses.
    const Program program = parse_checked(R"(fn f(p: *mut i32, q: *mut i32) -> *mut i32 {
    return p;
}
fn main() {
    let x: *mut i32 = 8 as *mut i32;
}
)");
    const Type first = program.functions[0].params[0].type;
    EXPECT_EQ(first.node(), program.functions[0].params[1].type.node());
    EXPECT_EQ(first.node(), program.functions[0].return_type.node());
    const auto& let = static_cast<const LetStmt&>(*program.functions[1].body.statements[0]);
    EXPECT_EQ(first.node(), let.declared_type->node());
    EXPECT_EQ(first.node(), let.init->type.node());
}

TEST(LangTypeTest, TypesFromTwoPoolsCompareByStructure) {
    const std::string source = R"(static mut TABLE: [i64; 4] = [0; 4];
fn apply(f: fn(&mut [i64; 4], i64) -> bool, v: i64) -> bool {
    unsafe {
        return f(&mut TABLE, v);
    }
}
fn store(t: &mut [i64; 4], v: i64) -> bool {
    return v > 0;
}
fn main() {
    let ok = apply(store, 3);
}
)";
    const Program a = parse_checked(source);
    const Program b = parse_checked(source);
    ASSERT_NE(a.type_pool, b.type_pool);
    EXPECT_TRUE(equals(a, b));
    const Type ta = a.functions[0].params[0].type;
    const Type tb = b.functions[0].params[0].type;
    EXPECT_NE(ta.node(), tb.node());
    EXPECT_EQ(ta, tb);
    EXPECT_NE(ta, a.functions[1].params[0].type);
    EXPECT_NE(a.statics[0].type, b.functions[1].params[0].type.element().element());
    EXPECT_EQ(a.statics[0].type, b.functions[1].params[0].type.element());

    // Interning a foreign child re-interns it: no node points across pools.
    TypePool pool;
    const Type adopted = pool.raw_ptr(ta, false);
    EXPECT_EQ(adopted.element(), ta);
    EXPECT_NE(adopted.element().node(), ta.node());
    EXPECT_EQ(adopted.element().node(), pool.fn_ptr(ta.fn_params(), ta.fn_return()).node());
}

TEST(LangTypeTest, AFunctionMatchesItsTypeWithoutInterning) {
    Program program = parse_checked(R"(fn f(a: i32, p: *const u8) -> i64 {
    return 0;
}
fn main() {
}
)");
    const FnItem& f = program.functions[0];
    const std::size_t before = program.types().size();
    EXPECT_EQ(f.fn_type_spelling(), "fn(i32, *const u8) -> i64");
    EXPECT_EQ(program.types().size(), before);
    const Type type = f.fn_type(program.types());
    EXPECT_TRUE(f.has_fn_type(type));
    EXPECT_EQ(type.to_string(), f.fn_type_spelling());
    EXPECT_FALSE(program.functions[1].has_fn_type(type));
    EXPECT_FALSE(f.has_fn_type(Type::i64()));
    EXPECT_FALSE(f.has_fn_type(program.types().fn_ptr({Type::i32()}, Type::i64())));
}

TEST(LangTypeTest, ACloneOutlivesItsOriginal) {
    const std::string source = R"(fn main() {
    let a: [i32; 3] = [1, 2, 3];
    let p = &a as *const [i32; 3];
    unsafe {
        let q: *mut u8 = alloc(16, 8);
        dealloc(q, 16, 8);
    }
}
)";
    std::optional<Program> clone;
    {
        const Program original = parse_checked(source);
        clone = original.clone();
        EXPECT_EQ(clone->type_pool, original.type_pool);
    }
    // The original and its reference to the pool are gone; the clone's
    // nodes are still readable (ASan builds catch a use after free here).
    EXPECT_TRUE(type_check(*clone));
    EXPECT_EQ(print_program(*clone), print_program(parse_checked(source)));
    const auto& let = static_cast<const LetStmt&>(*clone->functions[0].body.statements[1]);
    EXPECT_EQ(let.init->type.to_string(), "*const [i32; 3]");
    EXPECT_EQ(let.init->type.size_bytes(), 8u);
}

TEST(LangTypeTest, ClonesOfOneCachedProgramInternConcurrently) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(std::move(options));
    const std::string source = R"(fn f(p: *mut i64) -> i64 {
    unsafe {
        return *p;
    }
}
fn main() {
    let mut x: i64 = 5;
    let g = f;
    print_int(g(&mut x as *mut i64));
}
)";
    const std::shared_ptr<const verify::CompiledProgram> compiled = oracle.compile(source);
    ASSERT_TRUE(compiled->ok());
    ASSERT_EQ(oracle.compile(source), compiled);  // the cached entry
    const std::size_t before = compiled->program.type_pool->size();

    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 200;
    std::vector<std::vector<Type>> interned(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                Program clone = compiled->program.clone();
                EXPECT_TRUE(type_check(clone));
                // Shared shapes (every thread) and private ones (this one).
                interned[t].push_back(clone.types().raw_ptr(
                    clone.types().array(Type::i64(), i), true));
                interned[t].push_back(clone.types().raw_ptr(
                    clone.types().array(Type::i32(), t * kPerThread + i), false));
                EXPECT_EQ(print_program(clone), print_program(compiled->program));
            }
        });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t t = 1; t < kThreads; ++t) {
        for (std::size_t i = 0; i < interned[t].size(); i += 2) {
            EXPECT_EQ(interned[t][i].node(), interned[0][i].node());
        }
    }
    EXPECT_EQ(compiled->program.type_pool->size(),
              before + 2 * kPerThread + 2 * kThreads * kPerThread);
}

TEST(LangTypeTest, DroppedProgramsFreeTheirPools) {
    const std::size_t baseline = TypePool::live_pools();
    {
        std::vector<Program> programs;
        programs.reserve(10000);
        for (std::uint64_t n = 1; n <= 10000; ++n) {
            const std::string len = std::to_string(n);
            programs.push_back(parse_checked("fn main() {\n    let a: [i32; " + len +
                                             "] = [0; " + len + "];\n}\n"));
            ASSERT_EQ(programs.back().type_pool->size(), 1u);
        }
        EXPECT_EQ(TypePool::live_pools(), baseline + 10000);
    }
    EXPECT_EQ(TypePool::live_pools(), baseline);
}

}  // namespace
}  // namespace rustbrain::lang
