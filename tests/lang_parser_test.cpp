#include "lang/parser.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "lang/typecheck.hpp"
#include "mutation.hpp"
#include "support/rng.hpp"

namespace rustbrain::lang {
namespace {

Program parse_ok(std::string_view source) {
    std::string error;
    auto program = try_parse(source, &error);
    EXPECT_TRUE(program.has_value()) << error;
    return program ? std::move(*program) : Program{};
}

void expect_parse_error(std::string_view source) {
    EXPECT_FALSE(try_parse(source).has_value()) << "source parsed unexpectedly:\n"
                                                << source;
}

TEST(ParserTest, MinimalMain) {
    const auto program = parse_ok("fn main() { }");
    ASSERT_EQ(program.functions.size(), 1u);
    EXPECT_EQ(program.functions[0].name, "main");
    EXPECT_FALSE(program.functions[0].is_unsafe);
    EXPECT_TRUE(program.functions[0].body.statements.empty());
}

TEST(ParserTest, UnsafeFnAndParams) {
    const auto program =
        parse_ok("unsafe fn f(a: i32, b: *mut u8) -> i64 { return 0; } fn main() { }");
    ASSERT_EQ(program.functions.size(), 2u);
    const auto& f = program.functions[0];
    EXPECT_TRUE(f.is_unsafe);
    ASSERT_EQ(f.params.size(), 2u);
    EXPECT_EQ(f.params[0].type, Type::i32());
    TypePool pool;
    EXPECT_EQ(f.params[1].type, pool.raw_ptr(Type::u8(), true));
    EXPECT_EQ(f.return_type, Type::i64());
}

TEST(ParserTest, StaticItems) {
    const auto program =
        parse_ok("static mut COUNTER: i64 = 0;\nstatic LIMIT: i32 = 10;\nfn main() { }");
    ASSERT_EQ(program.statics.size(), 2u);
    EXPECT_TRUE(program.statics[0].is_mut);
    EXPECT_FALSE(program.statics[1].is_mut);
}

TEST(ParserTest, LetForms) {
    const auto program = parse_ok(R"(
fn main() {
    let a = 1;
    let mut b: i64 = 2;
    let c: bool = true;
})");
    const auto& stmts = program.functions[0].body.statements;
    ASSERT_EQ(stmts.size(), 3u);
    const auto& b = static_cast<const LetStmt&>(*stmts[1]);
    EXPECT_TRUE(b.is_mut);
    ASSERT_TRUE(b.declared_type.has_value());
    EXPECT_EQ(*b.declared_type, Type::i64());
}

TEST(ParserTest, PrecedenceMulOverAdd) {
    const auto program = parse_ok("fn main() { let x = 1 + 2 * 3; }");
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    const auto& add = static_cast<const BinaryExpr&>(*let.init);
    EXPECT_EQ(add.op, BinaryOp::Add);
    const auto& mul = static_cast<const BinaryExpr&>(*add.rhs);
    EXPECT_EQ(mul.op, BinaryOp::Mul);
}

TEST(ParserTest, CastBindsTighterThanBinary) {
    const auto program = parse_ok("fn main() { let x = 1 as i64 + 2; }");
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    const auto& add = static_cast<const BinaryExpr&>(*let.init);
    EXPECT_EQ(add.lhs->kind, ExprKind::Cast);
}

TEST(ParserTest, ChainedCasts) {
    const auto program =
        parse_ok("fn main() { let p = 0 as *const i32 as usize; }");
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    const auto& outer = static_cast<const CastExpr&>(*let.init);
    EXPECT_EQ(outer.target, Type::usize());
    EXPECT_EQ(outer.operand->kind, ExprKind::Cast);
}

TEST(ParserTest, UnaryChain) {
    const auto program = parse_ok("fn main() { let mut x = 5; let p = &mut x; let y = -*p; }");
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[2]);
    const auto& neg = static_cast<const UnaryExpr&>(*let.init);
    EXPECT_EQ(neg.op, UnaryOp::Neg);
    EXPECT_EQ(static_cast<const UnaryExpr&>(*neg.operand).op, UnaryOp::Deref);
}

TEST(ParserTest, AddrOfMutVsShared) {
    const auto program = parse_ok("fn main() { let mut x = 1; let a = &x; let b = &mut x; }");
    const auto& a = static_cast<const LetStmt&>(*program.functions[0].body.statements[1]);
    const auto& b = static_cast<const LetStmt&>(*program.functions[0].body.statements[2]);
    EXPECT_EQ(static_cast<const UnaryExpr&>(*a.init).op, UnaryOp::AddrOf);
    EXPECT_EQ(static_cast<const UnaryExpr&>(*b.init).op, UnaryOp::AddrOfMut);
}

TEST(ParserTest, IfElseChain) {
    const auto program = parse_ok(R"(
fn main() {
    let x = 1;
    if x == 1 {
        print_int(1);
    } else if x == 2 {
        print_int(2);
    } else {
        print_int(3);
    }
})");
    const auto& if_stmt = static_cast<const IfStmt&>(*program.functions[0].body.statements[1]);
    ASSERT_TRUE(if_stmt.else_block.has_value());
    // else-if desugars into a nested if inside the else block
    ASSERT_EQ(if_stmt.else_block->statements.size(), 1u);
    EXPECT_EQ(if_stmt.else_block->statements[0]->kind, StmtKind::If);
}

TEST(ParserTest, WhileAndAssignment) {
    const auto program = parse_ok(R"(
fn main() {
    let mut i = 0;
    while i < 10 {
        i = i + 1;
    }
})");
    const auto& loop_stmt =
        static_cast<const WhileStmt&>(*program.functions[0].body.statements[1]);
    ASSERT_EQ(loop_stmt.body.statements.size(), 1u);
    EXPECT_EQ(loop_stmt.body.statements[0]->kind, StmtKind::Assign);
}

TEST(ParserTest, UnsafeBlock) {
    const auto program = parse_ok(R"(
fn main() {
    let x = 5;
    let p = &x as *const i32;
    unsafe {
        print_int(*p as i64);
    }
})");
    EXPECT_EQ(program.functions[0].body.statements[2]->kind, StmtKind::Unsafe);
}

TEST(ParserTest, ArrayTypesAndLiterals) {
    const auto program = parse_ok(R"(
fn main() {
    let a: [i32; 3] = [1, 2, 3];
    let b = [0; 8];
    let x = a[2];
})");
    const auto& a = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    TypePool pool;
    EXPECT_EQ(*a.declared_type, pool.array(Type::i32(), 3));
    const auto& b = static_cast<const LetStmt&>(*program.functions[0].body.statements[1]);
    EXPECT_EQ(b.init->kind, ExprKind::ArrayRepeat);
    const auto& x = static_cast<const LetStmt&>(*program.functions[0].body.statements[2]);
    EXPECT_EQ(x.init->kind, ExprKind::Index);
}

TEST(ParserTest, FnPointerTypeAndBecome) {
    const auto program = parse_ok(R"(
fn helper(x: i32) -> i32 { return x; }
fn dispatch(x: i32) -> i32 {
    let f: fn(i32) -> i32 = helper;
    become helper(x);
}
fn main() { }
)");
    const auto& dispatch = program.functions[1];
    const auto& let = static_cast<const LetStmt&>(*dispatch.body.statements[0]);
    ASSERT_TRUE(let.declared_type.has_value());
    EXPECT_TRUE(let.declared_type->is_fn_ptr());
    EXPECT_EQ(dispatch.body.statements[1]->kind, StmtKind::Become);
}

TEST(ParserTest, IndirectCallThroughParens) {
    const auto program = parse_ok(R"(
fn f() { }
fn main() {
    let g = f;
    (g)();
})");
    const auto& call = static_cast<const ExprStmt&>(*program.functions[1].body.statements[1]);
    EXPECT_EQ(call.expr->kind, ExprKind::CallPtr);
}

TEST(ParserTest, CallsWithArgs) {
    const auto program = parse_ok(R"(
fn add(a: i32, b: i32) -> i32 { return a + b; }
fn main() {
    let s = add(1, add(2, 3));
})");
    const auto& let = static_cast<const LetStmt&>(*program.functions[1].body.statements[0]);
    const auto& call = static_cast<const CallExpr&>(*let.init);
    EXPECT_EQ(call.callee, "add");
    ASSERT_EQ(call.args.size(), 2u);
    EXPECT_EQ(call.args[1]->kind, ExprKind::Call);
}

TEST(ParserTest, NodeIdsAssigned) {
    auto program = parse_ok("fn main() { let x = 1 + 2; }");
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    EXPECT_NE(let.id, kInvalidNodeId);
    EXPECT_NE(let.init->id, kInvalidNodeId);
    EXPECT_GT(program.node_count(), 3u);
}

TEST(ParserTest, ErrorMissingSemicolon) { expect_parse_error("fn main() { let x = 1 }"); }
TEST(ParserTest, ErrorBadItem) { expect_parse_error("struct Foo {} fn main() { }"); }
TEST(ParserTest, ErrorUninitializedLet) { expect_parse_error("fn main() { let x; }"); }
TEST(ParserTest, ErrorRawPtrNeedsQualifier) {
    expect_parse_error("fn f(p: *i32) { } fn main() { }");
}
TEST(ParserTest, ErrorUnclosedBlock) { expect_parse_error("fn main() { let a = 1;"); }
TEST(ParserTest, ErrorEmptyArray) { expect_parse_error("fn main() { let a = []; }"); }

TEST(ParserTest, CloneProducesEqualProgram) {
    const auto program = parse_ok(R"(
static mut G: i64 = 0;
fn f(x: i32) -> i32 { return x * 2; }
fn main() {
    let mut i = 0;
    while i < 3 {
        unsafe { G = G + 1; }
        i = i + 1;
    }
})");
    const Program copy = program.clone();
    EXPECT_TRUE(equals(program, copy));
}

TEST(ParserTest, EqualityDetectsDifference) {
    const auto a = parse_ok("fn main() { let x = 1; }");
    const auto b = parse_ok("fn main() { let x = 2; }");
    EXPECT_FALSE(equals(a, b));
}

/// `fn main() { <head> open^n <leaf> close^n <tail> }` nests n levels in a
/// body that is one level itself: n == kMaxNesting - 1 is at the cap.
struct Shape {
    const char* name;
    const char* head;
    const char* open;
    const char* leaf;
    const char* close;
    const char* tail;

    [[nodiscard]] std::string source(std::size_t n) const {
        std::string out = std::string("fn main() { ") + head;
        for (std::size_t i = 0; i < n; ++i) out += open;
        out += leaf;
        for (std::size_t i = 0; i < n; ++i) out += close;
        return out + tail + " }";
    }
};

TEST(ParserTest, NestingPastTheCapIsAParseError) {
    const Shape shapes[] = {
        {"parens", "let x = ", "(", "1", ")", ";"},
        {"unary", "let x = ", "-", "1", "", ";"},
        {"blocks", "", "{ ", "", "} ", ""},
        {"if chain", "", "if true { } else ", "{ }", "", ""},
        {"binary chain", "let x = ", "", "1", " + 1", ";"},
        {"call chain", "let x = ", "", "f", "(1)", ";"},
        {"index chain", "let x = ", "", "a", "[0]", ";"},
        {"cast chain", "let x = ", "", "1", " as i64", ";"},
    };
    for (const Shape& shape : shapes) {
        SCOPED_TRACE(shape.name);
        parse_ok(shape.source(kMaxNesting - 1));
        std::string error;
        EXPECT_FALSE(try_parse(shape.source(kMaxNesting), &error));
        // One located error, and parsing stops there.
        EXPECT_EQ(error.rfind("error at 1:", 0), 0u) << error;
        EXPECT_NE(error.find("nesting exceeds 256 levels"), std::string::npos)
            << error;
        EXPECT_EQ(error.find('\n'), error.size() - 1) << error;
    }
    // Far past the cap: one error, no stack exhaustion.
    std::string error;
    EXPECT_FALSE(try_parse(shapes[1].source(100'000), &error));
    EXPECT_EQ(error.find('\n'), error.size() - 1) << error;
    EXPECT_FALSE(try_parse(shapes[4].source(10'000), &error));
}

TEST(ParserTest, MutatedProgramsParseOrReportAnError) {
    // Program text is untrusted input: every mutation of a corpus program
    // either parses and typechecks, or is rejected with a diagnosed error
    // string — the front end throws nothing.
    const dataset::Corpus corpus = dataset::Corpus::standard();
    std::vector<std::string> seeds;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        seeds.push_back(ub_case.buggy_source);
        seeds.push_back(ub_case.reference_fix);
    }
    support::Rng rng(support::derive_seed(1, "lang-mutation"));
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        const std::string source =
            mutation::mutate(seeds[i % seeds.size()], seeds, rng);
        try {
            std::string error;
            std::optional<Program> program = try_parse(source, &error);
            if (!program) {
                EXPECT_FALSE(error.empty()) << "iteration " << i;
                continue;
            }
            if (type_check(*program, &error)) {
                ++accepted;
            } else {
                EXPECT_FALSE(error.empty()) << "iteration " << i;
            }
        } catch (const std::exception& error) {
            ADD_FAILURE() << "iteration " << i << " threw: " << error.what();
        }
    }
    EXPECT_GT(accepted, 0u);  // some mutations stay well-formed
}

}  // namespace
}  // namespace rustbrain::lang
