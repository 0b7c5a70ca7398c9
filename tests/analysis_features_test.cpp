#include <gtest/gtest.h>

#include <vector>

#include "analysis/ast_edit.hpp"
#include "analysis/features.hpp"
#include "analysis/walk.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"

namespace rustbrain::analysis {
namespace {

lang::Program parse(const std::string& source) {
    auto program = lang::try_parse(source);
    EXPECT_TRUE(program.has_value());
    return program ? std::move(*program) : lang::Program{};
}

TEST(WalkTest, VisitsEveryStatement) {
    const auto program = parse(R"(
fn main() {
    let a = 1;
    if a > 0 {
        while a < 5 { print_int(1); }
    } else {
        unsafe { print_int(2); }
    }
})");
    int statements = 0;
    int unsafe_statements = 0;
    WalkCallbacks callbacks;
    callbacks.on_stmt = [&](const lang::Stmt&, bool in_unsafe) {
        ++statements;
        if (in_unsafe) ++unsafe_statements;
    };
    walk_program(program, callbacks);
    EXPECT_EQ(statements, 6);  // let, if, while, print, unsafe, print
    EXPECT_EQ(unsafe_statements, 1);  // the print inside the unsafe block
}

TEST(WalkTest, UnsafeFnBodyIsUnsafe) {
    const auto program = parse(
        "unsafe fn f() { print_int(1); } fn main() { unsafe { f(); } }");
    int unsafe_statements = 0;
    WalkCallbacks callbacks;
    callbacks.on_stmt = [&](const lang::Stmt&, bool in_unsafe) {
        if (in_unsafe) ++unsafe_statements;
    };
    walk_program(program, callbacks);
    EXPECT_EQ(unsafe_statements, 2);  // print inside unsafe fn, unsafe stmt's body
}

TEST(WalkTest, NamesUsedInUnsafe) {
    const auto program = parse(R"(
fn main() {
    let x = 5;
    let outside = 1;
    let p = &x as *const i32;
    unsafe {
        print_int(*p as i64);
    }
})");
    const auto names = names_used_in_unsafe(program);
    EXPECT_NE(std::find(names.begin(), names.end(), "p"), names.end());
    EXPECT_EQ(std::find(names.begin(), names.end(), "outside"), names.end());
}

TEST(FeaturesTest, CountsShapeSignals) {
    const auto program = parse(R"(
static mut G: i64 = 0;
fn worker() { unsafe { G = G + 1; } }
fn main() {
    unsafe {
        let p = alloc(8, 8);
        let q = offset(p, 1);
        dealloc(p, 8, 8);
    }
    let h = spawn(worker);
    join(h);
})");
    miri::Finding finding;
    finding.category = miri::UbCategory::DataRace;
    const ErrorFeatures features = extract_features(program, finding);
    EXPECT_EQ(features.category, miri::UbCategory::DataRace);
    EXPECT_EQ(features.alloc_calls, 1);
    EXPECT_EQ(features.dealloc_calls, 1);
    EXPECT_EQ(features.offset_calls, 1);
    EXPECT_EQ(features.spawn_calls, 1);
    EXPECT_GE(features.unsafe_blocks, 2);
    EXPECT_GT(features.node_count, 10u);
}

TEST(FeaturesTest, FeedbackKeyStableAndDiscriminative) {
    const auto program_a = parse(
        "fn main() { unsafe { let p = alloc(8, 8); dealloc(p, 8, 8); } }");
    const auto program_b = parse(
        "fn f() { } fn main() { let h = spawn(f); join(h); }");
    miri::Finding alloc_finding;
    alloc_finding.category = miri::UbCategory::Alloc;
    miri::Finding race_finding;
    race_finding.category = miri::UbCategory::DataRace;
    const auto key_a = extract_features(program_a, alloc_finding).feedback_key();
    const auto key_a2 = extract_features(program_a, alloc_finding).feedback_key();
    const auto key_b = extract_features(program_b, race_finding).feedback_key();
    EXPECT_EQ(key_a, key_a2);
    EXPECT_NE(key_a, key_b);
    EXPECT_NE(key_a.find("alloc"), std::string::npos);
}

TEST(AstEditTest, BuildersProduceValidCode) {
    auto program = parse("fn main() { let mut x = 1; }");
    lang::AstArena& arena = program.arena();
    for_each_block(program, [&](lang::Block& block) {
        lang::ExprList args(arena);
        args.push_back(mk_cast(arena, mk_var(arena, "x"), lang::Type::i64()));
        block.statements.push_back(
            mk_expr_stmt(arena, mk_call(arena, "print_int", std::move(args))));
        return true;
    });
    const std::string printed = lang::print_program(program);
    EXPECT_TRUE(lang::try_parse(printed).has_value()) << printed;
    EXPECT_NE(printed.find("print_int(x as i64);"), std::string::npos);
}

TEST(AstEditTest, GuardBuilderShape) {
    lang::Program program;
    lang::AstArena& arena = program.arena();
    lang::Block body(arena);
    body.statements.push_back(mk_print_sentinel(arena));
    auto guard = mk_guard(
        arena, mk_binary(arena, lang::BinaryOp::Lt, mk_var(arena, "i"), mk_int(arena, 4)),
        std::move(body), true);
    EXPECT_EQ(guard->kind, lang::StmtKind::If);
    const auto& node = static_cast<const lang::IfStmt&>(*guard);
    EXPECT_TRUE(node.else_block.has_value());
}

TEST(AstEditTest, RewriteExprsReplacesAllMatches) {
    auto program = parse("fn main() { let a = 1 + 1; let b = 1; }");
    const int count = rewrite_exprs(
        program, [&](const lang::Expr& expr) -> std::optional<lang::ExprPtr> {
            if (expr.kind == lang::ExprKind::IntLit &&
                static_cast<const lang::IntLitExpr&>(expr).value == 1) {
                return mk_int(program.arena(), 2);
            }
            return std::nullopt;
        });
    EXPECT_EQ(count, 3);
    EXPECT_NE(lang::print_program(program).find("2 + 2"), std::string::npos);
}

TEST(AstEditTest, MoveStmtReorders) {
    auto program = parse("fn main() { print_int(1); print_int(2); print_int(3); }");
    for_each_block(program, [](lang::Block& block) {
        move_stmt(block, 2, 0);
        return true;
    });
    const std::string printed = lang::print_program(program);
    EXPECT_LT(printed.find("print_int(3)"), printed.find("print_int(1)"));
}

TEST(AstEditTest, FindLetAndMentions) {
    auto program = parse(R"(
fn main() {
    let target = 5;
    let other = 6;
    print_int(target as i64);
})");
    EXPECT_NE(find_let_by_name(program, "target"), nullptr);
    EXPECT_EQ(find_let_by_name(program, "missing"), nullptr);
    bool found_mention = false;
    for_each_block(program, [&](lang::Block& block) {
        found_mention = stmt_mentions(*block.statements[2], "target");
        return true;
    });
    EXPECT_TRUE(found_mention);
}

TEST(AstEditTest, StmtCallsSeesOnlyADirectCall) {
    // A statement that declares or reads a variable named `join` calls
    // nothing, so reorder_join_before_access must not take it for a join.
    const auto calls_join = [](lang::Program program) {
        std::vector<bool> calls;
        for_each_block(program, [&](lang::Block& block) {
            for (const auto& stmt : block.statements) {
                calls.push_back(stmt_calls(*stmt, "join"));
            }
            return !block.statements.empty();  // main's body
        });
        return calls;
    };
    EXPECT_EQ(calls_join(parse("fn main() { let join = 1; print_int(join); }")),
              (std::vector<bool>{false, false}));
    EXPECT_EQ(calls_join(parse(
                  "fn f() { } fn main() { let h = spawn(f); join(h); }")),
              (std::vector<bool>{false, true}));
}

}  // namespace
}  // namespace rustbrain::analysis
