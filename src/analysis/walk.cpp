#include "analysis/walk.hpp"

#include <set>

#include "lang/typecheck.hpp"

namespace rustbrain::analysis {

using namespace lang;

void walk_expr(const Expr& expr, const WalkCallbacks& callbacks, bool in_unsafe) {
    if (callbacks.on_expr) callbacks.on_expr(expr, in_unsafe);
    for_each_child(expr, [&](const Expr& child) {
        walk_expr(child, callbacks, in_unsafe);
    });
}

void walk_stmt(const Stmt& stmt, const WalkCallbacks& callbacks, bool in_unsafe) {
    if (callbacks.on_stmt) callbacks.on_stmt(stmt, in_unsafe);
    const bool inner = in_unsafe || stmt.kind == StmtKind::Unsafe;
    for_each_child(stmt, Overload{
        [&](const Expr& child) { walk_expr(child, callbacks, inner); },
        [&](const Block& child) { walk_block(child, callbacks, inner); },
    });
}

void walk_block(const Block& block, const WalkCallbacks& callbacks, bool in_unsafe) {
    for (const auto& stmt : block.statements) {
        walk_stmt(*stmt, callbacks, in_unsafe);
    }
}

void walk_program(const Program& program, const WalkCallbacks& callbacks) {
    for (const auto& item : program.statics) {
        if (item.init) walk_expr(*item.init, callbacks, false);
    }
    for (const auto& fn : program.functions) {
        walk_block(fn.body, callbacks, fn.is_unsafe);
    }
}

std::vector<std::string> names_used_in_unsafe(const Program& program) {
    std::set<std::string> names;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool in_unsafe) {
        if (!in_unsafe) return;
        if (expr.kind == ExprKind::VarRef) {
            names.insert(static_cast<const VarRefExpr&>(expr).name);
        } else if (expr.kind == ExprKind::Call) {
            // Intrinsics (print_int, alloc, ...) are ambient vocabulary, not
            // program context; seeding them would make everything relevant.
            const auto& call = static_cast<const CallExpr&>(expr);
            if (!is_intrinsic(call.callee)) {
                names.insert(call.callee);
            }
        }
    };
    callbacks.on_stmt = [&](const Stmt& stmt, bool in_unsafe) {
        if (in_unsafe && stmt.kind == StmtKind::Let) {
            names.insert(static_cast<const LetStmt&>(stmt).name);
        }
    };
    walk_program(program, callbacks);
    return {names.begin(), names.end()};
}

}  // namespace rustbrain::analysis
