// Generic const AST traversal with callbacks — the basis for feature
// extraction, pruning and vectorization.
#pragma once

#include <functional>

#include "lang/ast.hpp"

namespace rustbrain::analysis {

struct WalkCallbacks {
    /// Called for every statement (pre-order). `in_unsafe` is true inside
    /// unsafe blocks and unsafe fn bodies.
    std::function<void(const lang::Stmt&, bool in_unsafe)> on_stmt;
    /// Called for every expression (pre-order).
    std::function<void(const lang::Expr&, bool in_unsafe)> on_expr;
};

void walk_program(const lang::Program& program, const WalkCallbacks& callbacks);
void walk_stmt(const lang::Stmt& stmt, const WalkCallbacks& callbacks,
               bool in_unsafe);
void walk_block(const lang::Block& block, const WalkCallbacks& callbacks,
                bool in_unsafe);
void walk_expr(const lang::Expr& expr, const WalkCallbacks& callbacks,
               bool in_unsafe);

/// Names referenced anywhere inside unsafe regions of the program.
std::vector<std::string> names_used_in_unsafe(const lang::Program& program);

}  // namespace rustbrain::analysis
