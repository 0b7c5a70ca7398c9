// AST construction & surgery toolkit used by the repair-rule library and the
// hallucination injector: concise node builders, expression rewriting, and
// block-level statement manipulation across nested blocks.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "lang/ast.hpp"

namespace rustbrain::analysis {

// --- node builders -----------------------------------------------------
//
// Each builder makes its nodes in `arena`, the arena of the program the
// nodes will join (DESIGN.md §21); `args` and blocks must come from it too.

lang::ExprPtr mk_int(lang::AstArena& arena, std::uint64_t value);
lang::ExprPtr mk_var(lang::AstArena& arena, std::string_view name);
lang::ExprPtr mk_unary(lang::AstArena& arena, lang::UnaryOp op, lang::ExprPtr operand);
lang::ExprPtr mk_binary(lang::AstArena& arena, lang::BinaryOp op, lang::ExprPtr lhs,
                        lang::ExprPtr rhs);
lang::ExprPtr mk_cast(lang::AstArena& arena, lang::ExprPtr operand, lang::Type target);
lang::ExprPtr mk_call(lang::AstArena& arena, std::string_view callee,
                      lang::ExprList args);

lang::StmtPtr mk_let(lang::AstArena& arena, std::string_view name, bool is_mut,
                     lang::ExprPtr init,
                     std::optional<lang::Type> declared = std::nullopt);
lang::StmtPtr mk_assign(lang::AstArena& arena, lang::ExprPtr place, lang::ExprPtr value);
lang::StmtPtr mk_expr_stmt(lang::AstArena& arena, lang::ExprPtr expr);
lang::StmtPtr mk_return(lang::AstArena& arena, lang::ExprPtr value);
/// `if cond { then } else { print_int(0 - 1); }` — the corpus's guard idiom.
lang::StmtPtr mk_guard(lang::AstArena& arena, lang::ExprPtr cond, lang::Block then_block,
                       bool with_sentinel_else);
/// print_int(0 - 1) — the sentinel the corpus prints on guarded paths.
lang::StmtPtr mk_print_sentinel(lang::AstArena& arena);

// --- traversal / rewriting -------------------------------------------------

/// Apply `fn` to every block of the program (function bodies and all nested
/// blocks), pre-order. Stop after the first invocation that returns true.
/// Returns whether any invocation returned true.
bool for_each_block(lang::Program& program,
                    const std::function<bool(lang::Block&)>& fn);

/// Rewrite expressions everywhere: `fn` is offered each expression (outermost
/// first); returning a replacement substitutes that subtree and skips its
/// children. Returns the number of substitutions performed.
int rewrite_exprs(
    lang::Program& program,
    const std::function<std::optional<lang::ExprPtr>(const lang::Expr&)>& fn);
int rewrite_exprs_in_block(
    lang::Block& block,
    const std::function<std::optional<lang::ExprPtr>(const lang::Expr&)>& fn);

// --- queries -----------------------------------------------------------

/// Index of the first statement in `block` matching `pred`, or -1.
int find_stmt(const lang::Block& block,
              const std::function<bool(const lang::Stmt&)>& pred,
              int start_index = 0);

/// The LetStmt declaring `name` anywhere in the program, or nullptr.
const lang::LetStmt* find_let_by_name(const lang::Program& program,
                                      std::string_view name);

/// True if the statement mentions variable `name` anywhere.
bool stmt_mentions(const lang::Stmt& stmt, std::string_view name);

/// True if the expr (sub)tree contains a direct call to `callee`.
bool stmt_calls(const lang::Stmt& stmt, std::string_view callee);

/// Move the statement at `from` so it ends up at index `to` (indices within
/// the same block, interpreted before removal). Returns false on bad input.
bool move_stmt(lang::Block& block, std::size_t from, std::size_t to);

}  // namespace rustbrain::analysis
