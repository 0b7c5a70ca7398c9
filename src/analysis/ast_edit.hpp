// AST construction & surgery toolkit used by the repair-rule library and the
// hallucination injector: concise node builders, expression rewriting, and
// block-level statement manipulation across nested blocks.
#pragma once

#include <functional>
#include <optional>

#include "lang/ast.hpp"

namespace rustbrain::analysis {

// --- node builders -----------------------------------------------------

lang::ExprPtr mk_int(std::uint64_t value);
lang::ExprPtr mk_bool(bool value);
lang::ExprPtr mk_var(const std::string& name);
lang::ExprPtr mk_unary(lang::UnaryOp op, lang::ExprPtr operand);
lang::ExprPtr mk_binary(lang::BinaryOp op, lang::ExprPtr lhs, lang::ExprPtr rhs);
lang::ExprPtr mk_cast(lang::ExprPtr operand, lang::Type target);
lang::ExprPtr mk_call(const std::string& callee, std::vector<lang::ExprPtr> args);
lang::ExprPtr mk_index(lang::ExprPtr base, lang::ExprPtr index);

lang::StmtPtr mk_let(const std::string& name, bool is_mut, lang::ExprPtr init,
                     std::optional<lang::Type> declared = std::nullopt);
lang::StmtPtr mk_assign(lang::ExprPtr place, lang::ExprPtr value);
lang::StmtPtr mk_expr_stmt(lang::ExprPtr expr);
lang::StmtPtr mk_return(lang::ExprPtr value);
/// `if cond { then } else { print_int(0 - 1); }` — the corpus's guard idiom.
lang::StmtPtr mk_guard(lang::ExprPtr cond, lang::Block then_block,
                       bool with_sentinel_else);
lang::StmtPtr mk_unsafe(lang::Block block);
/// print_int(0 - 1) — the sentinel the corpus prints on guarded paths.
lang::StmtPtr mk_print_sentinel();

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
                                      const std::string& name);

/// True if the statement mentions variable `name` anywhere.
bool stmt_mentions(const lang::Stmt& stmt, const std::string& name);

/// True if the expr (sub)tree contains a direct call to `callee`.
bool stmt_calls(const lang::Stmt& stmt, const std::string& callee);

/// Move the statement at `from` so it ends up at index `to` (indices within
/// the same block, interpreted before removal). Returns false on bad input.
bool move_stmt(lang::Block& block, std::size_t from, std::size_t to);

}  // namespace rustbrain::analysis
