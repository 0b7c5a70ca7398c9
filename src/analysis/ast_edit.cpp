#include "analysis/ast_edit.hpp"

#include "analysis/walk.hpp"

namespace rustbrain::analysis {

using namespace lang;

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

ExprPtr mk_int(AstArena& arena, std::uint64_t value) {
    auto node = arena.make<IntLitExpr>();
    node->value = value;
    return node;
}

ExprPtr mk_var(AstArena& arena, std::string_view name) {
    auto node = arena.make<VarRefExpr>();
    node->name = arena.name(name);
    return node;
}

ExprPtr mk_unary(AstArena& arena, UnaryOp op, ExprPtr operand) {
    auto node = arena.make<UnaryExpr>();
    node->op = op;
    node->operand = std::move(operand);
    return node;
}

ExprPtr mk_binary(AstArena& arena, BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto node = arena.make<BinaryExpr>();
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
}

ExprPtr mk_cast(AstArena& arena, ExprPtr operand, Type target) {
    auto node = arena.make<CastExpr>();
    node->operand = std::move(operand);
    node->target = std::move(target);
    return node;
}

ExprPtr mk_call(AstArena& arena, std::string_view callee, ExprList args) {
    auto node = arena.make<CallExpr>();
    node->callee = arena.name(callee);
    node->args = std::move(args);
    return node;
}

StmtPtr mk_let(AstArena& arena, std::string_view name, bool is_mut, ExprPtr init,
               std::optional<Type> declared) {
    auto node = arena.make<LetStmt>();
    node->name = arena.name(name);
    node->is_mut = is_mut;
    node->init = std::move(init);
    node->declared_type = std::move(declared);
    return node;
}

StmtPtr mk_assign(AstArena& arena, ExprPtr place, ExprPtr value) {
    auto node = arena.make<AssignStmt>();
    node->place = std::move(place);
    node->value = std::move(value);
    return node;
}

StmtPtr mk_expr_stmt(AstArena& arena, ExprPtr expr) {
    auto node = arena.make<ExprStmt>();
    node->expr = std::move(expr);
    return node;
}

StmtPtr mk_return(AstArena& arena, ExprPtr value) {
    auto node = arena.make<ReturnStmt>();
    node->value = std::move(value);
    return node;
}

StmtPtr mk_print_sentinel(AstArena& arena) {
    ExprList args(arena);
    args.push_back(mk_binary(arena, BinaryOp::Sub, mk_int(arena, 0), mk_int(arena, 1)));
    return mk_expr_stmt(arena, mk_call(arena, "print_int", std::move(args)));
}

StmtPtr mk_guard(AstArena& arena, ExprPtr cond, Block then_block,
                 bool with_sentinel_else) {
    auto node = arena.make<IfStmt>();
    node->condition = std::move(cond);
    node->then_block = std::move(then_block);
    if (with_sentinel_else) {
        Block else_block(arena);
        else_block.statements.push_back(mk_print_sentinel(arena));
        node->else_block = std::move(else_block);
    }
    return node;
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

namespace {

using BlockFn = std::function<bool(Block&)>;
using Rewriter = std::function<std::optional<ExprPtr>(const Expr&)>;

/// `block`, then every block nested in it, pre-order, until `fn` says stop.
bool visit_blocks(Block& block, const BlockFn& fn) {
    if (fn(block)) return true;
    bool stop = false;
    for (auto& stmt : block.statements) {
        for_each_child(*stmt, Overload{
            [](ExprPtr&) {},
            [&](Block& inner) { stop = stop || visit_blocks(inner, fn); },
        });
        if (stop) return true;
    }
    return false;
}

int rewrite_slot(ExprPtr& slot, const Rewriter& fn) {
    if (!slot) return 0;
    if (auto replacement = fn(*slot)) {
        slot = std::move(*replacement);
        return 1;
    }
    int count = 0;
    for_each_child(*slot, [&](ExprPtr& child) { count += rewrite_slot(child, fn); });
    return count;
}

int rewrite_block(Block& block, const Rewriter& fn) {
    int count = 0;
    for (auto& stmt : block.statements) {
        for_each_child(*stmt, Overload{
            [&](ExprPtr& slot) { count += rewrite_slot(slot, fn); },
            [&](Block& inner) { count += rewrite_block(inner, fn); },
        });
    }
    return count;
}

}  // namespace

bool for_each_block(Program& program, const BlockFn& fn) {
    for (auto& function : program.functions) {
        if (visit_blocks(function.body, fn)) return true;
    }
    return false;
}

int rewrite_exprs(Program& program, const Rewriter& fn) {
    int count = 0;
    for (auto& function : program.functions) {
        count += rewrite_block(function.body, fn);
    }
    return count;
}

int rewrite_exprs_in_block(Block& block, const Rewriter& fn) {
    return rewrite_block(block, fn);
}

int find_stmt(const Block& block, const std::function<bool(const Stmt&)>& pred,
              int start_index) {
    for (std::size_t i = static_cast<std::size_t>(start_index);
         i < block.statements.size(); ++i) {
        if (pred(*block.statements[i])) return static_cast<int>(i);
    }
    return -1;
}

const LetStmt* find_let_by_name(const Program& program, std::string_view name) {
    const LetStmt* found = nullptr;
    WalkCallbacks callbacks;
    callbacks.on_stmt = [&](const Stmt& stmt, bool) {
        if (found == nullptr && stmt.kind == StmtKind::Let &&
            static_cast<const LetStmt&>(stmt).name == name) {
            found = &static_cast<const LetStmt&>(stmt);
        }
    };
    walk_program(program, callbacks);
    return found;
}

bool stmt_mentions(const Stmt& stmt, std::string_view name) {
    bool found = false;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        if (expr.kind == ExprKind::VarRef &&
            static_cast<const VarRefExpr&>(expr).name == name) {
            found = true;
        }
        if (expr.kind == ExprKind::Call &&
            static_cast<const CallExpr&>(expr).callee == name) {
            found = true;
        }
    };
    callbacks.on_stmt = [&](const Stmt& inner, bool) {
        if (inner.kind == StmtKind::Let &&
            static_cast<const LetStmt&>(inner).name == name) {
            found = true;
        }
    };
    walk_stmt(stmt, callbacks, false);
    return found;
}

bool stmt_calls(const Stmt& stmt, std::string_view callee) {
    bool found = false;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        if (expr.kind == ExprKind::Call &&
            static_cast<const CallExpr&>(expr).callee == callee) {
            found = true;
        }
    };
    walk_stmt(stmt, callbacks, false);
    return found;
}

bool move_stmt(Block& block, std::size_t from, std::size_t to) {
    if (from >= block.statements.size() || to >= block.statements.size()) {
        return false;
    }
    if (from == to) return true;
    StmtPtr stmt = std::move(block.statements[from]);
    block.statements.erase(block.statements.begin() +
                           static_cast<std::ptrdiff_t>(from));
    block.statements.insert(
        block.statements.begin() + static_cast<std::ptrdiff_t>(to),
        std::move(stmt));
    return true;
}

}  // namespace rustbrain::analysis
