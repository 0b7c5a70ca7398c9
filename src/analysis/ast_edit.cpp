#include "analysis/ast_edit.hpp"

#include "analysis/walk.hpp"

namespace rustbrain::analysis {

using namespace lang;

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

ExprPtr mk_int(std::uint64_t value) {
    auto node = std::make_unique<IntLitExpr>();
    node->value = value;
    return node;
}

ExprPtr mk_bool(bool value) {
    auto node = std::make_unique<BoolLitExpr>();
    node->value = value;
    return node;
}

ExprPtr mk_var(const std::string& name) {
    auto node = std::make_unique<VarRefExpr>();
    node->name = name;
    return node;
}

ExprPtr mk_unary(UnaryOp op, ExprPtr operand) {
    auto node = std::make_unique<UnaryExpr>();
    node->op = op;
    node->operand = std::move(operand);
    return node;
}

ExprPtr mk_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto node = std::make_unique<BinaryExpr>();
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
}

ExprPtr mk_cast(ExprPtr operand, Type target) {
    auto node = std::make_unique<CastExpr>();
    node->operand = std::move(operand);
    node->target = std::move(target);
    return node;
}

ExprPtr mk_call(const std::string& callee, std::vector<ExprPtr> args) {
    auto node = std::make_unique<CallExpr>();
    node->callee = callee;
    node->args = std::move(args);
    return node;
}

ExprPtr mk_index(ExprPtr base, ExprPtr index) {
    auto node = std::make_unique<IndexExpr>();
    node->base = std::move(base);
    node->index = std::move(index);
    return node;
}

StmtPtr mk_let(const std::string& name, bool is_mut, ExprPtr init,
               std::optional<Type> declared) {
    auto node = std::make_unique<LetStmt>();
    node->name = name;
    node->is_mut = is_mut;
    node->init = std::move(init);
    node->declared_type = std::move(declared);
    return node;
}

StmtPtr mk_assign(ExprPtr place, ExprPtr value) {
    auto node = std::make_unique<AssignStmt>();
    node->place = std::move(place);
    node->value = std::move(value);
    return node;
}

StmtPtr mk_expr_stmt(ExprPtr expr) {
    auto node = std::make_unique<ExprStmt>();
    node->expr = std::move(expr);
    return node;
}

StmtPtr mk_return(ExprPtr value) {
    auto node = std::make_unique<ReturnStmt>();
    node->value = std::move(value);
    return node;
}

StmtPtr mk_print_sentinel() {
    return mk_expr_stmt(
        mk_call("print_int", [] {
            std::vector<ExprPtr> args;
            args.push_back(mk_binary(BinaryOp::Sub, mk_int(0), mk_int(1)));
            return args;
        }()));
}

StmtPtr mk_guard(ExprPtr cond, Block then_block, bool with_sentinel_else) {
    auto node = std::make_unique<IfStmt>();
    node->condition = std::move(cond);
    node->then_block = std::move(then_block);
    if (with_sentinel_else) {
        Block else_block;
        else_block.statements.push_back(mk_print_sentinel());
        node->else_block = std::move(else_block);
    }
    return node;
}

StmtPtr mk_unsafe(Block block) {
    auto node = std::make_unique<UnsafeStmt>();
    node->block = std::move(block);
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

const LetStmt* find_let_by_name(const Program& program, const std::string& name) {
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

bool stmt_mentions(const Stmt& stmt, const std::string& name) {
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

bool stmt_calls(const Stmt& stmt, const std::string& callee) {
    return stmt_mentions(stmt, callee);
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
