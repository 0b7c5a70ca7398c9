// The node numbering lang::for_each_child replaced: Program::renumber's own
// per-kind recursion, kept verbatim as the oracle for lang_ast_order_test.cpp.
// Every id renumber() gives must equal the id this pass gives the same node,
// so the child order written once in for_each_child is the one the goldens
// were recorded under.
#pragma once

#include <cstdint>

#include "lang/ast.hpp"

namespace rustbrain::ast_reference {

using namespace lang;

class Renumberer {
  public:
    explicit Renumberer(NodeId start) : next_(start) {}

    void visit(Expr& expr) {
        expr.id = next_++;
        switch (expr.kind) {
            case ExprKind::IntLit:
            case ExprKind::BoolLit:
            case ExprKind::VarRef:
                break;
            case ExprKind::Unary:
                visit(*static_cast<UnaryExpr&>(expr).operand);
                break;
            case ExprKind::Binary: {
                auto& node = static_cast<BinaryExpr&>(expr);
                visit(*node.lhs);
                visit(*node.rhs);
                break;
            }
            case ExprKind::Cast:
                visit(*static_cast<CastExpr&>(expr).operand);
                break;
            case ExprKind::Index: {
                auto& node = static_cast<IndexExpr&>(expr);
                visit(*node.base);
                visit(*node.index);
                break;
            }
            case ExprKind::Call:
                for (auto& arg : static_cast<CallExpr&>(expr).args) visit(*arg);
                break;
            case ExprKind::CallPtr: {
                auto& node = static_cast<CallPtrExpr&>(expr);
                visit(*node.callee);
                for (auto& arg : node.args) visit(*arg);
                break;
            }
            case ExprKind::ArrayLit:
                for (auto& element : static_cast<ArrayLitExpr&>(expr).elements) {
                    visit(*element);
                }
                break;
            case ExprKind::ArrayRepeat:
                visit(*static_cast<ArrayRepeatExpr&>(expr).element);
                break;
        }
    }

    void visit(Stmt& stmt) {
        stmt.id = next_++;
        switch (stmt.kind) {
            case StmtKind::Let:
                visit(*static_cast<LetStmt&>(stmt).init);
                break;
            case StmtKind::Assign: {
                auto& node = static_cast<AssignStmt&>(stmt);
                visit(*node.place);
                visit(*node.value);
                break;
            }
            case StmtKind::Expr:
                visit(*static_cast<ExprStmt&>(stmt).expr);
                break;
            case StmtKind::If: {
                auto& node = static_cast<IfStmt&>(stmt);
                visit(*node.condition);
                visit(node.then_block);
                if (node.else_block) visit(*node.else_block);
                break;
            }
            case StmtKind::While: {
                auto& node = static_cast<WhileStmt&>(stmt);
                visit(*node.condition);
                visit(node.body);
                break;
            }
            case StmtKind::Return: {
                auto& node = static_cast<ReturnStmt&>(stmt);
                if (node.value) visit(*node.value);
                break;
            }
            case StmtKind::Block:
                visit(static_cast<BlockStmt&>(stmt).block);
                break;
            case StmtKind::Unsafe:
                visit(static_cast<UnsafeStmt&>(stmt).block);
                break;
            case StmtKind::Become: {
                auto& node = static_cast<BecomeStmt&>(stmt);
                visit(*node.callee);
                for (auto& arg : node.args) visit(*arg);
                break;
            }
        }
    }

    void visit(Block& block) {
        for (auto& stmt : block.statements) {
            visit(*stmt);
        }
    }

    [[nodiscard]] NodeId next() const { return next_; }

  private:
    NodeId next_;
};

/// Program::renumber as it was: statics, then functions, each item before
/// its nodes. Returns the number of nodes.
inline std::uint32_t renumber(Program& program) {
    NodeId next = 1;
    for (auto& item : program.statics) {
        item.id = next++;
        if (item.init) {
            Renumberer expr_pass(next);
            expr_pass.visit(*item.init);
            next = expr_pass.next();
        }
    }
    for (auto& fn : program.functions) {
        fn.id = next++;
        Renumberer fn_pass(next);
        fn_pass.visit(fn.body);
        next = fn_pass.next();
    }
    return next - 1;
}

}  // namespace rustbrain::ast_reference
