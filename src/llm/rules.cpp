#include "llm/rules.hpp"

#include <algorithm>

#include "llm/rules_detail.hpp"

namespace rustbrain::llm {

bool RepairRule::applies_to(miri::UbCategory category) const {
    return std::find(categories.begin(), categories.end(), category) !=
           categories.end();
}

const std::vector<RepairRule>& rule_library() {
    static const std::vector<RepairRule> library = [] {
        std::vector<RepairRule> rules = memory_rules();
        std::vector<RepairRule> exec = exec_rules();
        for (auto& rule : exec) {
            rules.push_back(std::move(rule));
        }
        return rules;
    }();
    return library;
}

const RepairRule* find_rule(const std::string& id) {
    for (const RepairRule& rule : rule_library()) {
        if (rule.id == id) return &rule;
    }
    return nullptr;
}

std::vector<const RepairRule*> rules_for_category(miri::UbCategory category) {
    std::vector<const RepairRule*> out;
    for (const RepairRule& rule : rule_library()) {
        if (rule.applies_to(category)) out.push_back(&rule);
    }
    return out;
}

namespace detail {

const lang::CallExpr* stmt_as_call(const lang::Stmt& stmt,
                                   const std::string& callee) {
    if (stmt.kind != lang::StmtKind::Expr) return nullptr;
    const auto& expr = *static_cast<const lang::ExprStmt&>(stmt).expr;
    if (expr.kind != lang::ExprKind::Call) return nullptr;
    const auto& call = static_cast<const lang::CallExpr&>(expr);
    return call.callee == callee ? &call : nullptr;
}

std::string var_name(const lang::Expr& expr) {
    if (expr.kind != lang::ExprKind::VarRef) return "";
    return std::string(static_cast<const lang::VarRefExpr&>(expr).name);
}

const lang::Expr& strip_casts(const lang::Expr& expr) {
    const lang::Expr* current = &expr;
    while (current->kind == lang::ExprKind::Cast) {
        current = static_cast<const lang::CastExpr*>(current)->operand.get();
    }
    return *current;
}

std::string addr_of_target(const lang::Expr& expr) {
    if (expr.kind != lang::ExprKind::Unary) return "";
    const auto& unary = static_cast<const lang::UnaryExpr&>(expr);
    if (unary.op != lang::UnaryOp::AddrOf && unary.op != lang::UnaryOp::AddrOfMut) {
        return "";
    }
    return var_name(*unary.operand);
}

const lang::LetStmt* stmt_as_let(const lang::Stmt& stmt) {
    if (stmt.kind != lang::StmtKind::Let) return nullptr;
    return &static_cast<const lang::LetStmt&>(stmt);
}

}  // namespace detail

}  // namespace rustbrain::llm
