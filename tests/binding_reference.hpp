// The slot-lowering pass the type checker's bindings replaced: a second,
// independent name resolver that mirrors the tree walk's old runtime lookup
// (reverse scope scans, statics visible from their own initializer on,
// function items by name) into side tables keyed by NodeId. Kept as the
// oracle for lang_binding_test.cpp: every Binding, `let` slot and slot
// count lang::type_check writes must equal what this resolver computes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "lang/typecheck.hpp"

namespace rustbrain::binding_reference {

struct VarResolution {
    enum class Kind : std::uint8_t {
        Unresolved,  // the tree walk threw a logic_error here
        Local,       // index = frame slot
        Static,      // index = position in Program::statics
        Function,    // index = position in Program::functions
    };
    Kind kind = Kind::Unresolved;
    std::int32_t index = -1;
};

struct CallResolution {
    enum class Kind : std::uint8_t {
        Unresolved,  // unknown callee
        Intrinsic,   // dispatched by name
        LocalFnPtr,  // index = frame slot holding the fn-pointer value
        Direct,      // index = position in Program::functions
    };
    Kind kind = Kind::Unresolved;
    std::int32_t index = -1;
};

struct ReferenceTables {
    /// Indexed by NodeId (ids are 1-based; slot 0 is unused).
    std::vector<VarResolution> var_refs;
    std::vector<std::int32_t> let_slots;
    std::vector<CallResolution> calls;
    /// Frame slot count per function (parameters occupy slots 0..n-1).
    std::vector<std::uint32_t> fn_slot_counts;
};

namespace detail {

class Lowerer {
  public:
    Lowerer(const lang::Program& program, ReferenceTables& out)
        : program_(program), out_(out) {}

    void lower_static_init(const lang::Expr& init, std::size_t statics_ready) {
        statics_ready_ = statics_ready;
        scopes_.clear();
        visit_expr(init);
    }

    std::uint32_t lower_function(const lang::FnItem& fn) {
        statics_ready_ = program_.statics.size();
        scopes_.clear();
        next_slot_ = 0;
        push_scope();
        for (const lang::Param& param : fn.params) {
            declare(param.name, &param.type);
        }
        visit_block(fn.body);
        pop_scope();
        return next_slot_;
    }

  private:
    struct LocalInfo {
        std::string_view name;
        const lang::Type* type;
        std::uint32_t slot;
    };
    struct Scope {
        std::vector<LocalInfo> locals;
    };

    void push_scope() { scopes_.emplace_back(); }
    void pop_scope() { scopes_.pop_back(); }

    void declare(std::string_view name, const lang::Type* type) {
        scopes_.back().locals.push_back({name, type, next_slot_++});
    }

    [[nodiscard]] const LocalInfo* lookup(std::string_view name) const {
        for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
            for (auto local = scope->locals.rbegin();
                 local != scope->locals.rend(); ++local) {
                if (local->name == name) return &*local;
            }
        }
        return nullptr;
    }

    [[nodiscard]] std::int32_t find_static(std::string_view name) const {
        // Only statics already initialized at this point are visible —
        // setup_statics runs in declaration order.
        for (std::size_t i = 0; i < statics_ready_; ++i) {
            if (program_.statics[i].name == name) {
                return static_cast<std::int32_t>(i);
            }
        }
        return -1;
    }

    [[nodiscard]] std::int32_t find_function(std::string_view name) const {
        for (std::size_t i = 0; i < program_.functions.size(); ++i) {
            if (program_.functions[i].name == name) {
                return static_cast<std::int32_t>(i);
            }
        }
        return -1;
    }

    void resolve_var_ref(const lang::VarRefExpr& node) {
        VarResolution& res = out_.var_refs[node.id];
        if (const LocalInfo* local = lookup(node.name)) {
            res.kind = VarResolution::Kind::Local;
            res.index = static_cast<std::int32_t>(local->slot);
            return;
        }
        if (const std::int32_t index = find_static(node.name); index >= 0) {
            res.kind = VarResolution::Kind::Static;
            res.index = index;
            return;
        }
        if (const std::int32_t index = find_function(node.name); index >= 0) {
            res.kind = VarResolution::Kind::Function;
            res.index = index;
            return;
        }
        res.kind = VarResolution::Kind::Unresolved;
    }

    void resolve_call(const lang::CallExpr& node) {
        CallResolution& res = out_.calls[node.id];
        // Mirror eval_call: intrinsics first, then a local *of fn-pointer
        // type* (a local of another type does not shadow a function item in
        // call position), then the function item.
        if (lang::is_intrinsic(node.callee)) {
            res.kind = CallResolution::Kind::Intrinsic;
            return;
        }
        if (const LocalInfo* local = lookup(node.callee);
            local != nullptr && local->type->is_fn_ptr()) {
            res.kind = CallResolution::Kind::LocalFnPtr;
            res.index = static_cast<std::int32_t>(local->slot);
            return;
        }
        if (const std::int32_t index = find_function(node.callee); index >= 0) {
            res.kind = CallResolution::Kind::Direct;
            res.index = index;
            return;
        }
        res.kind = CallResolution::Kind::Unresolved;
    }

    void visit_expr(const lang::Expr& expr) {
        switch (expr.kind) {
            case lang::ExprKind::IntLit:
            case lang::ExprKind::BoolLit:
                break;
            case lang::ExprKind::VarRef:
                resolve_var_ref(static_cast<const lang::VarRefExpr&>(expr));
                break;
            case lang::ExprKind::Unary:
                visit_expr(*static_cast<const lang::UnaryExpr&>(expr).operand);
                break;
            case lang::ExprKind::Binary: {
                const auto& node = static_cast<const lang::BinaryExpr&>(expr);
                visit_expr(*node.lhs);
                visit_expr(*node.rhs);
                break;
            }
            case lang::ExprKind::Cast:
                visit_expr(*static_cast<const lang::CastExpr&>(expr).operand);
                break;
            case lang::ExprKind::Index: {
                const auto& node = static_cast<const lang::IndexExpr&>(expr);
                visit_expr(*node.base);
                visit_expr(*node.index);
                break;
            }
            case lang::ExprKind::Call: {
                const auto& node = static_cast<const lang::CallExpr&>(expr);
                resolve_call(node);
                for (const auto& arg : node.args) visit_expr(*arg);
                break;
            }
            case lang::ExprKind::CallPtr: {
                const auto& node = static_cast<const lang::CallPtrExpr&>(expr);
                visit_expr(*node.callee);
                for (const auto& arg : node.args) visit_expr(*arg);
                break;
            }
            case lang::ExprKind::ArrayLit:
                for (const auto& element :
                     static_cast<const lang::ArrayLitExpr&>(expr).elements) {
                    visit_expr(*element);
                }
                break;
            case lang::ExprKind::ArrayRepeat:
                visit_expr(
                    *static_cast<const lang::ArrayRepeatExpr&>(expr).element);
                break;
        }
    }

    void visit_stmt(const lang::Stmt& stmt) {
        switch (stmt.kind) {
            case lang::StmtKind::Let: {
                const auto& node = static_cast<const lang::LetStmt&>(stmt);
                // The initializer sees the environment *before* the binding
                // (`let x = x + 1;` reads the outer x).
                visit_expr(*node.init);
                const lang::Type* type = node.declared_type
                                             ? &*node.declared_type
                                             : &node.init->type;
                out_.let_slots[node.id] =
                    static_cast<std::int32_t>(next_slot_);
                declare(node.name, type);
                break;
            }
            case lang::StmtKind::Assign: {
                const auto& node = static_cast<const lang::AssignStmt&>(stmt);
                visit_expr(*node.place);
                visit_expr(*node.value);
                break;
            }
            case lang::StmtKind::Expr:
                visit_expr(*static_cast<const lang::ExprStmt&>(stmt).expr);
                break;
            case lang::StmtKind::If: {
                const auto& node = static_cast<const lang::IfStmt&>(stmt);
                visit_expr(*node.condition);
                visit_block(node.then_block);
                if (node.else_block) visit_block(*node.else_block);
                break;
            }
            case lang::StmtKind::While: {
                const auto& node = static_cast<const lang::WhileStmt&>(stmt);
                visit_expr(*node.condition);
                visit_block(node.body);
                break;
            }
            case lang::StmtKind::Return: {
                const auto& node = static_cast<const lang::ReturnStmt&>(stmt);
                if (node.value) visit_expr(*node.value);
                break;
            }
            case lang::StmtKind::Block:
                visit_block(static_cast<const lang::BlockStmt&>(stmt).block);
                break;
            case lang::StmtKind::Unsafe:
                visit_block(static_cast<const lang::UnsafeStmt&>(stmt).block);
                break;
            case lang::StmtKind::Become: {
                const auto& node = static_cast<const lang::BecomeStmt&>(stmt);
                visit_expr(*node.callee);
                for (const auto& arg : node.args) visit_expr(*arg);
                break;
            }
        }
    }

    void visit_block(const lang::Block& block) {
        push_scope();
        for (const auto& stmt : block.statements) {
            visit_stmt(*stmt);
        }
        pop_scope();
    }

    const lang::Program& program_;
    ReferenceTables& out_;
    std::vector<Scope> scopes_;
    std::uint32_t next_slot_ = 0;
    std::size_t statics_ready_ = 0;
};

}  // namespace detail

/// Renumbers `program` (the pre-order numbering try_parse produced) and
/// resolves every name in it.
inline ReferenceTables reference_bindings(lang::Program& program) {
    const std::uint32_t node_count = program.renumber();

    ReferenceTables lowered;
    lowered.var_refs.resize(node_count + 1);
    lowered.let_slots.assign(node_count + 1, -1);
    lowered.calls.resize(node_count + 1);
    lowered.fn_slot_counts.reserve(program.functions.size());

    detail::Lowerer lowerer(program, lowered);
    for (std::size_t i = 0; i < program.statics.size(); ++i) {
        if (program.statics[i].init) {
            // A static is registered before its initializer is evaluated
            // (setup_statics), so an initializer sees statics 0..i
            // *including itself*.
            lowerer.lower_static_init(*program.statics[i].init, i + 1);
        }
    }
    for (const lang::FnItem& fn : program.functions) {
        lowered.fn_slot_counts.push_back(lowerer.lower_function(fn));
    }
    return lowered;
}

}  // namespace rustbrain::binding_reference
