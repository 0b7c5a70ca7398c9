// AST -> bytecode. The emission rules replicate the tree walk's step(),
// evaluation, and allocation orders exactly; see bytecode.hpp for the
// byte-identity contract and DESIGN.md §9 for the full instruction table.
//
// The packed 32-byte Instr stores spans/types/aux pointers as indices into
// interned side tables on the VmProgram; the helpers si()/ti()/ai() below
// are the only writers of those fields.
#include <array>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "lang/typecheck.hpp"
#include "miri/machine.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::vm {

std::atomic<std::uint64_t> CompileStats::bytecode_compiles{0};

namespace {

using lang::Type;

class Compiler {
  public:
    explicit Compiler(const lang::Program& program) : program_(program) {}

    VmProgram compile() {
        out_.functions.resize(program_.functions.size());
        for (std::size_t i = 0; i < program_.functions.size(); ++i) {
            compile_function(static_cast<std::int32_t>(i));
        }
        for (const auto& item : program_.statics) {
            out_.static_entries.push_back(pc());
            compile_expr(*item.init);
            emit(Op::Halt);
        }
        if (const lang::FnItem* main_fn = program_.find_function("main")) {
            out_.main_fn =
                static_cast<std::int32_t>(main_fn - program_.functions.data());
        }
        CompileStats::bytecode_compiles.fetch_add(1, std::memory_order_relaxed);
        return std::move(out_);
    }

  private:
    // A lexical scope's declared slots, in declaration order — the static
    // kill list. Slots are unique per binding (the type checker hands
    // shadowing a fresh slot), so "kill slot if live" at runtime exactly
    // reproduces the tree walk's kill list at any exit point.
    struct ScopeInfo {
        std::vector<std::int32_t> slots;
    };

    [[nodiscard]] std::int32_t pc() const {
        return static_cast<std::int32_t>(out_.code.size());
    }

    // -- side-table interning -------------------------------------------

    std::uint32_t si(support::SourceSpan span) {
        if (!span.valid() && span.begin == 0 && span.end == 0 &&
            span.column == 0) {
            return 0;
        }
        const std::array<std::uint32_t, 4> key{span.begin, span.end, span.line,
                                              span.column};
        auto [it, inserted] =
            span_ids_.try_emplace(key, static_cast<std::uint32_t>(
                                           out_.spans.size()));
        if (inserted) out_.spans.push_back(span);
        return it->second;
    }

    std::uint32_t ti(const Type* type) {
        if (type == nullptr) return 0;
        auto [it, inserted] =
            type_ids_.try_emplace(type->node(), static_cast<std::uint32_t>(
                                                    out_.types.size()));
        if (inserted) out_.types.push_back(*type);
        return it->second;
    }

    std::uint32_t ai(const void* aux) {
        if (aux == nullptr) return 0;
        auto [it, inserted] =
            aux_ids_.try_emplace(aux, static_cast<std::uint32_t>(
                                          out_.auxes.size()));
        if (inserted) out_.auxes.push_back(aux);
        return it->second;
    }

    Instr& emit(Op op) {
        out_.code.emplace_back();
        out_.code.back().op = op;
        return out_.code.back();
    }

    Instr& emit(Op op, support::SourceSpan span) {
        const std::uint32_t span_id = si(span);
        Instr& in = emit(op);
        in.span = span_id;
        return in;
    }

    /// Emit a forward jump; returns the index to patch.
    std::int32_t emit_jump(Op op, support::SourceSpan span = {}) {
        emit(op, span);
        return pc() - 1;
    }

    void patch(std::int32_t at, std::int32_t target) {
        out_.code[static_cast<std::size_t>(at)].a = target;
    }

    // -- functions ------------------------------------------------------

    void compile_function(std::int32_t fn_index) {
        const lang::FnItem& fn =
            program_.functions[static_cast<std::size_t>(fn_index)];
        VmFunction& meta = out_.functions[static_cast<std::size_t>(fn_index)];
        meta.entry = pc();
        meta.slot_count = fn.slot_count;
        meta.span = fn.span;

        scopes_.clear();
        scopes_.emplace_back();  // parameter scope (killed at the frame's exit)
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const std::int32_t slot = static_cast<std::int32_t>(i);
            scopes_.back().slots.push_back(slot);
            Instr& in = emit(Op::DeclParam, fn.span);
            in.a = slot;
            in.b = static_cast<std::int32_t>(i);
            in.type = ti(&fn.params[i].type);
            in.aux = ai(&fn.params[i].name);
        }
        emit(Op::DropArgs);
        compile_block(fn.body);
        // Falling off the end: exec_block killed the body scope; the frame
        // result is unit and call_function's exit reaps the parameters.
        emit(Op::PushUnit);
        emit_scope_kills(scopes_.back(), Op::KillSlot);
        emit(Op::Ret);
        scopes_.pop_back();
    }

    void emit_scope_kills(const ScopeInfo& scope, Op op) {
        for (const std::int32_t slot : scope.slots) {
            emit(op).a = slot;
        }
    }

    void compile_block(const lang::Block& block) {
        scopes_.emplace_back();
        for (const auto& stmt : block.statements) {
            compile_stmt(*stmt);
        }
        emit_scope_kills(scopes_.back(), Op::KillSlot);
        scopes_.pop_back();
    }

    // -- statements -----------------------------------------------------

    void compile_stmt(const lang::Stmt& stmt) {
        emit(Op::Step, stmt.span);  // exec_statement's entry step
        switch (stmt.kind) {
            case lang::StmtKind::Let: {
                const auto& node = static_cast<const lang::LetStmt&>(stmt);
                compile_expr(*node.init);
                const Type& type = node.declared_type ? *node.declared_type
                                                      : node.init->type;
                scopes_.back().slots.push_back(node.slot);
                Instr& in = emit(Op::DeclLocal, node.span);
                in.a = node.slot;
                in.type = ti(&type);
                in.aux = ai(&node.name);
                return;
            }
            case lang::StmtKind::Assign: {
                const auto& node = static_cast<const lang::AssignStmt&>(stmt);
                compile_expr(*node.value);
                const Type* place_type = compile_place(*node.place);
                Instr& in = emit(Op::StorePlace, node.span);
                in.type = ti(place_type);
                return;
            }
            case lang::StmtKind::Expr: {
                compile_expr(*static_cast<const lang::ExprStmt&>(stmt).expr);
                emit(Op::Pop);
                return;
            }
            case lang::StmtKind::If: {
                const auto& node = static_cast<const lang::IfStmt&>(stmt);
                compile_expr(*node.condition);
                const std::int32_t to_else = emit_jump(Op::JumpIfFalse);
                compile_block(node.then_block);
                if (node.else_block) {
                    const std::int32_t to_end = emit_jump(Op::Jump);
                    patch(to_else, pc());
                    compile_block(*node.else_block);
                    patch(to_end, pc());
                } else {
                    patch(to_else, pc());
                }
                return;
            }
            case lang::StmtKind::While: {
                const auto& node = static_cast<const lang::WhileStmt&>(stmt);
                const std::int32_t loop_top = pc();
                compile_expr(*node.condition);
                const std::int32_t to_end = emit_jump(Op::JumpIfFalse);
                emit(Op::Step, node.span);  // per-iteration step
                compile_block(node.body);
                emit(Op::Jump).a = loop_top;
                patch(to_end, pc());
                return;
            }
            case lang::StmtKind::Return: {
                const auto& node = static_cast<const lang::ReturnStmt&>(stmt);
                if (node.value) {
                    compile_expr(*node.value);
                } else {
                    emit(Op::PushUnit);
                }
                // Unwind order: each exec_block kills its scope as the
                // Return flow propagates (innermost first), then
                // call_function's exit reaps the parameter scope.
                for (auto scope = scopes_.rbegin(); scope != scopes_.rend();
                     ++scope) {
                    emit_scope_kills(*scope, Op::KillSlot);
                }
                emit(Op::Ret);
                return;
            }
            case lang::StmtKind::Block:
                compile_block(static_cast<const lang::BlockStmt&>(stmt).block);
                return;
            case lang::StmtKind::Unsafe:
                compile_block(static_cast<const lang::UnsafeStmt&>(stmt).block);
                return;
            case lang::StmtKind::Become: {
                const auto& node = static_cast<const lang::BecomeStmt&>(stmt);
                compile_expr(*node.callee);
                for (const auto& arg : node.args) {
                    compile_expr(*arg);
                }
                // The become site kills every live local front-to-back
                // (parameters first, then enclosing blocks outward-in),
                // with kill_for_tail_call semantics.
                for (const ScopeInfo& scope : scopes_) {
                    emit_scope_kills(scope, Op::KillSlotTail);
                }
                Instr& in = emit(Op::TailCall, node.span);
                in.b = static_cast<std::int32_t>(node.args.size());
                in.type = ti(&node.callee->type);
                return;
            }
        }
    }

    // -- places ---------------------------------------------------------

    /// Compile eval_place(expr): pushes the place pointer; returns the
    /// statically known place type.
    const Type* compile_place(const lang::Expr& expr) {
        switch (expr.kind) {
            case lang::ExprKind::VarRef: {
                const auto& node = static_cast<const lang::VarRefExpr&>(expr);
                if (node.binding.kind == lang::Binding::Kind::Local) {
                    Instr& in = emit(Op::PlaceLocal);
                    in.a = node.binding.index;
                    in.aux = ai(&node.name);
                    return &expr.type;
                }
                if (node.binding.kind == lang::Binding::Kind::Static) {
                    Instr& in = emit(Op::PlaceStatic);
                    in.a = node.binding.index;
                    in.aux = ai(&node.name);
                    return &expr.type;
                }
                break;
            }
            case lang::ExprKind::Unary: {
                const auto& node = static_cast<const lang::UnaryExpr&>(expr);
                if (node.op != lang::UnaryOp::Deref) break;
                compile_expr(*node.operand);
                return &expr.type;
            }
            case lang::ExprKind::Index: {
                const auto& node = static_cast<const lang::IndexExpr&>(expr);
                const Type& base_type = node.base->type;
                const Type* array_type = nullptr;
                if (base_type.is_ref() && base_type.element().is_array()) {
                    compile_expr(*node.base);
                    array_type = &base_type.element();
                } else {
                    array_type = compile_place(*node.base);
                }
                // eval_place converts the base to a pointer before the
                // index expression runs; AsPtr pins that conversion point.
                emit(Op::AsPtr);
                compile_expr(*node.index);
                Instr& in = emit(Op::IndexPlace, node.span);
                in.imm = array_type->array_length();
                in.a = static_cast<std::int32_t>(
                    array_type->element().size_bytes());
                return &array_type->element();
            }
            default:
                break;
        }
        // Unreachable for type-checked programs; preserve the tree walk's
        // invariant-break error.
        throw std::logic_error("eval_place: expression is not a place");
    }

    // -- expressions ----------------------------------------------------

    void compile_expr(const lang::Expr& expr) {
        switch (expr.kind) {
            case lang::ExprKind::IntLit: {
                const auto& node = static_cast<const lang::IntLitExpr&>(expr);
                Instr& in = emit(Op::PushInt, expr.span);
                in.imm = miri::truncate_to_type(node.value, expr.type);
                return;
            }
            case lang::ExprKind::BoolLit: {
                Instr& in = emit(Op::PushBool, expr.span);
                in.a = static_cast<const lang::BoolLitExpr&>(expr).value ? 1 : 0;
                return;
            }
            case lang::ExprKind::VarRef:
                compile_var_ref(static_cast<const lang::VarRefExpr&>(expr));
                return;
            case lang::ExprKind::Unary:
                compile_unary(static_cast<const lang::UnaryExpr&>(expr));
                return;
            case lang::ExprKind::Binary:
                compile_binary(static_cast<const lang::BinaryExpr&>(expr));
                return;
            case lang::ExprKind::Cast:
                compile_cast(static_cast<const lang::CastExpr&>(expr));
                return;
            case lang::ExprKind::Index: {
                emit(Op::Step, expr.span);
                const Type* elem = compile_place(expr);
                Instr& in = emit(Op::LoadThrough, expr.span);
                in.type = ti(elem);
                return;
            }
            case lang::ExprKind::Call:
                compile_call(static_cast<const lang::CallExpr&>(expr));
                return;
            case lang::ExprKind::CallPtr: {
                const auto& node = static_cast<const lang::CallPtrExpr&>(expr);
                emit(Op::Step, expr.span);
                compile_expr(*node.callee);
                for (const auto& arg : node.args) {
                    compile_expr(*arg);
                }
                Instr& in = emit(Op::CallPtr, expr.span);
                in.b = static_cast<std::int32_t>(node.args.size());
                in.type = ti(&node.callee->type);
                return;
            }
            case lang::ExprKind::ArrayLit: {
                const auto& node = static_cast<const lang::ArrayLitExpr&>(expr);
                emit(Op::Step, expr.span);
                for (const auto& element : node.elements) {
                    compile_expr(*element);
                }
                emit(Op::MakeArray).a =
                    static_cast<std::int32_t>(node.elements.size());
                return;
            }
            case lang::ExprKind::ArrayRepeat: {
                const auto& node =
                    static_cast<const lang::ArrayRepeatExpr&>(expr);
                emit(Op::Step, expr.span);
                compile_expr(*node.element);
                Instr& in = emit(Op::MakeRepeat, expr.span);
                in.imm = node.count;
                in.type = ti(&node.element->type);
                return;
            }
        }
    }

    void compile_var_ref(const lang::VarRefExpr& node) {
        switch (node.binding.kind) {
            case lang::Binding::Kind::Local: {
                Instr& in = emit(Op::LoadLocal, node.span);
                in.a = node.binding.index;
                in.type = ti(&node.type);
                in.aux = ai(&node.name);
                return;
            }
            case lang::Binding::Kind::Static: {
                Instr& in = emit(Op::LoadStatic, node.span);
                in.a = node.binding.index;
                in.type = ti(&node.type);
                in.aux = ai(&node.name);
                return;
            }
            default: {  // Binding::Kind::Function
                Instr& in = emit(Op::PushFn, node.span);
                in.a = node.binding.index;
                return;
            }
        }
    }

    void compile_unary(const lang::UnaryExpr& node) {
        emit(Op::Step, node.span);
        switch (node.op) {
            case lang::UnaryOp::Neg: {
                compile_expr(*node.operand);
                emit(Op::Neg, node.span).type = ti(&node.type);
                return;
            }
            case lang::UnaryOp::Not: {
                compile_expr(*node.operand);
                if (node.type.is_bool()) {
                    emit(Op::NotBool);
                } else {
                    emit(Op::NotBits).type = ti(&node.type);
                }
                return;
            }
            case lang::UnaryOp::Deref: {
                compile_expr(*node.operand);
                Instr& in = emit(Op::LoadThrough, node.span);
                in.type = ti(&node.type);
                return;
            }
            case lang::UnaryOp::AddrOf:
            case lang::UnaryOp::AddrOfMut: {
                const Type* place_type = compile_place(*node.operand);
                Instr& in = emit(Op::RetagRef, node.span);
                in.a = node.op == lang::UnaryOp::AddrOfMut ? 1 : 0;
                in.imm = place_type != nullptr ? place_type->size_bytes() : 0;
                return;
            }
        }
    }

    void compile_binary(const lang::BinaryExpr& node) {
        emit(Op::Step, node.span);
        compile_expr(*node.lhs);
        if (node.op == lang::BinaryOp::And || node.op == lang::BinaryOp::Or) {
            const std::int32_t short_circuit = emit_jump(
                node.op == lang::BinaryOp::And ? Op::AndJump : Op::OrJump);
            compile_expr(*node.rhs);
            patch(short_circuit, pc());
            emit(Op::BoolNorm);
            return;
        }
        compile_expr(*node.rhs);
        Instr& in = emit(Op::Binary, node.span);
        in.a = static_cast<std::int32_t>(node.op);
        in.type = ti(&node.type);
        in.aux = ai(&node.lhs->type);
    }

    void compile_cast(const lang::CastExpr& node) {
        emit(Op::Step, node.span);
        compile_expr(*node.operand);
        const Type& source = node.operand->type;
        const Type& target = node.target;
        const miri::CastKind kind = miri::classify_cast(source, target);
        if (kind == miri::CastKind::RawToRaw || kind == miri::CastKind::FnToFn) {
            return;  // identity: value unchanged
        }
        Instr& in = emit(Op::Cast, node.span);
        in.a = static_cast<std::int32_t>(kind);
        switch (kind) {
            case miri::CastKind::IntFromInt:
                in.b = source.is_signed_integer() ? 1 : 0;
                in.small = static_cast<std::uint8_t>(source.size_bytes());
                in.type = ti(&target);
                break;
            case miri::CastKind::PtrToInt:
            case miri::CastKind::FnToInt:
                in.type = ti(&target);
                break;
            case miri::CastKind::RefToRaw:
                in.small = target.is_mut() ? 1 : 0;
                in.imm = source.element().size_bytes();
                break;
            case miri::CastKind::Unsupported:
                in.type = ti(&target);
                in.aux = ai(&source);
                break;
            default:
                break;
        }
    }

    void compile_call(const lang::CallExpr& node) {
        emit(Op::Step, node.span);
        for (const auto& arg : node.args) {
            compile_expr(*arg);
        }
        switch (node.binding.kind) {
            case lang::Binding::Kind::Intrinsic: {
                const auto id = static_cast<lang::IntrinsicId>(node.binding.index);
                const miri::IntrinsicFacts facts = miri::intrinsic_facts(id, node);
                Instr& in = emit(Op::Intrinsic, node.span);
                in.a = static_cast<std::int32_t>(id);
                in.b = static_cast<std::int32_t>(node.args.size());
                in.small = facts.int_width;
                in.flag = facts.is_signed ? 1 : 0;
                in.imm = facts.pointee_size;
                return;
            }
            case lang::Binding::Kind::Local: {
                Instr& in = emit(Op::CallLocalPtr, node.span);
                in.a = node.binding.index;
                in.b = static_cast<std::int32_t>(node.args.size());
                in.aux = ai(&node.callee);
                return;
            }
            default: {  // Binding::Kind::Function
                Instr& in = emit(Op::CallDirect, node.span);
                in.a = node.binding.index;
                in.b = static_cast<std::int32_t>(node.args.size());
                return;
            }
        }
    }

    const lang::Program& program_;
    VmProgram out_;
    std::vector<ScopeInfo> scopes_;
    std::map<std::array<std::uint32_t, 4>, std::uint32_t> span_ids_;
    /// One entry per distinct interned type (DESIGN.md §18).
    std::unordered_map<const lang::TypeNode*, std::uint32_t> type_ids_;
    std::map<const void*, std::uint32_t> aux_ids_;
};

}  // namespace

VmProgram compile(const lang::Program& program) {
    return Compiler(program).compile();
}

VmProgram compile(const lang::Program& program,
                  const miri::LoweredProgram& /*ignored*/) {
    return compile(program);
}

}  // namespace rustbrain::vm
