#include "miri/interp.hpp"

#include <stdexcept>

#include "lang/typecheck.hpp"

namespace rustbrain::miri {

using lang::Type;

Interpreter::Interpreter(const lang::Program& program,
                         std::vector<std::int64_t> inputs, InterpLimits limits,
                         const LoweredProgram* /*ignored*/)
    : m_(program, std::move(inputs), limits) {
    // Room for one frame of every function before the first call, so a
    // run without recursion never grows these lists 1, 2, 4, ...
    frames_.reserve(program.functions.size());
    slots_.reserve(frame_slots(program));
    live_.reserve(frame_slots(program));
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

RunResult Interpreter::run() {
    return m_.run([this] {
        setup_statics();
        if (m_.faulted()) return;
        const std::int32_t main_fn = m_.main_fn();
        if (main_fn < 0) return;
        call_function(main_fn, {},
                      m_.program.functions[static_cast<std::size_t>(main_fn)].span,
                      Type::unit());
    });
}

ScreenRun Interpreter::screen(std::uint64_t max_ops, std::uint64_t ops_spent) {
    screening_ = true;
    max_ops_ = max_ops;
    ops_ = ops_spent;
    RunResult result = run();
    ScreenRun screen;
    screen.ops = ops_;
    if (stopped_) {
        screen.stop = std::move(result.finding->message);
    } else {
        screen.finding = std::move(result.finding);
    }
    return screen;
}

void Interpreter::stop(std::string reason) {
    if (m_.faulted()) return;
    stopped_ = true;
    m_.faults.raise(UbCategory::CompileError, std::move(reason), {});
}

void Interpreter::setup_statics() {
    static_allocs_.reserve(m_.program.statics.size());
    for (const auto& item : m_.program.statics) {
        const AllocId alloc =
            m_.mem.allocate(item.type.size_bytes(), item.type.align_bytes(),
                            AllocKind::Static, item.name, item.span);
        static_allocs_.push_back(alloc);
        if (m_.faulted()) return;
        const Value init = eval_expr(*item.init);
        if (m_.faulted()) return;
        m_.mem.store(m_.mem.base_pointer(alloc), item.type, init,
                     m_.access_ctx(item.span));
    }
}

// ---------------------------------------------------------------------------
// Frames / locals
// ---------------------------------------------------------------------------

void Interpreter::declare_local(std::int32_t slot, std::string_view name,
                                const Type& type, const Value& value,
                                support::SourceSpan span) {
    const AllocId alloc = m_.mem.allocate(type.size_bytes(), type.align_bytes(),
                                          AllocKind::Stack, name, span);
    m_.mem.store(m_.mem.base_pointer(alloc), type, value, m_.access_ctx(span));
    const std::size_t at = frames_.back().slot_base + static_cast<std::size_t>(slot);
    slots_[at] = {alloc, type};
    live_.push_back(at);
}

void Interpreter::kill_to(std::size_t mark) {
    for (std::size_t i = mark; i < live_.size(); ++i) {
        m_.mem.kill(slots_[live_[i]].alloc);
    }
    if (live_.size() > mark) live_.resize(mark);
}

Value Interpreter::call_function(std::int32_t fn_index, std::vector<Value> args,
                                 support::SourceSpan span,
                                 const Type& result_type) {
    if (!m_.enter_call(fn_index, span)) return neutral_value(result_type);
    Value result = Value::unit();
    // Trampoline: a `become` in the callee surfaces as Flow::TailCall and
    // replaces this frame in place, so arbitrarily long tail-call chains
    // use O(1) native stack and never grow the call depth.
    while (true) {
        const lang::FnItem& fn =
            m_.program.functions[static_cast<std::size_t>(fn_index)];
        const Frame frame{slots_.size(), live_.size()};
        frames_.push_back(frame);
        slots_.resize(frame.slot_base + fn.slot_count);
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            declare_local(static_cast<std::int32_t>(i), fn.params[i].name,
                          fn.params[i].type,
                          i < args.size() ? args[i] : Value::unit(), fn.span);
        }
        ExecResult exec = exec_block(fn.body);
        kill_to(frame.live_base);
        slots_.resize(frame.slot_base);
        frames_.pop_back();
        if (m_.faulted()) {
            // The body stopped early: its result (or tail-call target) is
            // not the function's.
            result = neutral_value(result_type);
            break;
        }
        if (exec.flow == Flow::TailCall) {
            fn_index = exec.tail_fn;
            args = std::move(exec.tail_args);
            continue;
        }
        if (exec.flow == Flow::Return) {
            result = exec.value;
        }
        break;
    }
    --m_.call_depth;
    return result;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interpreter::ExecResult Interpreter::exec_block(const lang::Block& block) {
    const std::size_t mark = live_.size();
    ExecResult result;
    for (const auto& stmt : block.statements) {
        result = exec_statement(*stmt);
        if (result.flow != Flow::Normal) break;
    }
    kill_to(mark);
    return result;
}

Interpreter::ExecResult Interpreter::exec_statement(const lang::Stmt& stmt) {
    step(stmt.span);
    if (m_.faulted()) return {};
    switch (stmt.kind) {
        case lang::StmtKind::Let: {
            const auto& node = static_cast<const lang::LetStmt&>(stmt);
            const Value value = eval_expr(*node.init);
            const Type& type =
                node.declared_type ? *node.declared_type : node.init->type;
            declare_local(node.slot, node.name, type, value, node.span);
            return {};
        }
        case lang::StmtKind::Assign: {
            const auto& node = static_cast<const lang::AssignStmt&>(stmt);
            const Value value = eval_expr(*node.value);
            const Place place = eval_place(*node.place);
            if (screening_) charge();
            m_.mem.store(place.ptr, place.type, value, m_.access_ctx(node.span));
            return {};
        }
        case lang::StmtKind::Expr: {
            const auto& node = static_cast<const lang::ExprStmt&>(stmt);
            eval_expr(*node.expr);
            return {};
        }
        case lang::StmtKind::If: {
            const auto& node = static_cast<const lang::IfStmt&>(stmt);
            if (eval_expr(*node.condition).as_bool()) {
                return exec_block(node.then_block);
            }
            if (node.else_block) {
                return exec_block(*node.else_block);
            }
            return {};
        }
        case lang::StmtKind::While: {
            const auto& node = static_cast<const lang::WhileStmt&>(stmt);
            while (!m_.faulted() && eval_expr(*node.condition).as_bool()) {
                step(node.span);
                ExecResult result = exec_block(node.body);
                if (result.flow != Flow::Normal) return result;
            }
            return {};
        }
        case lang::StmtKind::Return: {
            const auto& node = static_cast<const lang::ReturnStmt&>(stmt);
            ExecResult result;
            result.flow = Flow::Return;
            result.value = node.value ? eval_expr(*node.value) : Value::unit();
            return result;
        }
        case lang::StmtKind::Block:
            return exec_block(static_cast<const lang::BlockStmt&>(stmt).block);
        case lang::StmtKind::Unsafe:
            return exec_block(static_cast<const lang::UnsafeStmt&>(stmt).block);
        case lang::StmtKind::Become: {
            if (screening_) {
                stop("tail calls (become) are not modelled");
                return {};
            }
            const auto& node = static_cast<const lang::BecomeStmt&>(stmt);
            const Value callee = eval_expr(*node.callee);
            std::vector<Value> args;
            args.reserve(node.args.size());
            for (const auto& arg : node.args) {
                args.push_back(eval_expr(*arg));
            }
            // Guaranteed tail call: the current frame's locals die *before*
            // the callee runs. Pointers into this frame become dangling, and
            // accesses to them are classified as TailCall UB. Enclosing
            // blocks then find nothing left to kill on the way out to the
            // call_function trampoline.
            const std::size_t base = frames_.back().live_base;
            for (std::size_t i = base; i < live_.size(); ++i) {
                m_.mem.kill_for_tail_call(slots_[live_[i]].alloc);
            }
            live_.resize(base);
            ExecResult result;
            result.flow = Flow::TailCall;
            // Validate now so a bad target is attributed to the become site.
            result.tail_fn = m_.resolve_fn_target(
                callee.as_fn(), node.callee->type, node.span, /*is_become=*/true);
            result.tail_args = std::move(args);
            return result;
        }
    }
    return {};
}

// ---------------------------------------------------------------------------
// Places
// ---------------------------------------------------------------------------

Interpreter::Place Interpreter::eval_place(const lang::Expr& expr) {
    switch (expr.kind) {
        case lang::ExprKind::VarRef: {
            const lang::Binding& binding =
                static_cast<const lang::VarRefExpr&>(expr).binding;
            if (binding.kind == lang::Binding::Kind::Local) {
                return {m_.mem.base_pointer(local(binding.index).alloc), expr.type};
            }
            if (binding.kind == lang::Binding::Kind::Static) {
                return {m_.mem.base_pointer(
                            static_allocs_[static_cast<std::size_t>(binding.index)]),
                        expr.type};
            }
            break;
        }
        case lang::ExprKind::Unary: {
            const auto& node = static_cast<const lang::UnaryExpr&>(expr);
            if (node.op != lang::UnaryOp::Deref) break;
            if (screening_) {
                stop("deref places are not modelled");
                return {Pointer{}, expr.type};
            }
            const Value ptr_value = eval_expr(*node.operand);
            return {ptr_value.as_ptr(), expr.type};
        }
        case lang::ExprKind::Index: {
            const auto& node = static_cast<const lang::IndexExpr&>(expr);
            const Type& base_type = node.base->type;
            Pointer base_ptr;
            Type array_type = base_type;
            if (base_type.is_ref() && base_type.element().is_array()) {
                if (screening_) {
                    stop("indexing through a reference is not modelled");
                    return {Pointer{}, expr.type};
                }
                // Indexing through a reference loads the reference value.
                base_ptr = eval_expr(*node.base).as_ptr();
                array_type = base_type.element();
            } else {
                const Place base_place = eval_place(*node.base);
                base_ptr = base_place.ptr;
                array_type = base_place.type;
            }
            const std::uint64_t i = eval_expr(*node.index).bits();
            if (!check_index(m_.faults, i, array_type.array_length(),
                             node.span)) {
                return {Pointer{}, array_type.element()};
            }
            Pointer element_ptr = base_ptr;
            element_ptr.addr += i * array_type.element().size_bytes();
            return {element_ptr, array_type.element()};
        }
        default:
            break;
    }
    throw std::logic_error("eval_place: expression is not a place");
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value Interpreter::eval_expr(const lang::Expr& expr) {
    step(expr.span);
    switch (expr.kind) {
        case lang::ExprKind::IntLit: {
            const auto& node = static_cast<const lang::IntLitExpr&>(expr);
            return arith_result(node.value, expr.type);
        }
        case lang::ExprKind::BoolLit:
            return Value::boolean(static_cast<const lang::BoolLitExpr&>(expr).value);
        case lang::ExprKind::VarRef: {
            const lang::Binding& binding =
                static_cast<const lang::VarRefExpr&>(expr).binding;
            if (binding.kind == lang::Binding::Kind::Function) {
                return Value::function(FnPtrVal{binding.index});
            }
            const Place place = eval_place(expr);
            if (screening_) charge();
            return m_.mem.load(place.ptr, place.type, m_.access_ctx(expr.span));
        }
        case lang::ExprKind::Unary:
            return eval_unary(static_cast<const lang::UnaryExpr&>(expr));
        case lang::ExprKind::Binary:
            return eval_binary(static_cast<const lang::BinaryExpr&>(expr));
        case lang::ExprKind::Cast:
            return eval_cast(static_cast<const lang::CastExpr&>(expr));
        case lang::ExprKind::Index: {
            const Place place = eval_place(expr);
            if (screening_) charge();
            return m_.mem.load(place.ptr, place.type, m_.access_ctx(expr.span));
        }
        case lang::ExprKind::Call:
            return eval_call(static_cast<const lang::CallExpr&>(expr));
        case lang::ExprKind::CallPtr:
            return eval_call_ptr(static_cast<const lang::CallPtrExpr&>(expr));
        case lang::ExprKind::ArrayLit: {
            const auto& node = static_cast<const lang::ArrayLitExpr&>(expr);
            std::vector<Value> elements;
            elements.reserve(node.elements.size());
            for (const auto& element : node.elements) {
                elements.push_back(eval_expr(*element));
            }
            return Value::array(std::move(elements));
        }
        case lang::ExprKind::ArrayRepeat: {
            const auto& node = static_cast<const lang::ArrayRepeatExpr&>(expr);
            const Value element = eval_expr(*node.element);
            return m_.array_repeat(element, node.count,
                                   node.element->type.size_bytes(), node.span);
        }
    }
    return Value::unit();
}

Value Interpreter::eval_unary(const lang::UnaryExpr& expr) {
    switch (expr.op) {
        case lang::UnaryOp::Neg:
            return negate(m_.faults, eval_expr(*expr.operand), expr.type,
                          expr.span);
        case lang::UnaryOp::Not: {
            const Value operand = eval_expr(*expr.operand);
            if (expr.type.is_bool()) {
                return Value::boolean(!operand.as_bool());
            }
            return bitwise_not(operand, expr.type);
        }
        case lang::UnaryOp::Deref: {
            if (screening_) {
                stop("dereferences are not modelled");
                return neutral_value(expr.type);
            }
            const Place place = eval_place(expr);
            return m_.mem.load(place.ptr, place.type, m_.access_ctx(expr.span));
        }
        case lang::UnaryOp::AddrOf:
        case lang::UnaryOp::AddrOfMut: {
            if (screening_) {
                stop("borrows are not modelled");
                return neutral_value(expr.type);
            }
            const Place place = eval_place(*expr.operand);
            const bool is_mut = expr.op == lang::UnaryOp::AddrOfMut;
            const Pointer tagged = m_.mem.retag_ref(
                place.ptr, place.type.size_bytes(), is_mut, expr.span);
            return Value::pointer(tagged);
        }
    }
    return Value::unit();
}

Value Interpreter::eval_binary(const lang::BinaryExpr& expr) {
    using lang::BinaryOp;
    // Short-circuit operators first.
    if (expr.op == BinaryOp::And) {
        if (!eval_expr(*expr.lhs).as_bool()) return Value::boolean(false);
        return Value::boolean(eval_expr(*expr.rhs).as_bool());
    }
    if (expr.op == BinaryOp::Or) {
        if (eval_expr(*expr.lhs).as_bool()) return Value::boolean(true);
        return Value::boolean(eval_expr(*expr.rhs).as_bool());
    }

    const Value lhs = eval_expr(*expr.lhs);
    const Value rhs = eval_expr(*expr.rhs);
    return binary_op(m_.faults, expr.op, expr.type, expr.lhs->type, expr.span,
                     lhs, rhs);
}

Value Interpreter::eval_cast(const lang::CastExpr& expr) {
    const Value operand = eval_expr(*expr.operand);
    const Type& source = expr.operand->type;
    const Type& target = expr.target;
    const CastKind kind = classify_cast(source, target);
    if (screening_ && kind != CastKind::IntFromInt &&
        kind != CastKind::FnToInt && kind != CastKind::IntToFn &&
        kind != CastKind::FnToFn) {
        stop("pointer casts are not modelled");
        return neutral_value(target);
    }
    switch (kind) {
        case CastKind::IntFromInt:
            return int_cast(operand, source.is_signed_integer(),
                            source.size_bytes(), target);
        case CastKind::IntToRawPtr:
            return Value::pointer(Pointer{operand.bits(), kNoAlloc, kNoTag});
        case CastKind::PtrToInt:
        case CastKind::FnToInt:
            return arith_result(operand.bits(), target);
        case CastKind::RawToRaw:
        case CastKind::FnToFn:
            return operand;
        case CastKind::RefToRaw:
            return Value::pointer(m_.mem.retag_raw(operand.as_ptr(),
                                                   source.element().size_bytes(),
                                                   target.is_mut(), expr.span));
        case CastKind::IntToFn:
            return Value::function(FnPtrVal{
                fn_addr_to_index(operand.bits(), m_.program.functions.size())});
        case CastKind::Unsupported:
            break;
    }
    throw std::logic_error("eval_cast: unexpected cast " + source.to_string() +
                           " as " + target.to_string());
}

Value Interpreter::eval_call(const lang::CallExpr& expr) {
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) {
        args.push_back(eval_expr(*arg));
    }
    switch (expr.binding.kind) {
        case lang::Binding::Kind::Intrinsic: {
            const auto id = static_cast<lang::IntrinsicId>(expr.binding.index);
            if (screening_ && id != lang::IntrinsicId::Input &&
                id != lang::IntrinsicId::PrintInt &&
                id != lang::IntrinsicId::PrintBool &&
                id != lang::IntrinsicId::Assert &&
                id != lang::IntrinsicId::Panic) {
                stop("intrinsic '" + expr.callee + "' is not modelled");
                return neutral_value(expr.type);
            }
            // A joined thread's body runs on its own frames: frames_,
            // slots_ and live_ are plain stacks, so its pushes and pops
            // nest around this call.
            return m_.intrinsic(
                id, args, intrinsic_facts(id, expr), expr.span,
                [this](std::int32_t entry_fn, support::SourceSpan span) {
                    call_function(entry_fn, {}, span, Type::unit());
                });
        }
        case lang::Binding::Kind::Local: {
            // A fn-pointer local called by name.
            const LocalSlot& callee = local(expr.binding.index);
            const Value value = m_.mem.load(m_.mem.base_pointer(callee.alloc),
                                            callee.type, m_.access_ctx(expr.span));
            return call_function(
                m_.resolve_fn_target(value.as_fn(), callee.type, expr.span,
                                     /*is_become=*/false),
                std::move(args), expr.span, expr.type);
        }
        default:  // Binding::Kind::Function
            return call_function(expr.binding.index, std::move(args), expr.span,
                                 expr.type);
    }
}

Value Interpreter::eval_call_ptr(const lang::CallPtrExpr& expr) {
    const Value callee = eval_expr(*expr.callee);
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) {
        args.push_back(eval_expr(*arg));
    }
    return call_function(m_.resolve_fn_target(callee.as_fn(), expr.callee->type,
                                              expr.span, /*is_become=*/false),
                         std::move(args), expr.span, expr.type);
}

}  // namespace rustbrain::miri
