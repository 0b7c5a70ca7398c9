#include "miri/interp.hpp"

#include <stdexcept>

#include "lang/typecheck.hpp"

namespace rustbrain::miri {

using lang::Type;

Interpreter::Interpreter(const lang::Program& program,
                         std::vector<std::int64_t> inputs, InterpLimits limits,
                         const LoweredProgram* /*ignored*/)
    : m_(program, std::move(inputs), limits) {}

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

void Interpreter::setup_statics() {
    for (const auto& item : m_.program.statics) {
        const AllocId alloc =
            m_.mem.allocate(item.type.size_bytes(), item.type.align_bytes(),
                            AllocKind::Static, item.name, item.span);
        static_allocs_[item.name] = alloc;
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

const Interpreter::LocalSlot* Interpreter::find_local(const std::string& name) const {
    if (frames_.empty()) return nullptr;
    const Frame& frame = frames_.back();
    for (auto scope = frame.scopes.rbegin(); scope != frame.scopes.rend(); ++scope) {
        for (auto local = scope->locals.rbegin(); local != scope->locals.rend();
             ++local) {
            if (local->name == name) return &*local;
        }
    }
    return nullptr;
}

void Interpreter::declare_local(const std::string& name, const Type& type,
                                const Value& value, support::SourceSpan span) {
    const AllocId alloc = m_.mem.allocate(type.size_bytes(), type.align_bytes(),
                                          AllocKind::Stack, name, span);
    m_.mem.store(m_.mem.base_pointer(alloc), type, value, m_.access_ctx(span));
    frames_.back().scopes.back().locals.push_back({name, alloc, type});
}

void Interpreter::kill_scope(Scope& scope) {
    for (const LocalSlot& local : scope.locals) {
        m_.mem.kill(local.alloc);
    }
    scope.locals.clear();
}

void Interpreter::kill_frame(Frame& frame) {
    for (auto& scope : frame.scopes) {
        kill_scope(scope);
    }
    frame.scopes.clear();
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
        frames_.emplace_back();
        frames_.back().scopes.emplace_back();
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            declare_local(fn.params[i].name, fn.params[i].type,
                          i < args.size() ? args[i] : Value::unit(), fn.span);
        }
        ExecResult exec = exec_block(fn.body);
        kill_frame(frames_.back());
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
    frames_.back().scopes.emplace_back();
    ExecResult result;
    for (const auto& stmt : block.statements) {
        result = exec_statement(*stmt);
        if (result.flow != Flow::Normal) break;
    }
    kill_scope(frames_.back().scopes.back());
    frames_.back().scopes.pop_back();
    return result;
}

Interpreter::ExecResult Interpreter::exec_statement(const lang::Stmt& stmt) {
    m_.step(stmt.span);
    if (m_.faulted()) return {};
    switch (stmt.kind) {
        case lang::StmtKind::Let: {
            const auto& node = static_cast<const lang::LetStmt&>(stmt);
            const Value value = eval_expr(*node.init);
            const Type& type =
                node.declared_type ? *node.declared_type : node.init->type;
            declare_local(node.name, type, value, node.span);
            return {};
        }
        case lang::StmtKind::Assign: {
            const auto& node = static_cast<const lang::AssignStmt&>(stmt);
            const Value value = eval_expr(*node.value);
            const Place place = eval_place(*node.place);
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
                m_.step(node.span);
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
            const auto& node = static_cast<const lang::BecomeStmt&>(stmt);
            const Value callee = eval_expr(*node.callee);
            std::vector<Value> args;
            args.reserve(node.args.size());
            for (const auto& arg : node.args) {
                args.push_back(eval_expr(*arg));
            }
            // Guaranteed tail call: the current frame's locals die *before*
            // the callee runs. Pointers into this frame become dangling, and
            // accesses to them are classified as TailCall UB. The scope
            // structure is kept so enclosing blocks unwind normally on the
            // way out to the call_function trampoline.
            for (auto& scope : frames_.back().scopes) {
                for (const LocalSlot& local : scope.locals) {
                    m_.mem.kill_for_tail_call(local.alloc);
                }
                scope.locals.clear();
            }
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
            const auto& node = static_cast<const lang::VarRefExpr&>(expr);
            if (const LocalSlot* local = find_local(node.name)) {
                return {m_.mem.base_pointer(local->alloc), local->type};
            }
            if (auto it = static_allocs_.find(node.name); it != static_allocs_.end()) {
                const lang::StaticItem* item = m_.program.find_static(node.name);
                return {m_.mem.base_pointer(it->second), item->type};
            }
            throw std::logic_error("eval_place: unresolved name '" + node.name + "'");
        }
        case lang::ExprKind::Unary: {
            const auto& node = static_cast<const lang::UnaryExpr&>(expr);
            if (node.op != lang::UnaryOp::Deref) break;
            const Value ptr_value = eval_expr(*node.operand);
            return {ptr_value.as_ptr(), expr.type};
        }
        case lang::ExprKind::Index: {
            const auto& node = static_cast<const lang::IndexExpr&>(expr);
            const Type& base_type = node.base->type;
            Pointer base_ptr;
            Type array_type = base_type;
            if (base_type.is_ref() && base_type.element().is_array()) {
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
    m_.step(expr.span);
    switch (expr.kind) {
        case lang::ExprKind::IntLit: {
            const auto& node = static_cast<const lang::IntLitExpr&>(expr);
            return arith_result(node.value, expr.type);
        }
        case lang::ExprKind::BoolLit:
            return Value::boolean(static_cast<const lang::BoolLitExpr&>(expr).value);
        case lang::ExprKind::VarRef: {
            const auto& node = static_cast<const lang::VarRefExpr&>(expr);
            if (find_local(node.name) != nullptr ||
                static_allocs_.count(node.name) != 0) {
                const Place place = eval_place(expr);
                return m_.mem.load(place.ptr, place.type, m_.access_ctx(node.span));
            }
            // Function item used as a value.
            const lang::FnItem* fn = m_.program.find_function(node.name);
            if (fn == nullptr) {
                throw std::logic_error("unresolved name '" + node.name + "'");
            }
            return Value::function(FnPtrVal{
                static_cast<std::int32_t>(fn - m_.program.functions.data())});
        }
        case lang::ExprKind::Unary:
            return eval_unary(static_cast<const lang::UnaryExpr&>(expr));
        case lang::ExprKind::Binary:
            return eval_binary(static_cast<const lang::BinaryExpr&>(expr));
        case lang::ExprKind::Cast:
            return eval_cast(static_cast<const lang::CastExpr&>(expr));
        case lang::ExprKind::Index: {
            const Place place = eval_place(expr);
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
            const Place place = eval_place(expr);
            return m_.mem.load(place.ptr, place.type, m_.access_ctx(expr.span));
        }
        case lang::UnaryOp::AddrOf:
        case lang::UnaryOp::AddrOfMut: {
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
    switch (classify_cast(source, target)) {
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
    if (const lang::IntrinsicId id = lang::intrinsic_id(expr.callee);
        id != lang::IntrinsicId::Unknown) {
        // A joined thread's body runs on its own frame stack: frames_ is a
        // plain stack, so its pushes and pops nest around this call.
        return m_.intrinsic(id, args, intrinsic_facts(id, expr), expr.span,
                            [this](std::int32_t entry_fn, support::SourceSpan span) {
                                call_function(entry_fn, {}, span, Type::unit());
                            });
    }
    // Local fn-pointer variable called by name?
    if (const LocalSlot* local = find_local(expr.callee);
        local != nullptr && local->type.is_fn_ptr()) {
        const Value callee =
            m_.mem.load(m_.mem.base_pointer(local->alloc), local->type,
                        m_.access_ctx(expr.span));
        return call_function(m_.resolve_fn_target(callee.as_fn(), local->type,
                                                  expr.span, /*is_become=*/false),
                             std::move(args), expr.span, expr.type);
    }
    const lang::FnItem* fn = m_.program.find_function(expr.callee);
    if (fn == nullptr) {
        throw std::logic_error("call to unknown function '" + expr.callee + "'");
    }
    return call_function(
        static_cast<std::int32_t>(fn - m_.program.functions.data()),
        std::move(args), expr.span, expr.type);
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
