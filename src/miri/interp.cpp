#include "miri/interp.hpp"

#include <limits>
#include <stdexcept>

#include "lang/typecheck.hpp"

namespace rustbrain::miri {

using lang::Type;

Interpreter::Interpreter(const lang::Program& program,
                         std::vector<std::int64_t> inputs, InterpLimits limits,
                         const LoweredProgram* /*ignored*/)
    : program_(program), inputs_(std::move(inputs)), limits_(limits) {}

void Interpreter::panic(std::string message, support::SourceSpan span) const {
    throw PanicException{std::move(message), span};
}

void Interpreter::step(const support::SourceSpan& span) {
    if (++steps_ > limits_.max_steps) {
        panic("step limit exceeded (possible infinite loop)", span);
    }
}

VectorClock& Interpreter::current_vc() {
    if (current_thread_ == 0) return main_vc_;
    return threads_[current_thread_ - 1].vc;
}

AccessCtx Interpreter::access_ctx(support::SourceSpan span, bool atomic) const {
    AccessCtx ctx;
    ctx.tid = current_thread_;
    // Skip race bookkeeping entirely until the first spawn: single-threaded
    // programs cannot race and this keeps the common path fast.
    ctx.vc = multithreaded_
                 ? (current_thread_ == 0 ? &main_vc_
                                         : &threads_[current_thread_ - 1].vc)
                 : nullptr;
    ctx.atomic = atomic;
    ctx.span = span;
    return ctx;
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

RunResult Interpreter::run() {
    RunResult result;
    try {
        setup_statics();
        const lang::FnItem* main_fn = program_.find_function("main");
        if (main_fn == nullptr) {
            throw UbException{Finding{UbCategory::CompileError,
                                      "program has no 'main' function",
                                      {}}};
        }
        const std::int32_t main_index = static_cast<std::int32_t>(
            main_fn - program_.functions.data());
        call_function(main_index, {}, main_fn->span);

        // Post-main checks (mirrors Miri's machine teardown).
        for (const ThreadState& thread : threads_) {
            if (!thread.joined) {
                throw UbException{Finding{
                    UbCategory::Concurrency,
                    "thread leaked: spawned thread was never joined before main exited",
                    {}}};
            }
        }
        for (std::size_t i = 0; i < mutexes_.size(); ++i) {
            if (mutexes_[i].held_by.has_value()) {
                throw UbException{Finding{
                    UbCategory::Concurrency,
                    "mutex " + std::to_string(i + 1) + " still held at main exit",
                    {}}};
            }
        }
        if (auto leak = mem_.check_leaks()) {
            throw UbException{*leak};
        }
    } catch (const UbException& ub) {
        result.finding = ub.finding;
    } catch (const PanicException& p) {
        result.finding = Finding{UbCategory::Panic, p.message, p.span};
    }
    result.output = output_;
    result.steps = steps_;
    return result;
}

void Interpreter::setup_statics() {
    for (const auto& item : program_.statics) {
        const AllocId alloc = mem_.allocate(item.type.size_bytes(),
                                            item.type.align_bytes(),
                                            AllocKind::Static, item.name, item.span);
        static_allocs_[item.name] = alloc;
        const Value init = eval_expr(*item.init);
        mem_.store(mem_.base_pointer(alloc), item.type, init,
                   access_ctx(item.span));
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
    const AllocId alloc = mem_.allocate(type.size_bytes(), type.align_bytes(),
                                        AllocKind::Stack, name, span);
    mem_.store(mem_.base_pointer(alloc), type, value, access_ctx(span));
    frames_.back().scopes.back().locals.push_back({name, alloc, type});
}

void Interpreter::kill_scope(Scope& scope) {
    for (const LocalSlot& local : scope.locals) {
        mem_.kill(local.alloc);
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
                                 support::SourceSpan span) {
    if (fn_index < 0 ||
        static_cast<std::size_t>(fn_index) >= program_.functions.size()) {
        throw UbException{Finding{UbCategory::FuncCall,
                                  "calling a pointer that is not a function",
                                  span}};
    }
    if (++call_depth_ > limits_.max_call_depth) {
        --call_depth_;
        panic("stack overflow: call depth exceeded " +
                  std::to_string(limits_.max_call_depth),
              span);
    }
    Value result = Value::unit();
    // Trampoline: a `become` in the callee surfaces as Flow::TailCall and
    // replaces this frame in place, so arbitrarily long tail-call chains
    // use O(1) native stack and never grow call_depth_.
    while (true) {
        const lang::FnItem& fn =
            program_.functions[static_cast<std::size_t>(fn_index)];
        frames_.emplace_back();
        frames_.back().scopes.emplace_back();
        ExecResult exec;
        try {
            for (std::size_t i = 0; i < fn.params.size(); ++i) {
                declare_local(fn.params[i].name, fn.params[i].type,
                              i < args.size() ? args[i] : Value::unit(), fn.span);
            }
            exec = exec_block(fn.body);
        } catch (...) {
            kill_frame(frames_.back());
            frames_.pop_back();
            --call_depth_;
            throw;
        }
        kill_frame(frames_.back());
        frames_.pop_back();
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
    --call_depth_;
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
    step(stmt.span);
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
            mem_.store(place.ptr, place.type, value, access_ctx(node.span));
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
            while (eval_expr(*node.condition).as_bool()) {
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
                    mem_.kill_for_tail_call(local.alloc);
                }
                scope.locals.clear();
            }
            ExecResult result;
            result.flow = Flow::TailCall;
            // Validate now so a bad target is attributed to the become site.
            result.tail_fn = resolve_fn_target(callee.as_fn(), node.callee->type,
                                               node.span, /*is_become=*/true);
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
                return {mem_.base_pointer(local->alloc), local->type};
            }
            if (auto it = static_allocs_.find(node.name); it != static_allocs_.end()) {
                const lang::StaticItem* item = program_.find_static(node.name);
                return {mem_.base_pointer(it->second), item->type};
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
            const Value index = eval_expr(*node.index);
            const std::uint64_t i = index.bits();
            if (i >= array_type.array_length()) {
                panic("index out of bounds: the len is " +
                          std::to_string(array_type.array_length()) +
                          " but the index is " + std::to_string(i),
                      node.span);
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

std::int64_t Interpreter::signed_value(const Value& v, const Type& t) const {
    return v.as_signed(t.size_bytes());
}

Value Interpreter::arith_result(std::uint64_t bits, const Type& type) {
    return Value::scalar(truncate_to_type(bits, type));
}

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
            const auto& node = static_cast<const lang::VarRefExpr&>(expr);
            if (find_local(node.name) != nullptr ||
                static_allocs_.count(node.name) != 0) {
                const Place place = eval_place(expr);
                return mem_.load(place.ptr, place.type, access_ctx(node.span));
            }
            // Function item used as a value.
            const lang::FnItem* fn = program_.find_function(node.name);
            if (fn == nullptr) {
                throw std::logic_error("unresolved name '" + node.name + "'");
            }
            return Value::function(FnPtrVal{
                static_cast<std::int32_t>(fn - program_.functions.data())});
        }
        case lang::ExprKind::Unary:
            return eval_unary(static_cast<const lang::UnaryExpr&>(expr));
        case lang::ExprKind::Binary:
            return eval_binary(static_cast<const lang::BinaryExpr&>(expr));
        case lang::ExprKind::Cast:
            return eval_cast(static_cast<const lang::CastExpr&>(expr));
        case lang::ExprKind::Index: {
            const Place place = eval_place(expr);
            return mem_.load(place.ptr, place.type, access_ctx(expr.span));
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
            return Value::array(std::vector<Value>(node.count, element));
        }
    }
    return Value::unit();
}

Value Interpreter::eval_unary(const lang::UnaryExpr& expr) {
    switch (expr.op) {
        case lang::UnaryOp::Neg: {
            const Value operand = eval_expr(*expr.operand);
            const std::int64_t value = signed_value(operand, expr.operand->type);
            const std::uint64_t size = expr.type.size_bytes();
            const std::int64_t min_value =
                size >= 8 ? std::numeric_limits<std::int64_t>::min()
                          : -(1LL << (size * 8 - 1));
            if (value == min_value) {
                panic("attempt to negate with overflow", expr.span);
            }
            return arith_result(static_cast<std::uint64_t>(-value), expr.type);
        }
        case lang::UnaryOp::Not: {
            const Value operand = eval_expr(*expr.operand);
            if (expr.type.is_bool()) {
                return Value::boolean(!operand.as_bool());
            }
            return arith_result(~operand.bits(), expr.type);
        }
        case lang::UnaryOp::Deref: {
            const Place place = eval_place(expr);
            return mem_.load(place.ptr, place.type, access_ctx(expr.span));
        }
        case lang::UnaryOp::AddrOf:
        case lang::UnaryOp::AddrOfMut: {
            const Place place = eval_place(*expr.operand);
            const bool is_mut = expr.op == lang::UnaryOp::AddrOfMut;
            const Pointer tagged = mem_.retag_ref(
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
    const Type& operand_type = expr.lhs->type;
    const std::uint64_t size = operand_type.size_bytes();
    const bool is_signed = operand_type.is_signed_integer();

    auto check_overflow = [&](std::int64_t wide, const char* op_name) {
        // `wide` is the mathematically-correct result computed in i64/u64
        // where possible; detect overflow of the *operand* width.
        if (size >= 8) return;  // handled separately below for 64-bit
        if (is_signed) {
            const std::int64_t min_value = -(1LL << (size * 8 - 1));
            const std::int64_t max_value = (1LL << (size * 8 - 1)) - 1;
            if (wide < min_value || wide > max_value) {
                panic(std::string("attempt to ") + op_name + " with overflow",
                      expr.span);
            }
        } else {
            const std::uint64_t max_value = (1ULL << (size * 8)) - 1;
            if (static_cast<std::uint64_t>(wide) > max_value || wide < 0) {
                panic(std::string("attempt to ") + op_name + " with overflow",
                      expr.span);
            }
        }
    };

    switch (expr.op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul: {
            const char* name = expr.op == BinaryOp::Add   ? "add"
                               : expr.op == BinaryOp::Sub ? "subtract"
                                                          : "multiply";
            if (size >= 8) {
                // 64-bit overflow detection via builtins.
                if (is_signed) {
                    const std::int64_t a = signed_value(lhs, operand_type);
                    const std::int64_t b = signed_value(rhs, operand_type);
                    std::int64_t out = 0;
                    bool overflow = false;
                    if (expr.op == BinaryOp::Add) {
                        overflow = __builtin_add_overflow(a, b, &out);
                    } else if (expr.op == BinaryOp::Sub) {
                        overflow = __builtin_sub_overflow(a, b, &out);
                    } else {
                        overflow = __builtin_mul_overflow(a, b, &out);
                    }
                    if (overflow) {
                        panic(std::string("attempt to ") + name + " with overflow",
                              expr.span);
                    }
                    return arith_result(static_cast<std::uint64_t>(out), expr.type);
                }
                const std::uint64_t a = lhs.bits();
                const std::uint64_t b = rhs.bits();
                std::uint64_t out = 0;
                bool overflow = false;
                if (expr.op == BinaryOp::Add) {
                    overflow = __builtin_add_overflow(a, b, &out);
                } else if (expr.op == BinaryOp::Sub) {
                    overflow = __builtin_sub_overflow(a, b, &out);
                } else {
                    overflow = __builtin_mul_overflow(a, b, &out);
                }
                if (overflow) {
                    panic(std::string("attempt to ") + name + " with overflow",
                          expr.span);
                }
                return arith_result(out, expr.type);
            }
            const std::int64_t a = is_signed
                                       ? signed_value(lhs, operand_type)
                                       : static_cast<std::int64_t>(lhs.bits());
            const std::int64_t b = is_signed
                                       ? signed_value(rhs, operand_type)
                                       : static_cast<std::int64_t>(rhs.bits());
            std::int64_t wide = 0;
            if (expr.op == BinaryOp::Add) wide = a + b;
            if (expr.op == BinaryOp::Sub) wide = a - b;
            if (expr.op == BinaryOp::Mul) wide = a * b;
            check_overflow(wide, name);
            return arith_result(static_cast<std::uint64_t>(wide), expr.type);
        }
        case BinaryOp::Div:
        case BinaryOp::Rem: {
            const bool is_div = expr.op == BinaryOp::Div;
            if (rhs.bits() == 0) {
                panic(is_div ? "attempt to divide by zero"
                             : "attempt to calculate the remainder with a divisor of zero",
                      expr.span);
            }
            if (is_signed) {
                const std::int64_t a = signed_value(lhs, operand_type);
                const std::int64_t b = signed_value(rhs, operand_type);
                const std::int64_t min_value =
                    size >= 8 ? std::numeric_limits<std::int64_t>::min()
                              : -(1LL << (size * 8 - 1));
                if (a == min_value && b == -1) {
                    panic(is_div ? "attempt to divide with overflow"
                                 : "attempt to calculate the remainder with overflow",
                          expr.span);
                }
                const std::int64_t out = is_div ? a / b : a % b;
                return arith_result(static_cast<std::uint64_t>(out), expr.type);
            }
            const std::uint64_t out =
                is_div ? lhs.bits() / rhs.bits() : lhs.bits() % rhs.bits();
            return arith_result(out, expr.type);
        }
        case BinaryOp::Shl:
        case BinaryOp::Shr: {
            const std::uint64_t shift = rhs.bits();
            if (shift >= size * 8) {
                panic(expr.op == BinaryOp::Shl
                          ? "attempt to shift left with overflow"
                          : "attempt to shift right with overflow",
                      expr.span);
            }
            if (expr.op == BinaryOp::Shl) {
                return arith_result(lhs.bits() << shift, expr.type);
            }
            if (is_signed) {
                return arith_result(static_cast<std::uint64_t>(
                                        signed_value(lhs, operand_type) >>
                                        static_cast<std::int64_t>(shift)),
                                    expr.type);
            }
            return arith_result(lhs.bits() >> shift, expr.type);
        }
        case BinaryOp::BitAnd:
            return arith_result(lhs.bits() & rhs.bits(), expr.type);
        case BinaryOp::BitOr:
            return arith_result(lhs.bits() | rhs.bits(), expr.type);
        case BinaryOp::BitXor:
            return arith_result(lhs.bits() ^ rhs.bits(), expr.type);
        case BinaryOp::Eq:
            return Value::boolean(lhs.bits() == rhs.bits());
        case BinaryOp::Ne:
            return Value::boolean(lhs.bits() != rhs.bits());
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge: {
            bool result = false;
            if (is_signed) {
                const std::int64_t a = signed_value(lhs, operand_type);
                const std::int64_t b = signed_value(rhs, operand_type);
                result = expr.op == BinaryOp::Lt   ? a < b
                         : expr.op == BinaryOp::Le ? a <= b
                         : expr.op == BinaryOp::Gt ? a > b
                                                   : a >= b;
            } else {
                const std::uint64_t a = lhs.bits();
                const std::uint64_t b = rhs.bits();
                result = expr.op == BinaryOp::Lt   ? a < b
                         : expr.op == BinaryOp::Le ? a <= b
                         : expr.op == BinaryOp::Gt ? a > b
                                                   : a >= b;
            }
            return Value::boolean(result);
        }
        case BinaryOp::And:
        case BinaryOp::Or:
            break;  // handled above
    }
    return Value::unit();
}

Value Interpreter::eval_cast(const lang::CastExpr& expr) {
    const Value operand = eval_expr(*expr.operand);
    const Type& source = expr.operand->type;
    const Type& target = expr.target;

    // int/bool -> int: sign- or zero-extend the source, truncate to target.
    if ((source.is_integer() || source.is_bool()) && target.is_integer()) {
        const std::uint64_t wide =
            source.is_signed_integer()
                ? static_cast<std::uint64_t>(signed_value(operand, source))
                : operand.bits();
        return arith_result(wide, target);
    }
    // int -> raw pointer: provenance-free.
    if (source.is_integer() && target.is_raw_ptr()) {
        return Value::pointer(Pointer{operand.bits(), kNoAlloc, kNoTag});
    }
    // pointer -> int.
    if (source.is_any_pointer() && target.is_integer()) {
        return arith_result(operand.bits(), target);
    }
    // raw pointer -> raw pointer: value unchanged (tag & provenance kept).
    if (source.is_raw_ptr() && target.is_raw_ptr()) {
        return operand;
    }
    // reference -> raw pointer: a retag that pushes a Raw entry.
    if (source.is_ref() && target.is_raw_ptr()) {
        const Pointer raw = mem_.retag_raw(operand.as_ptr(),
                                           source.element().size_bytes(),
                                           target.is_mut(), expr.span);
        return Value::pointer(raw);
    }
    // fn pointer -> int.
    if (source.is_fn_ptr() && target.is_integer()) {
        return arith_result(operand.bits(), target);
    }
    // int -> fn pointer: decode the code address (maybe invalid).
    if (source.is_integer() && target.is_fn_ptr()) {
        return Value::function(FnPtrVal{
            fn_addr_to_index(operand.bits(), program_.functions.size())});
    }
    // fn pointer -> fn pointer: identity (static type changes only).
    if (source.is_fn_ptr() && target.is_fn_ptr()) {
        return operand;
    }
    throw std::logic_error("eval_cast: unexpected cast " + source.to_string() +
                           " as " + target.to_string());
}

std::int32_t Interpreter::resolve_fn_target(const FnPtrVal& fn,
                                            const Type& static_type,
                                            support::SourceSpan span,
                                            bool is_become) const {
    if (!fn.valid() ||
        static_cast<std::size_t>(fn.fn_index) >= program_.functions.size()) {
        throw UbException{
            Finding{is_become ? UbCategory::TailCall : UbCategory::FuncCall,
                    is_become
                        ? "tail call through a pointer that is not a function"
                        : "calling a pointer that is not a function",
                    span}};
    }
    const lang::FnItem& target =
        program_.functions[static_cast<std::size_t>(fn.fn_index)];
    if (static_type.is_fn_ptr() && !(target.fn_type() == static_type)) {
        throw UbException{Finding{
            is_become ? UbCategory::TailCall : UbCategory::FuncPointer,
            std::string(is_become ? "tail call" : "call") +
                " through a function pointer with the wrong signature: pointer says " +
                static_type.to_string() + " but '" + target.name + "' is " +
                target.fn_type().to_string(),
            span}};
    }
    return fn.fn_index;
}

Value Interpreter::call_fn_value(const FnPtrVal& fn, const Type& static_type,
                                 std::vector<Value> args, support::SourceSpan span,
                                 bool is_become) {
    const std::int32_t target =
        resolve_fn_target(fn, static_type, span, is_become);
    return call_function(target, std::move(args), span);
}

Value Interpreter::eval_call(const lang::CallExpr& expr) {
    if (lang::is_intrinsic(expr.callee)) {
        return eval_intrinsic(expr);
    }
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) {
        args.push_back(eval_expr(*arg));
    }
    // Local fn-pointer variable called by name?
    if (const LocalSlot* local = find_local(expr.callee);
        local != nullptr && local->type.is_fn_ptr()) {
        const Value callee =
            mem_.load(mem_.base_pointer(local->alloc), local->type,
                      access_ctx(expr.span));
        return call_fn_value(callee.as_fn(), local->type, std::move(args),
                             expr.span, /*is_become=*/false);
    }
    const lang::FnItem* fn = program_.find_function(expr.callee);
    if (fn == nullptr) {
        throw std::logic_error("call to unknown function '" + expr.callee + "'");
    }
    return call_function(static_cast<std::int32_t>(fn - program_.functions.data()),
                         std::move(args), expr.span);
}

Value Interpreter::eval_call_ptr(const lang::CallPtrExpr& expr) {
    const Value callee = eval_expr(*expr.callee);
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) {
        args.push_back(eval_expr(*arg));
    }
    return call_fn_value(callee.as_fn(), expr.callee->type, std::move(args),
                         expr.span, /*is_become=*/false);
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

void Interpreter::run_thread(ThreadState& thread, support::SourceSpan span) {
    const ThreadId saved_thread = current_thread_;
    current_thread_ = thread.id;
    // The spawned thread body runs with its own empty frame stack; frames_
    // is a plain stack, so pushes/pops nest correctly around this call.
    const std::size_t saved_frames = frames_.size();
    const std::uint32_t saved_depth = call_depth_;
    call_depth_ = 0;
    try {
        call_function(thread.entry_fn, {}, span);
    } catch (...) {
        current_thread_ = saved_thread;
        call_depth_ = saved_depth;
        while (frames_.size() > saved_frames) {
            kill_frame(frames_.back());
            frames_.pop_back();
        }
        throw;
    }
    call_depth_ = saved_depth;
    current_thread_ = saved_thread;
    thread.executed = true;
}

// ---------------------------------------------------------------------------
// Intrinsics
// ---------------------------------------------------------------------------

Value Interpreter::eval_intrinsic(const lang::CallExpr& expr) {
    const std::string& name = expr.callee;
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) {
        args.push_back(eval_expr(*arg));
    }
    auto arg_bits = [&](std::size_t i) {
        return i < args.size() ? args[i].bits() : 0;
    };

    if (name == "alloc") {
        const std::uint64_t size = arg_bits(0);
        const std::uint64_t align = arg_bits(1);
        const AllocId id =
            mem_.allocate(size, align, AllocKind::Heap, "heap", expr.span);
        return Value::pointer(mem_.base_pointer(id));
    }
    if (name == "dealloc") {
        mem_.deallocate(args[0].as_ptr(), arg_bits(1), arg_bits(2), expr.span);
        return Value::unit();
    }
    if (name == "offset") {
        const Pointer p = args[0].as_ptr();
        const std::int64_t count = args[1].as_signed(expr.args[1]->type.size_bytes());
        const Type& ptr_type = expr.args[0]->type;
        const std::int64_t element_size =
            static_cast<std::int64_t>(ptr_type.element().size_bytes());
        return Value::pointer(
            mem_.offset_pointer(p, count * element_size, expr.span));
    }
    if (name == "print_int") {
        const Type& arg_type = expr.args[0]->type;
        if (arg_type.is_signed_integer()) {
            output_.push_back(
                std::to_string(args[0].as_signed(arg_type.size_bytes())));
        } else {
            output_.push_back(std::to_string(args[0].bits()));
        }
        return Value::unit();
    }
    if (name == "print_bool") {
        output_.push_back(args[0].as_bool() ? "true" : "false");
        return Value::unit();
    }
    if (name == "input") {
        const std::uint64_t index = arg_bits(0);
        const std::int64_t value =
            index < inputs_.size() ? inputs_[index] : 0;
        return Value::scalar(static_cast<std::uint64_t>(value));
    }
    if (name == "assert") {
        if (!args[0].as_bool()) {
            panic("assertion failed", expr.span);
        }
        return Value::unit();
    }
    if (name == "panic") {
        panic("explicit panic", expr.span);
    }
    if (name == "spawn") {
        multithreaded_ = true;
        ThreadState thread;
        thread.id = static_cast<ThreadId>(threads_.size() + 1);
        thread.entry_fn = args[0].as_fn().fn_index;
        // Happens-before: everything the parent did so far is visible.
        thread.vc = current_vc();
        thread.vc.increment(thread.id);
        current_vc().increment(current_thread_);
        threads_.push_back(std::move(thread));
        return Value::scalar(threads_.size());
    }
    if (name == "join") {
        const std::uint64_t handle = arg_bits(0);
        if (handle == 0 || handle > threads_.size()) {
            throw UbException{Finding{UbCategory::Concurrency,
                                      "joining an invalid thread handle",
                                      expr.span}};
        }
        ThreadState& thread = threads_[handle - 1];
        if (thread.joined) {
            throw UbException{Finding{UbCategory::Concurrency,
                                      "joining a thread that was already joined",
                                      expr.span}};
        }
        if (!thread.executed) {
            run_thread(thread, expr.span);
        }
        thread.joined = true;
        current_vc().merge(thread.vc);
        current_vc().increment(current_thread_);
        return Value::unit();
    }
    if (name == "mutex_new") {
        mutexes_.emplace_back();
        return Value::scalar(mutexes_.size());
    }
    if (name == "mutex_lock" || name == "mutex_unlock") {
        const std::uint64_t handle = arg_bits(0);
        if (handle == 0 || handle > mutexes_.size()) {
            throw UbException{Finding{UbCategory::Concurrency,
                                      "invalid mutex handle", expr.span}};
        }
        MutexState& mutex = mutexes_[handle - 1];
        if (name == "mutex_lock") {
            if (mutex.held_by.has_value()) {
                throw UbException{Finding{
                    UbCategory::Concurrency,
                    *mutex.held_by == current_thread_
                        ? "deadlock: thread re-locking a mutex it already holds"
                        : "deadlock: locking a mutex held by a finished thread",
                    expr.span}};
            }
            mutex.held_by = current_thread_;
            current_vc().merge(mutex.vc);  // acquire
        } else {
            if (!mutex.held_by.has_value() || *mutex.held_by != current_thread_) {
                throw UbException{Finding{UbCategory::Concurrency,
                                          "unlocking a mutex not held by this thread",
                                          expr.span}};
            }
            mutex.held_by.reset();
            mutex.vc.merge(current_vc());  // release
            current_vc().increment(current_thread_);
        }
        return Value::unit();
    }
    if (name == "atomic_load" || name == "atomic_store" ||
        name == "atomic_fetch_add") {
        const Pointer p = args[0].as_ptr();
        const Type i64_type = Type::i64();
        const bool is_load = name == "atomic_load";
        const bool is_rmw = name == "atomic_fetch_add";
        // Synchronize through the location's clock.
        const std::pair<AllocId, std::uint64_t> key{p.alloc, p.addr};
        VectorClock& loc_vc = atomic_vcs_[key];
        current_vc().merge(loc_vc);  // acquire
        Value result = Value::unit();
        if (is_load) {
            result = mem_.load(p, i64_type, access_ctx(expr.span, /*atomic=*/true));
        } else if (is_rmw) {
            const Value old =
                mem_.load(p, i64_type, access_ctx(expr.span, /*atomic=*/true));
            const std::uint64_t updated = old.bits() + args[1].bits();
            mem_.store(p, i64_type, Value::scalar(updated),
                       access_ctx(expr.span, /*atomic=*/true));
            result = old;
        } else {
            mem_.store(p, i64_type, args[1],
                       access_ctx(expr.span, /*atomic=*/true));
        }
        if (!is_load) {
            loc_vc.merge(current_vc());  // release
            current_vc().increment(current_thread_);
        }
        return result;
    }
    throw std::logic_error("unhandled intrinsic '" + name + "'");
}

}  // namespace rustbrain::miri
