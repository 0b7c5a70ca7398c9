#include "lang/typecheck.hpp"

namespace rustbrain::lang {

// ---------------------------------------------------------------------------
// Intrinsics
// ---------------------------------------------------------------------------

const std::vector<IntrinsicInfo>& intrinsic_table() {
    using Id = IntrinsicId;
    static const std::vector<IntrinsicInfo> table = {
        {"alloc", 2, false, Id::Alloc},         // alloc(size, align) -> *mut u8
        {"dealloc", 3, true, Id::Dealloc},      // dealloc(ptr, size, align)
        {"offset", 2, true, Id::Offset},        // offset(ptr, count) -> ptr
        {"print_int", 1, false, Id::PrintInt},  // print_int(i64-convertible)
        {"print_bool", 1, false, Id::PrintBool},  // print_bool(bool)
        {"input", 1, false, Id::Input},         // input(index) -> i64
        {"assert", 1, false, Id::Assert},       // assert(bool)
        {"panic", 0, false, Id::Panic},         // panic()
        {"spawn", 1, false, Id::Spawn},         // spawn(fn() ) -> i64 handle
        {"join", 1, false, Id::Join},           // join(handle)
        {"mutex_new", 0, false, Id::MutexNew},  // mutex_new() -> i64
        {"mutex_lock", 1, false, Id::MutexLock},      // mutex_lock(id)
        {"mutex_unlock", 1, false, Id::MutexUnlock},  // mutex_unlock(id)
        {"atomic_load", 1, true, Id::AtomicLoad},     // atomic_load(*const/mut i64) -> i64
        {"atomic_store", 2, true, Id::AtomicStore},   // atomic_store(*mut i64, i64)
        {"atomic_fetch_add", 2, true, Id::AtomicFetchAdd},  // atomic_fetch_add(*mut i64, i64) -> i64
    };
    return table;
}

IntrinsicId intrinsic_id(const std::string& name) {
    for (const auto& info : intrinsic_table()) {
        if (info.name == name) return info.id;
    }
    return IntrinsicId::Unknown;
}

bool is_intrinsic(const std::string& name) {
    return intrinsic_id(name) != IntrinsicId::Unknown;
}

namespace {
/// True when `expr` holds no name and no call anywhere inside.
bool only_literals(const Expr& expr) {
    if (expr.kind == ExprKind::VarRef || expr.kind == ExprKind::Call ||
        expr.kind == ExprKind::CallPtr) {
        return false;
    }
    bool only = true;
    for_each_child(expr, [&](const Expr& child) { only = only && only_literals(child); });
    return only;
}
}  // namespace

// ---------------------------------------------------------------------------
// TypeChecker
// ---------------------------------------------------------------------------

TypeChecker::TypeChecker(support::DiagnosticEngine& diagnostics)
    : diagnostics_(diagnostics) {}

void TypeChecker::error(std::string message, support::SourceSpan span) {
    diagnostics_.error(std::move(message), span);
}

void TypeChecker::require_unsafe(const char* operation, support::SourceSpan span) {
    if (unsafe_depth_ == 0) {
        error(std::string(operation) + " requires an unsafe block or unsafe fn", span);
    }
}

bool TypeChecker::check(Program& program) {
    program_ = &program;
    const std::size_t errors_before = diagnostics_.error_count();

    // Duplicate-name detection.
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
        for (std::size_t j = i + 1; j < program.functions.size(); ++j) {
            if (program.functions[i].name == program.functions[j].name) {
                error("duplicate function '" + program.functions[i].name + "'",
                      program.functions[j].span);
            }
        }
    }
    for (std::size_t i = 0; i < program.statics.size(); ++i) {
        for (std::size_t j = i + 1; j < program.statics.size(); ++j) {
            if (program.statics[i].name == program.statics[j].name) {
                error("duplicate static '" + program.statics[i].name + "'",
                      program.statics[j].span);
            }
        }
    }

    for (auto& item : program.statics) {
        check_static(item);
    }
    for (auto& fn : program.functions) {
        check_function(fn);
    }

    if (const FnItem* main_fn = program.find_function("main")) {
        if (!main_fn->params.empty()) {
            error("'main' must take no parameters", main_fn->span);
        }
        if (!main_fn->return_type.is_unit()) {
            error("'main' must return ()", main_fn->span);
        }
    } else {
        error("program has no 'main' function", {});
    }

    program_ = nullptr;
    return diagnostics_.error_count() == errors_before;
}

void TypeChecker::check_static(StaticItem& item) {
    if (!item.init) {
        error("static '" + item.name + "' lacks an initializer", item.span);
        return;
    }
    // Static initializers must be constant: int/bool literals or array
    // repeat/literal of literals, with no call and no name anywhere inside.
    // So no initializer can see a static before it is set, and no tier
    // needs a rule for that.
    const Expr& init = *item.init;
    const bool constant =
        (init.kind == ExprKind::IntLit || init.kind == ExprKind::BoolLit ||
         init.kind == ExprKind::ArrayRepeat || init.kind == ExprKind::ArrayLit) &&
        only_literals(init);
    if (!constant) {
        error("static initializer must be a literal or array of literals", item.span);
    }
    const Type inferred = check_expr(*item.init, item.type);
    if (!(inferred == item.type)) {
        error("static '" + item.name + "' declared " + item.type.to_string() +
                  " but initialized with " + inferred.to_string(),
              item.span);
    }
}

void TypeChecker::check_function(FnItem& fn) {
    current_fn_ = &fn;
    unsafe_depth_ = fn.is_unsafe ? 1 : 0;
    scopes_.clear();
    next_slot_ = 0;
    push_scope();
    for (const auto& param : fn.params) {
        // Parameters are immutable bindings (mini-Rust has no `mut x: T`),
        // and take slots 0..n-1 in order.
        declare_local(param.name, param.type, /*is_mut=*/false);
    }
    check_block(fn.body, /*enters_scope=*/false);
    pop_scope();
    fn.slot_count = static_cast<std::uint32_t>(next_slot_);
    current_fn_ = nullptr;
}

std::int32_t TypeChecker::declare_local(const std::string& name, Type type,
                                        bool is_mut) {
    // Shadowing is allowed (like Rust): later declarations win on lookup.
    // Every binding gets a fresh slot, so a shadowed one stays live (and
    // is killed) exactly where the tree walk's allocation does.
    scopes_.back().locals.push_back({name, std::move(type), is_mut, next_slot_});
    return next_slot_++;
}

const TypeChecker::LocalVar* TypeChecker::lookup_local(const std::string& name) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
        for (auto local = scope->locals.rbegin(); local != scope->locals.rend();
             ++local) {
            if (local->name == name) return &*local;
        }
    }
    return nullptr;
}

void TypeChecker::check_block(Block& block, bool enters_scope) {
    if (enters_scope) push_scope();
    for (auto& stmt : block.statements) {
        check_statement(*stmt);
    }
    if (enters_scope) pop_scope();
}

void TypeChecker::check_statement(Stmt& stmt) {
    switch (stmt.kind) {
        case StmtKind::Let: {
            auto& node = static_cast<LetStmt&>(stmt);
            Type init_type = check_expr(*node.init, node.declared_type);
            if (node.declared_type && !(init_type == *node.declared_type)) {
                error("let '" + node.name + "': declared " +
                          node.declared_type->to_string() + " but initializer has type " +
                          init_type.to_string(),
                      node.span);
            }
            const Type var_type = node.declared_type ? *node.declared_type : init_type;
            node.slot = declare_local(node.name, var_type, node.is_mut);
            break;
        }
        case StmtKind::Assign: {
            auto& node = static_cast<AssignStmt&>(stmt);
            const Type place_type = check_expr(*node.place);
            require_place(*node.place, /*need_mut=*/true, "assignment target");
            const Type value_type = check_expr(*node.value, place_type);
            if (!(place_type == value_type)) {
                error("assignment type mismatch: place is " + place_type.to_string() +
                          ", value is " + value_type.to_string(),
                      node.span);
            }
            break;
        }
        case StmtKind::Expr: {
            auto& node = static_cast<ExprStmt&>(stmt);
            check_expr(*node.expr);
            break;
        }
        case StmtKind::If: {
            auto& node = static_cast<IfStmt&>(stmt);
            const Type cond = check_expr(*node.condition, Type::boolean());
            if (!cond.is_bool()) {
                error("if condition must be bool, found " + cond.to_string(), node.span);
            }
            check_block(node.then_block);
            if (node.else_block) check_block(*node.else_block);
            break;
        }
        case StmtKind::While: {
            auto& node = static_cast<WhileStmt&>(stmt);
            const Type cond = check_expr(*node.condition, Type::boolean());
            if (!cond.is_bool()) {
                error("while condition must be bool, found " + cond.to_string(),
                      node.span);
            }
            check_block(node.body);
            break;
        }
        case StmtKind::Return: {
            auto& node = static_cast<ReturnStmt&>(stmt);
            const Type expected = current_fn_ ? current_fn_->return_type : Type::unit();
            if (node.value) {
                const Type got = check_expr(*node.value, expected);
                if (!(got == expected)) {
                    error("return type mismatch: fn returns " + expected.to_string() +
                              ", found " + got.to_string(),
                          node.span);
                }
            } else if (!expected.is_unit()) {
                error("bare 'return' in fn returning " + expected.to_string(),
                      node.span);
            }
            break;
        }
        case StmtKind::Block:
            check_block(static_cast<BlockStmt&>(stmt).block);
            break;
        case StmtKind::Unsafe: {
            ++unsafe_depth_;
            check_block(static_cast<UnsafeStmt&>(stmt).block);
            --unsafe_depth_;
            break;
        }
        case StmtKind::Become: {
            auto& node = static_cast<BecomeStmt&>(stmt);
            const Type callee_type = check_expr(*node.callee);
            if (!callee_type.is_fn_ptr()) {
                error("become target must be a function, found " +
                          callee_type.to_string(),
                      node.span);
                break;
            }
            const auto& params = callee_type.fn_params();
            if (params.size() != node.args.size()) {
                error("become argument count mismatch", node.span);
                break;
            }
            for (std::size_t i = 0; i < node.args.size(); ++i) {
                const Type arg = check_expr(*node.args[i], params[i]);
                if (!(arg == params[i])) {
                    error("become argument " + std::to_string(i + 1) + " has type " +
                              arg.to_string() + ", expected " + params[i].to_string(),
                          node.span);
                }
            }
            // A guaranteed tail call must produce the caller's return type.
            const Type expected = current_fn_ ? current_fn_->return_type : Type::unit();
            if (!(callee_type.fn_return() == expected)) {
                error("become target returns " + callee_type.fn_return().to_string() +
                          " but the enclosing fn returns " + expected.to_string(),
                      node.span);
            }
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Places
// ---------------------------------------------------------------------------

bool TypeChecker::is_place(const Expr& expr, bool& is_mut_place) const {
    switch (expr.kind) {
        case ExprKind::VarRef: {
            const auto& node = static_cast<const VarRefExpr&>(expr);
            if (const LocalVar* local = lookup_local(node.name)) {
                is_mut_place = local->is_mut;
                return true;
            }
            if (program_ != nullptr) {
                if (const StaticItem* item = program_->find_static(node.name)) {
                    is_mut_place = item->is_mut;
                    return true;
                }
            }
            return false;
        }
        case ExprKind::Unary: {
            const auto& node = static_cast<const UnaryExpr&>(expr);
            if (node.op != UnaryOp::Deref) return false;
            const Type& pointee_holder = node.operand->type;
            if (pointee_holder.is_raw_ptr() || pointee_holder.is_ref()) {
                is_mut_place = pointee_holder.is_mut();
                return true;
            }
            return false;
        }
        case ExprKind::Index: {
            const auto& node = static_cast<const IndexExpr&>(expr);
            bool base_mut = false;
            // Indexing a reference-to-array dereferences: mutability follows
            // the reference; indexing an array place follows the place.
            if (node.base->type.is_ref()) {
                is_mut_place = node.base->type.is_mut();
                return true;
            }
            if (is_place(*node.base, base_mut)) {
                is_mut_place = base_mut;
                return true;
            }
            return false;
        }
        default:
            return false;
    }
}

void TypeChecker::require_place(const Expr& expr, bool need_mut, const char* what) {
    bool is_mut_place = false;
    if (!is_place(expr, is_mut_place)) {
        error(std::string(what) + " is not a place expression", expr.span);
        return;
    }
    if (need_mut && !is_mut_place) {
        error(std::string(what) + " is not mutable", expr.span);
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Type TypeChecker::check_expr(Expr& expr, const std::optional<Type>& expected) {
    Type result = Type::unit();
    switch (expr.kind) {
        case ExprKind::IntLit: {
            if (expected && expected->is_integer()) {
                result = *expected;
            } else {
                result = Type::i32();
            }
            break;
        }
        case ExprKind::BoolLit:
            result = Type::boolean();
            break;
        case ExprKind::VarRef: {
            // Locals, then statics, then function items.
            auto& node = static_cast<VarRefExpr&>(expr);
            node.binding = {};
            if (const LocalVar* local = lookup_local(node.name)) {
                node.binding = {Binding::Kind::Local, local->slot};
                result = local->type;
            } else if (const StaticItem* item =
                           program_ ? program_->find_static(node.name) : nullptr) {
                if (item->is_mut) {
                    require_unsafe("access to 'static mut'", node.span);
                }
                node.binding = {Binding::Kind::Static,
                                static_cast<std::int32_t>(item - program_->statics.data())};
                result = item->type;
            } else if (const FnItem* fn =
                           program_ ? program_->find_function(node.name) : nullptr) {
                node.binding = {Binding::Kind::Function,
                                static_cast<std::int32_t>(fn - program_->functions.data())};
                result = fn->fn_type(program_->types());
            } else {
                error("unknown name '" + node.name + "'", node.span);
                result = Type::unit();
            }
            break;
        }
        case ExprKind::Unary:
            result = check_unary(static_cast<UnaryExpr&>(expr), expected);
            break;
        case ExprKind::Binary:
            result = check_binary(static_cast<BinaryExpr&>(expr), expected);
            break;
        case ExprKind::Cast:
            result = check_cast(static_cast<CastExpr&>(expr));
            break;
        case ExprKind::Index:
            result = check_index(static_cast<IndexExpr&>(expr));
            break;
        case ExprKind::Call:
            result = check_call(static_cast<CallExpr&>(expr));
            break;
        case ExprKind::CallPtr:
            result = check_call_ptr(static_cast<CallPtrExpr&>(expr));
            break;
        case ExprKind::ArrayLit: {
            auto& node = static_cast<ArrayLitExpr&>(expr);
            std::optional<Type> element_expected;
            if (expected && expected->is_array()) {
                element_expected = expected->element();
            }
            Type element_type = Type::unit();
            for (std::size_t i = 0; i < node.elements.size(); ++i) {
                const Type t = check_expr(*node.elements[i], element_expected);
                if (i == 0) {
                    element_type = t;
                    if (!element_expected) element_expected = t;
                } else if (!(t == element_type)) {
                    error("array literal elements have mixed types", node.span);
                }
            }
            result = program_->types().array(element_type, node.elements.size());
            break;
        }
        case ExprKind::ArrayRepeat: {
            auto& node = static_cast<ArrayRepeatExpr&>(expr);
            std::optional<Type> element_expected;
            if (expected && expected->is_array()) {
                element_expected = expected->element();
            }
            const Type element_type = check_expr(*node.element, element_expected);
            result = program_->types().array(element_type, node.count);
            break;
        }
    }
    expr.type = result;
    return result;
}

Type TypeChecker::check_unary(UnaryExpr& expr, const std::optional<Type>& expected) {
    switch (expr.op) {
        case UnaryOp::Neg: {
            const Type operand = check_expr(*expr.operand, expected);
            if (!operand.is_signed_integer()) {
                error("unary '-' needs a signed integer, found " + operand.to_string(),
                      expr.span);
            }
            return operand;
        }
        case UnaryOp::Not: {
            const Type operand = check_expr(*expr.operand, expected);
            if (!operand.is_bool() && !operand.is_integer()) {
                error("unary '!' needs bool or integer, found " + operand.to_string(),
                      expr.span);
            }
            return operand;
        }
        case UnaryOp::Deref: {
            const Type operand = check_expr(*expr.operand);
            if (operand.is_raw_ptr()) {
                require_unsafe("raw pointer dereference", expr.span);
                return operand.element();
            }
            if (operand.is_ref()) {
                return operand.element();
            }
            error("cannot dereference " + operand.to_string(), expr.span);
            return Type::unit();
        }
        case UnaryOp::AddrOf:
        case UnaryOp::AddrOfMut: {
            const Type operand = check_expr(*expr.operand);
            const bool want_mut = expr.op == UnaryOp::AddrOfMut;
            require_place(*expr.operand, want_mut,
                          want_mut ? "'&mut' operand" : "'&' operand");
            return program_->types().reference(operand, want_mut);
        }
    }
    return Type::unit();
}

Type TypeChecker::check_binary(BinaryExpr& expr, const std::optional<Type>& expected) {
    auto is_untyped_literal = [](const Expr& e) { return e.kind == ExprKind::IntLit; };

    switch (expr.op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Div:
        case BinaryOp::Rem:
        case BinaryOp::BitAnd:
        case BinaryOp::BitOr:
        case BinaryOp::BitXor: {
            // Infer the non-literal side first so literals adopt its type.
            Type lhs;
            Type rhs;
            if (is_untyped_literal(*expr.lhs) && !is_untyped_literal(*expr.rhs)) {
                rhs = check_expr(*expr.rhs, expected);
                lhs = check_expr(*expr.lhs, rhs);
            } else {
                lhs = check_expr(*expr.lhs, expected);
                rhs = check_expr(*expr.rhs, lhs);
            }
            if (!lhs.is_integer() || !rhs.is_integer()) {
                error(std::string("binary '") + binary_op_name(expr.op) +
                          "' needs integers, found " + lhs.to_string() + " and " +
                          rhs.to_string(),
                      expr.span);
            } else if (!(lhs == rhs)) {
                error(std::string("binary '") + binary_op_name(expr.op) +
                          "' type mismatch: " + lhs.to_string() + " vs " +
                          rhs.to_string(),
                      expr.span);
            }
            return lhs;
        }
        case BinaryOp::Shl:
        case BinaryOp::Shr: {
            const Type lhs = check_expr(*expr.lhs, expected);
            const Type rhs = check_expr(*expr.rhs, Type::usize());
            if (!lhs.is_integer() || !rhs.is_integer()) {
                error("shift needs integer operands", expr.span);
            }
            return lhs;
        }
        case BinaryOp::Eq:
        case BinaryOp::Ne:
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge: {
            Type lhs;
            Type rhs;
            if (is_untyped_literal(*expr.lhs) && !is_untyped_literal(*expr.rhs)) {
                rhs = check_expr(*expr.rhs);
                lhs = check_expr(*expr.lhs, rhs);
            } else {
                lhs = check_expr(*expr.lhs);
                rhs = check_expr(*expr.rhs, lhs);
            }
            const bool comparable =
                (lhs.is_integer() && rhs == lhs) || (lhs.is_bool() && rhs.is_bool()) ||
                (lhs.is_raw_ptr() && rhs.is_raw_ptr());
            if (!comparable) {
                error(std::string("cannot compare ") + lhs.to_string() + " with " +
                          rhs.to_string(),
                      expr.span);
            }
            return Type::boolean();
        }
        case BinaryOp::And:
        case BinaryOp::Or: {
            const Type lhs = check_expr(*expr.lhs, Type::boolean());
            const Type rhs = check_expr(*expr.rhs, Type::boolean());
            if (!lhs.is_bool() || !rhs.is_bool()) {
                error("logical operator needs bool operands", expr.span);
            }
            return Type::boolean();
        }
    }
    return Type::unit();
}

Type TypeChecker::check_cast(CastExpr& expr) {
    const Type source = check_expr(*expr.operand);
    const Type& target = expr.target;

    auto ok = [&]() { return target; };

    // int -> int, bool -> int
    if ((source.is_integer() || source.is_bool()) && target.is_integer()) return ok();
    // int -> raw pointer
    if (source.is_integer() && target.is_raw_ptr()) return ok();
    // raw pointer -> int
    if (source.is_raw_ptr() && target.is_integer()) return ok();
    // raw pointer -> raw pointer (any pointee / mutability)
    if (source.is_raw_ptr() && target.is_raw_ptr()) return ok();
    // reference -> raw pointer: same pointee, or array-to-element decay;
    // &T only casts to *const T unless the ref is mut.
    if (source.is_ref() && target.is_raw_ptr()) {
        if (target.is_mut() && !source.is_mut()) {
            error("cannot cast '&' to '*mut' (shared reference is read-only)",
                  expr.span);
            return ok();
        }
        const Type& pointee = source.element();
        if (pointee == target.element()) return ok();
        if (pointee.is_array() && pointee.element() == target.element()) {
            return ok();  // &[T; N] as *const T — mini-Rust decay extension
        }
        error("reference cast changes pointee type: " + source.to_string() + " as " +
                  target.to_string(),
              expr.span);
        return ok();
    }
    // fn pointer -> int
    if (source.is_fn_ptr() && target.is_integer()) return ok();
    // int -> fn pointer: this is how transmuted fn pointers are written.
    if (source.is_integer() && target.is_fn_ptr()) {
        require_unsafe("casting an integer to a function pointer", expr.span);
        return ok();
    }
    // fn pointer -> fn pointer (signature transmute) — unsafe.
    if (source.is_fn_ptr() && target.is_fn_ptr()) {
        if (!(source == target)) {
            require_unsafe("casting between function pointer types", expr.span);
        }
        return ok();
    }

    error("invalid cast from " + source.to_string() + " to " + target.to_string(),
          expr.span);
    return ok();
}

Type TypeChecker::check_index(IndexExpr& expr) {
    const Type base = check_expr(*expr.base);
    const Type index = check_expr(*expr.index, Type::usize());
    if (!index.is_integer()) {
        error("array index must be an integer", expr.span);
    }
    if (base.is_array()) {
        return base.element();
    }
    if (base.is_ref() && base.element().is_array()) {
        return base.element().element();
    }
    error("cannot index into " + base.to_string() +
              " (raw pointers use offset() + deref)",
          expr.span);
    return Type::unit();
}

Type TypeChecker::check_call(CallExpr& expr) {
    // Call position: intrinsics, then a local *of fn-pointer type* (a local
    // of another type does not shadow a function item here), then the
    // function item.
    expr.binding = {};
    if (const IntrinsicId id = intrinsic_id(expr.callee); id != IntrinsicId::Unknown) {
        expr.binding = {Binding::Kind::Intrinsic, static_cast<std::int32_t>(id)};
        return check_intrinsic(expr);
    }
    if (const LocalVar* local = lookup_local(expr.callee);
        local != nullptr && local->type.is_fn_ptr()) {
        // A call through a local fn-pointer variable spelled `f(x)`.
        expr.binding = {Binding::Kind::Local, local->slot};
        const auto& params = local->type.fn_params();
        if (params.size() != expr.args.size()) {
            error("call argument count mismatch for '" + expr.callee + "'",
                  expr.span);
            return local->type.fn_return();
        }
        for (std::size_t i = 0; i < expr.args.size(); ++i) {
            const Type arg = check_expr(*expr.args[i], params[i]);
            if (!(arg == params[i])) {
                error("argument " + std::to_string(i + 1) + " to '" + expr.callee +
                          "' has type " + arg.to_string() + ", expected " +
                          params[i].to_string(),
                      expr.span);
            }
        }
        return local->type.fn_return();
    }
    const FnItem* fn = program_ ? program_->find_function(expr.callee) : nullptr;
    if (fn == nullptr) {
        error("call to unknown function '" + expr.callee + "'", expr.span);
        for (auto& arg : expr.args) check_expr(*arg);
        return Type::unit();
    }
    expr.binding = {Binding::Kind::Function,
                    static_cast<std::int32_t>(fn - program_->functions.data())};
    if (fn->is_unsafe) {
        require_unsafe(("call to unsafe fn '" + expr.callee + "'").c_str(), expr.span);
    }
    if (fn->params.size() != expr.args.size()) {
        error("call to '" + expr.callee + "' expects " +
                  std::to_string(fn->params.size()) + " arguments, found " +
                  std::to_string(expr.args.size()),
              expr.span);
        for (auto& arg : expr.args) check_expr(*arg);
        return fn->return_type;
    }
    for (std::size_t i = 0; i < expr.args.size(); ++i) {
        const Type arg = check_expr(*expr.args[i], fn->params[i].type);
        if (!(arg == fn->params[i].type)) {
            error("argument " + std::to_string(i + 1) + " to '" + expr.callee +
                      "' has type " + arg.to_string() + ", expected " +
                      fn->params[i].type.to_string(),
                  expr.span);
        }
    }
    return fn->return_type;
}

Type TypeChecker::check_call_ptr(CallPtrExpr& expr) {
    const Type callee = check_expr(*expr.callee);
    if (!callee.is_fn_ptr()) {
        error("indirect call target is not a function pointer: " + callee.to_string(),
              expr.span);
        for (auto& arg : expr.args) check_expr(*arg);
        return Type::unit();
    }
    const auto& params = callee.fn_params();
    if (params.size() != expr.args.size()) {
        error("indirect call argument count mismatch", expr.span);
        for (auto& arg : expr.args) check_expr(*arg);
        return callee.fn_return();
    }
    for (std::size_t i = 0; i < expr.args.size(); ++i) {
        const Type arg = check_expr(*expr.args[i], params[i]);
        if (!(arg == params[i])) {
            error("indirect call argument " + std::to_string(i + 1) + " has type " +
                      arg.to_string() + ", expected " + params[i].to_string(),
                  expr.span);
        }
    }
    return callee.fn_return();
}

Type TypeChecker::check_intrinsic(CallExpr& expr) {
    // check_call bound the callee; the table is in IntrinsicId order.
    const IntrinsicInfo* info =
        &intrinsic_table()[static_cast<std::size_t>(expr.binding.index)];
    if (info->requires_unsafe) {
        require_unsafe(("call to '" + expr.callee + "'").c_str(), expr.span);
    }
    if (expr.args.size() != info->arity) {
        error("'" + expr.callee + "' expects " + std::to_string(info->arity) +
                  " arguments, found " + std::to_string(expr.args.size()),
              expr.span);
        for (auto& arg : expr.args) check_expr(*arg);
        // Fall through with a best-effort return type below.
    }

    auto arg_type = [&](std::size_t i, const std::optional<Type>& expected) {
        return i < expr.args.size() ? check_expr(*expr.args[i], expected) : Type::unit();
    };

    const std::string& name = expr.callee;
    if (name == "alloc") {
        const Type size = arg_type(0, Type::usize());
        const Type align = arg_type(1, Type::usize());
        if (!size.is_integer() || !align.is_integer()) {
            error("alloc(size, align) takes integers", expr.span);
        }
        return program_->types().raw_ptr(Type::u8(), /*is_mut=*/true);
    }
    if (name == "dealloc") {
        const Type ptr = arg_type(0, std::nullopt);
        const Type size = arg_type(1, Type::usize());
        const Type align = arg_type(2, Type::usize());
        if (!ptr.is_raw_ptr()) {
            error("dealloc's first argument must be a raw pointer", expr.span);
        }
        if (!size.is_integer() || !align.is_integer()) {
            error("dealloc(ptr, size, align) takes integer size/align", expr.span);
        }
        return Type::unit();
    }
    if (name == "offset") {
        const Type ptr = arg_type(0, std::nullopt);
        const Type count = arg_type(1, Type::scalar(ScalarKind::Isize));
        if (!ptr.is_raw_ptr()) {
            error("offset's first argument must be a raw pointer", expr.span);
            return program_->types().raw_ptr(Type::u8(), false);
        }
        if (!count.is_integer()) {
            error("offset's count must be an integer", expr.span);
        }
        return ptr;
    }
    if (name == "print_int") {
        const Type value = arg_type(0, Type::i64());
        if (!value.is_integer()) {
            error("print_int takes an integer", expr.span);
        }
        return Type::unit();
    }
    if (name == "print_bool") {
        const Type value = arg_type(0, Type::boolean());
        if (!value.is_bool()) {
            error("print_bool takes a bool", expr.span);
        }
        return Type::unit();
    }
    if (name == "input") {
        const Type index = arg_type(0, Type::usize());
        if (!index.is_integer()) {
            error("input takes an integer index", expr.span);
        }
        return Type::i64();
    }
    if (name == "assert") {
        const Type cond = arg_type(0, Type::boolean());
        if (!cond.is_bool()) {
            error("assert takes a bool", expr.span);
        }
        return Type::unit();
    }
    if (name == "panic") {
        return Type::unit();
    }
    if (name == "spawn") {
        const Type f = arg_type(0, std::nullopt);
        if (!f.is_fn_ptr() || !f.fn_params().empty() || !f.fn_return().is_unit()) {
            error("spawn takes a fn() with no parameters and unit return", expr.span);
        }
        return Type::i64();
    }
    if (name == "join" || name == "mutex_lock" || name == "mutex_unlock") {
        const Type handle = arg_type(0, Type::i64());
        if (!handle.is_integer()) {
            error("'" + name + "' takes an integer handle", expr.span);
        }
        return Type::unit();
    }
    if (name == "mutex_new") {
        return Type::i64();
    }
    if (name == "atomic_load") {
        const Type ptr = arg_type(0, std::nullopt);
        if (!ptr.is_raw_ptr() || !(ptr.element() == Type::i64())) {
            error("atomic_load takes *const/mut i64", expr.span);
        }
        return Type::i64();
    }
    if (name == "atomic_store" || name == "atomic_fetch_add") {
        const Type ptr = arg_type(0, std::nullopt);
        const Type value = arg_type(1, Type::i64());
        if (!ptr.is_raw_ptr() || !ptr.is_mut() || !(ptr.element() == Type::i64())) {
            error("'" + name + "' takes *mut i64", expr.span);
        }
        if (!(value == Type::i64())) {
            error("'" + name + "' takes an i64 value", expr.span);
        }
        return name == "atomic_fetch_add" ? Type::i64() : Type::unit();
    }
    error("unhandled intrinsic '" + name + "'", expr.span);
    return Type::unit();
}

bool type_check(Program& program, std::string* error_out) {
    support::DiagnosticEngine diagnostics;
    TypeChecker checker(diagnostics);
    const bool ok = checker.check(program);
    if (!ok && error_out != nullptr) {
        *error_out = diagnostics.summary();
    }
    return ok;
}

}  // namespace rustbrain::lang
