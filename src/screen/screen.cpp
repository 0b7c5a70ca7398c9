#include "screen/screen.hpp"

#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "miri/value.hpp"

namespace rustbrain::screen {

namespace {

using lang::Type;
using miri::Finding;
using miri::UbCategory;
using miri::Value;

// ---------------------------------------------------------------------------
// Internal control flow
// ---------------------------------------------------------------------------

/// The run leaves the modelled subset (or an internal invariant broke):
/// degrade to Unknown. Never escapes screen_program.
struct Bail {
    std::string reason;
};

/// A definite finding on a fully-concrete path: the run would end with
/// exactly this Finding under MiriLite.
struct Definite {
    Finding finding;
};

/// One abstract value with its propagated constraint. Concrete execution
/// keeps `range` a singleton mirroring `value`; a non-singleton range with
/// no exact value is representable (future widening) but any such value
/// reaching a step-, output- or control-flow-relevant position bails.
struct AbsValue {
    Value value;       // exact payload (valid when exact)
    Interval range;    // value constraint (singleton when exact)
    bool exact = true;
};

AbsValue make_abs(Value value) {
    AbsValue out;
    // Arrays have no single bit pattern; their elements carry their own
    // constraints. Every other kind gets its exact singleton interval.
    if (value.kind() != Value::Kind::Array) {
        out.range =
            Interval::singleton(static_cast<std::int64_t>(value.bits()));
    }
    out.value = std::move(value);
    return out;
}

/// The payload of an abstract value that must be exact to proceed.
const Value& exact(const AbsValue& v) {
    if (!v.exact) throw Bail{"non-singleton constraint reached an exact position"};
    return v.value;
}

// ---------------------------------------------------------------------------
// The mirror interpreter
// ---------------------------------------------------------------------------

/// Per-run screening outcome.
struct RunScreen {
    enum class Outcome { Clean, Definite, Bail };
    Outcome outcome = Outcome::Bail;
    Finding finding;             // Outcome::Definite
    std::string reason;          // Outcome::Bail
    std::uint64_t ops = 0;       // abstract ops spent (all outcomes)
};

/// Mirrors miri::Interpreter statement for statement over the modelled
/// subset. Step accounting is charged at exactly the interpreter's sites
/// (every exec_statement entry, every eval_expr entry, one extra step per
/// while-loop iteration), so the screener exceeds the step limit exactly
/// where MiriLite does.
class AbstractInterpreter {
  public:
    AbstractInterpreter(const lang::Program& program,
                        const miri::LoweredProgram& lowering,
                        const std::vector<std::int64_t>& inputs,
                        const miri::InterpLimits& limits,
                        const ScreenOptions& options, std::uint64_t ops_spent)
        : program_(program),
          lowered_(lowering),
          inputs_(inputs),
          limits_(limits),
          options_(options),
          ops_(ops_spent) {
        statics_.resize(program_.statics.size());
    }

    [[nodiscard]] RunScreen screen() {
        RunScreen run;
        try {
            setup_statics();
            const lang::FnItem* main_fn = program_.find_function("main");
            if (main_fn == nullptr) {
                throw Definite{Finding{UbCategory::CompileError,
                                       "program has no 'main' function",
                                       {}}};
            }
            const std::int32_t main_index = static_cast<std::int32_t>(
                main_fn - program_.functions.data());
            call_function(main_index, {}, main_fn->span);
            // Post-main teardown: leaked threads, held mutexes and heap
            // leaks are impossible here — every construct that could
            // create one (spawn, mutex_new, alloc) bails first.
            run.outcome = RunScreen::Outcome::Clean;
        } catch (const Definite& definite) {
            run.outcome = RunScreen::Outcome::Definite;
            run.finding = definite.finding;
        } catch (const Bail& bail) {
            run.outcome = RunScreen::Outcome::Bail;
            run.reason = bail.reason;
        } catch (const std::exception& error) {
            run.outcome = RunScreen::Outcome::Bail;
            run.reason = std::string("unexpected error: ") + error.what();
        } catch (...) {
            run.outcome = RunScreen::Outcome::Bail;
            run.reason = "unexpected error";
        }
        run.ops = ops_;
        return run;
    }

  private:
    struct Slot {
        AbsValue value;
        Type type;
    };
    struct Frame {
        std::vector<std::optional<Slot>> slots;
    };
    /// A place as a symbolic path (root slot/static + element indices), so
    /// no pointer into the environment is held across an evaluation.
    struct PlaceRef {
        bool is_static = false;
        std::int32_t index = -1;
        std::vector<std::uint64_t> path;
        Type type;
    };
    struct ExecResult {
        enum class Flow { Normal, Return };
        Flow flow = Flow::Normal;
        AbsValue value;
    };

    // -- cost accounting (mirrors Interpreter::step) ------------------------

    void step(const support::SourceSpan& span) {
        if (++steps_ > limits_.max_steps) {
            throw Definite{Finding{
                UbCategory::Panic,
                "step limit exceeded (possible infinite loop)", span}};
        }
        charge();
    }

    void charge() {
        if (++ops_ > options_.max_ops) {
            throw Bail{"screening op budget exhausted"};
        }
    }

    [[noreturn]] void panic(std::string message, support::SourceSpan span) {
        throw Definite{Finding{UbCategory::Panic, std::move(message), span}};
    }

    // -- statics ------------------------------------------------------------

    void setup_statics() {
        for (std::size_t i = 0; i < program_.statics.size(); ++i) {
            const lang::StaticItem& item = program_.statics[i];
            // The interpreter allocates before evaluating the initializer;
            // a self-reference would read uninitialized memory there. Here
            // the static stays unset during its own init, so a self-
            // reference falls through to the function-name path and bails —
            // Unknown, which is always sound.
            const AbsValue init = eval_expr(*item.init);
            statics_[i] = Slot{init, item.type};
        }
    }

    // -- calls --------------------------------------------------------------

    AbsValue call_function(std::int32_t fn_index, std::vector<AbsValue> args,
                           support::SourceSpan span) {
        if (fn_index < 0 ||
            static_cast<std::size_t>(fn_index) >= program_.functions.size()) {
            throw Definite{Finding{UbCategory::FuncCall,
                                   "calling a pointer that is not a function",
                                   span}};
        }
        if (++call_depth_ > limits_.max_call_depth) {
            --call_depth_;
            panic("stack overflow: call depth exceeded " +
                      std::to_string(limits_.max_call_depth),
                  span);
        }
        const lang::FnItem& fn =
            program_.functions[static_cast<std::size_t>(fn_index)];
        frames_.emplace_back();
        frames_.back().slots.resize(
            lowered_.fn_slot_counts[static_cast<std::size_t>(fn_index)]);
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            // Under lowering, parameters occupy slots 0..n-1 in order.
            frames_.back().slots[i] =
                Slot{i < args.size() ? args[i] : make_abs(Value::unit()),
                     fn.params[i].type};
        }
        const ExecResult exec = exec_block(fn.body);
        frames_.pop_back();
        --call_depth_;
        if (exec.flow == ExecResult::Flow::Return) return exec.value;
        return make_abs(Value::unit());
    }

    std::int32_t resolve_fn_target(const miri::FnPtrVal& fn,
                                   const Type& static_type,
                                   support::SourceSpan span) const {
        if (!fn.valid() ||
            static_cast<std::size_t>(fn.fn_index) >= program_.functions.size()) {
            throw Definite{Finding{UbCategory::FuncCall,
                                   "calling a pointer that is not a function",
                                   span}};
        }
        const lang::FnItem& target =
            program_.functions[static_cast<std::size_t>(fn.fn_index)];
        if (static_type.is_fn_ptr() && !(target.fn_type() == static_type)) {
            throw Definite{Finding{
                UbCategory::FuncPointer,
                "call through a function pointer with the wrong signature: "
                "pointer says " +
                    static_type.to_string() + " but '" + target.name + "' is " +
                    target.fn_type().to_string(),
                span}};
        }
        return fn.fn_index;
    }

    AbsValue call_fn_value(const AbsValue& callee, const Type& static_type,
                           std::vector<AbsValue> args,
                           support::SourceSpan span) {
        const Value& fn_value = exact(callee);
        if (fn_value.kind() != Value::Kind::Fn) {
            throw Bail{"indirect call through a non-function value"};
        }
        const std::int32_t target =
            resolve_fn_target(fn_value.as_fn(), static_type, span);
        return call_function(target, std::move(args), span);
    }

    // -- statements ---------------------------------------------------------

    ExecResult exec_block(const lang::Block& block) {
        ExecResult result;
        for (const auto& stmt : block.statements) {
            result = exec_statement(*stmt);
            if (result.flow != ExecResult::Flow::Normal) break;
        }
        return result;
    }

    ExecResult exec_statement(const lang::Stmt& stmt) {
        step(stmt.span);
        switch (stmt.kind) {
            case lang::StmtKind::Let: {
                const auto& node = static_cast<const lang::LetStmt&>(stmt);
                const AbsValue value = eval_expr(*node.init);
                const Type& type =
                    node.declared_type ? *node.declared_type : node.init->type;
                const std::int32_t slot = lowered_.let_slots[node.id];
                if (slot < 0) throw Bail{"let without a lowered slot"};
                frames_.back().slots[static_cast<std::size_t>(slot)] =
                    Slot{value, type};
                return {};
            }
            case lang::StmtKind::Assign: {
                const auto& node = static_cast<const lang::AssignStmt&>(stmt);
                const AbsValue value = eval_expr(*node.value);
                const PlaceRef place = eval_place(*node.place);
                store_place(place, value);
                return {};
            }
            case lang::StmtKind::Expr: {
                eval_expr(*static_cast<const lang::ExprStmt&>(stmt).expr);
                return {};
            }
            case lang::StmtKind::If: {
                const auto& node = static_cast<const lang::IfStmt&>(stmt);
                if (exact(eval_expr(*node.condition)).as_bool()) {
                    return exec_block(node.then_block);
                }
                if (node.else_block) {
                    return exec_block(*node.else_block);
                }
                return {};
            }
            case lang::StmtKind::While: {
                const auto& node = static_cast<const lang::WhileStmt&>(stmt);
                while (exact(eval_expr(*node.condition)).as_bool()) {
                    step(node.span);
                    ExecResult result = exec_block(node.body);
                    if (result.flow != ExecResult::Flow::Normal) return result;
                }
                return {};
            }
            case lang::StmtKind::Return: {
                const auto& node = static_cast<const lang::ReturnStmt&>(stmt);
                ExecResult result;
                result.flow = ExecResult::Flow::Return;
                result.value = node.value ? eval_expr(*node.value)
                                          : make_abs(Value::unit());
                return result;
            }
            case lang::StmtKind::Block:
                return exec_block(static_cast<const lang::BlockStmt&>(stmt).block);
            case lang::StmtKind::Unsafe:
                // The block itself is ordinary sequencing; each risky
                // operation inside (raw derefs, heap intrinsics) bails on
                // its own.
                return exec_block(static_cast<const lang::UnsafeStmt&>(stmt).block);
            case lang::StmtKind::Become:
                throw Bail{"tail calls (become) are not modelled"};
        }
        return {};
    }

    // -- places -------------------------------------------------------------

    PlaceRef eval_place(const lang::Expr& expr) {
        switch (expr.kind) {
            case lang::ExprKind::VarRef: {
                const auto& node = static_cast<const lang::VarRefExpr&>(expr);
                const miri::VarResolution& res = lowered_.var_refs[node.id];
                if (res.kind == miri::VarResolution::Kind::Local) {
                    const auto& slot = frames_.back().slots
                        [static_cast<std::size_t>(res.index)];
                    if (!slot.has_value()) throw Bail{"read of a dead slot"};
                    PlaceRef place;
                    place.is_static = false;
                    place.index = res.index;
                    place.type = slot->type;
                    return place;
                }
                if (res.kind == miri::VarResolution::Kind::Static) {
                    const auto& slot =
                        statics_[static_cast<std::size_t>(res.index)];
                    if (!slot.has_value()) {
                        throw Bail{"read of an uninitialized static"};
                    }
                    PlaceRef place;
                    place.is_static = true;
                    place.index = res.index;
                    place.type = slot->type;
                    return place;
                }
                throw Bail{"unresolved place name '" + node.name + "'"};
            }
            case lang::ExprKind::Index: {
                const auto& node = static_cast<const lang::IndexExpr&>(expr);
                const Type& base_type = node.base->type;
                if (base_type.is_ref()) {
                    throw Bail{"indexing through a reference is not modelled"};
                }
                PlaceRef place = eval_place(*node.base);
                if (!place.type.is_array()) {
                    throw Bail{"indexing a non-array place"};
                }
                const AbsValue index = eval_expr(*node.index);
                const std::uint64_t len = place.type.array_length();
                // Bounds constraint: the index interval must sit inside
                // [0, len). A singleton that escapes is the interpreter's
                // exact panic; len is checked against the *unsigned* index
                // exactly as the interpreter compares it.
                const std::uint64_t i = exact(index).bits();
                if (i >= len) {
                    panic("index out of bounds: the len is " +
                              std::to_string(len) + " but the index is " +
                              std::to_string(i),
                          node.span);
                }
                place.path.push_back(i);
                place.type = place.type.element();
                return place;
            }
            case lang::ExprKind::Unary:
                throw Bail{"deref places are not modelled"};
            default:
                throw Bail{"expression is not a modelled place"};
        }
    }

    AbsValue load_path(const Value& root, const std::vector<std::uint64_t>& path,
                       std::size_t depth) const {
        if (depth == path.size()) return make_abs(root);
        if (root.kind() != Value::Kind::Array) {
            throw Bail{"path load through a non-array value"};
        }
        const std::vector<Value>& elements = root.as_array();
        if (path[depth] >= elements.size()) {
            throw Bail{"path load out of range"};
        }
        return load_path(elements[path[depth]], path, depth + 1);
    }

    Value store_path(const Value& root, const std::vector<std::uint64_t>& path,
                     std::size_t depth, const Value& value) const {
        if (depth == path.size()) return value;
        if (root.kind() != Value::Kind::Array) {
            throw Bail{"path store through a non-array value"};
        }
        std::vector<Value> elements = root.as_array();
        if (path[depth] >= elements.size()) {
            throw Bail{"path store out of range"};
        }
        elements[path[depth]] =
            store_path(elements[path[depth]], path, depth + 1, value);
        return Value::array(std::move(elements));
    }

    Slot& place_root(const PlaceRef& place) {
        if (place.is_static) {
            auto& slot = statics_[static_cast<std::size_t>(place.index)];
            if (!slot.has_value()) throw Bail{"access to an unset static"};
            return *slot;
        }
        auto& slot = frames_.back().slots[static_cast<std::size_t>(place.index)];
        if (!slot.has_value()) throw Bail{"access to a dead slot"};
        return *slot;
    }

    AbsValue load_place(const PlaceRef& place) {
        charge();
        return load_path(exact(place_root(place).value), place.path, 0);
    }

    void store_place(const PlaceRef& place, const AbsValue& value) {
        charge();
        Slot& root = place_root(place);
        if (place.path.empty()) {
            root.value = value;
            return;
        }
        root.value = make_abs(
            store_path(exact(root.value), place.path, 0, exact(value)));
    }

    // -- expressions --------------------------------------------------------

    std::int64_t signed_value(const Value& v, const Type& t) const {
        return v.as_signed(t.size_bytes());
    }

    AbsValue arith_result(std::uint64_t bits, const Type& type) const {
        return make_abs(Value::scalar(miri::truncate_to_type(bits, type)));
    }

    AbsValue eval_expr(const lang::Expr& expr) {
        step(expr.span);
        switch (expr.kind) {
            case lang::ExprKind::IntLit: {
                const auto& node = static_cast<const lang::IntLitExpr&>(expr);
                return arith_result(node.value, expr.type);
            }
            case lang::ExprKind::BoolLit:
                return make_abs(Value::boolean(
                    static_cast<const lang::BoolLitExpr&>(expr).value));
            case lang::ExprKind::VarRef: {
                const auto& node = static_cast<const lang::VarRefExpr&>(expr);
                const miri::VarResolution& res = lowered_.var_refs[node.id];
                switch (res.kind) {
                    case miri::VarResolution::Kind::Local:
                        return load_place(eval_place(expr));
                    case miri::VarResolution::Kind::Static:
                        if (statics_[static_cast<std::size_t>(res.index)]
                                .has_value()) {
                            return load_place(eval_place(expr));
                        }
                        // Forward reference during static setup falls
                        // through to a function item of the same name,
                        // like the interpreter.
                        break;
                    case miri::VarResolution::Kind::Function:
                        return make_abs(
                            Value::function(miri::FnPtrVal{res.index}));
                    case miri::VarResolution::Kind::Unresolved:
                        break;
                }
                const lang::FnItem* fn = program_.find_function(node.name);
                if (fn == nullptr) {
                    throw Bail{"unresolved name '" + node.name + "'"};
                }
                return make_abs(Value::function(miri::FnPtrVal{
                    static_cast<std::int32_t>(fn - program_.functions.data())}));
            }
            case lang::ExprKind::Unary:
                return eval_unary(static_cast<const lang::UnaryExpr&>(expr));
            case lang::ExprKind::Binary:
                return eval_binary(static_cast<const lang::BinaryExpr&>(expr));
            case lang::ExprKind::Cast:
                return eval_cast(static_cast<const lang::CastExpr&>(expr));
            case lang::ExprKind::Index:
                return load_place(eval_place(expr));
            case lang::ExprKind::Call:
                return eval_call(static_cast<const lang::CallExpr&>(expr));
            case lang::ExprKind::CallPtr: {
                const auto& node = static_cast<const lang::CallPtrExpr&>(expr);
                const AbsValue callee = eval_expr(*node.callee);
                std::vector<AbsValue> args;
                args.reserve(node.args.size());
                for (const auto& arg : node.args) {
                    args.push_back(eval_expr(*arg));
                }
                return call_fn_value(callee, node.callee->type, std::move(args),
                                     node.span);
            }
            case lang::ExprKind::ArrayLit: {
                const auto& node = static_cast<const lang::ArrayLitExpr&>(expr);
                std::vector<Value> elements;
                elements.reserve(node.elements.size());
                for (const auto& element : node.elements) {
                    elements.push_back(exact(eval_expr(*element)));
                }
                return make_abs(Value::array(std::move(elements)));
            }
            case lang::ExprKind::ArrayRepeat: {
                const auto& node =
                    static_cast<const lang::ArrayRepeatExpr&>(expr);
                const AbsValue element = eval_expr(*node.element);
                return make_abs(Value::array(
                    std::vector<Value>(node.count, exact(element))));
            }
        }
        return make_abs(Value::unit());
    }

    AbsValue eval_unary(const lang::UnaryExpr& expr) {
        switch (expr.op) {
            case lang::UnaryOp::Neg: {
                const AbsValue operand = eval_expr(*expr.operand);
                const std::int64_t value =
                    signed_value(exact(operand), expr.operand->type);
                const std::uint64_t size = expr.type.size_bytes();
                const std::int64_t min_value =
                    size >= 8 ? std::numeric_limits<std::int64_t>::min()
                              : -(1LL << (size * 8 - 1));
                if (value == min_value) {
                    panic("attempt to negate with overflow", expr.span);
                }
                return arith_result(static_cast<std::uint64_t>(-value),
                                    expr.type);
            }
            case lang::UnaryOp::Not: {
                const AbsValue operand = eval_expr(*expr.operand);
                if (expr.type.is_bool()) {
                    return make_abs(Value::boolean(!exact(operand).as_bool()));
                }
                return arith_result(~exact(operand).bits(), expr.type);
            }
            case lang::UnaryOp::Deref:
                throw Bail{"dereferences are not modelled"};
            case lang::UnaryOp::AddrOf:
            case lang::UnaryOp::AddrOfMut:
                throw Bail{"borrows are not modelled"};
        }
        return make_abs(Value::unit());
    }

    AbsValue eval_binary(const lang::BinaryExpr& expr) {
        using lang::BinaryOp;
        // Short-circuit operators first (the skipped operand must not be
        // evaluated — its steps never happen).
        if (expr.op == BinaryOp::And) {
            if (!exact(eval_expr(*expr.lhs)).as_bool()) {
                return make_abs(Value::boolean(false));
            }
            return make_abs(
                Value::boolean(exact(eval_expr(*expr.rhs)).as_bool()));
        }
        if (expr.op == BinaryOp::Or) {
            if (exact(eval_expr(*expr.lhs)).as_bool()) {
                return make_abs(Value::boolean(true));
            }
            return make_abs(
                Value::boolean(exact(eval_expr(*expr.rhs)).as_bool()));
        }

        const Value lhs = exact(eval_expr(*expr.lhs));
        const Value rhs = exact(eval_expr(*expr.rhs));
        const Type& operand_type = expr.lhs->type;
        const std::uint64_t size = operand_type.size_bytes();
        const bool is_signed = operand_type.is_signed_integer();

        switch (expr.op) {
            case BinaryOp::Add:
            case BinaryOp::Sub:
            case BinaryOp::Mul: {
                const char* name = expr.op == BinaryOp::Add   ? "add"
                                   : expr.op == BinaryOp::Sub ? "subtract"
                                                              : "multiply";
                if (size >= 8) {
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
                            panic(std::string("attempt to ") + name +
                                      " with overflow",
                                  expr.span);
                        }
                        return arith_result(static_cast<std::uint64_t>(out),
                                            expr.type);
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
                        panic(std::string("attempt to ") + name +
                                  " with overflow",
                              expr.span);
                    }
                    return arith_result(out, expr.type);
                }
                // Narrow widths: the mathematically-correct result fits in
                // i64; the overflow check is interval containment against
                // the operand width's representable range.
                const std::int64_t a =
                    is_signed ? signed_value(lhs, operand_type)
                              : static_cast<std::int64_t>(lhs.bits());
                const std::int64_t b =
                    is_signed ? signed_value(rhs, operand_type)
                              : static_cast<std::int64_t>(rhs.bits());
                std::int64_t wide = 0;
                if (expr.op == BinaryOp::Add) wide = a + b;
                if (expr.op == BinaryOp::Sub) wide = a - b;
                if (expr.op == BinaryOp::Mul) wide = a * b;
                const Interval representable =
                    Interval::type_range(size, is_signed);
                if (!Interval::singleton(wide).within(representable)) {
                    panic(std::string("attempt to ") + name + " with overflow",
                          expr.span);
                }
                return arith_result(static_cast<std::uint64_t>(wide),
                                    expr.type);
            }
            case BinaryOp::Div:
            case BinaryOp::Rem: {
                const bool is_div = expr.op == BinaryOp::Div;
                if (rhs.bits() == 0) {
                    panic(is_div ? "attempt to divide by zero"
                                 : "attempt to calculate the remainder with a "
                                   "divisor of zero",
                          expr.span);
                }
                if (is_signed) {
                    const std::int64_t a = signed_value(lhs, operand_type);
                    const std::int64_t b = signed_value(rhs, operand_type);
                    const std::int64_t min_value =
                        size >= 8 ? std::numeric_limits<std::int64_t>::min()
                                  : -(1LL << (size * 8 - 1));
                    if (a == min_value && b == -1) {
                        panic(is_div
                                  ? "attempt to divide with overflow"
                                  : "attempt to calculate the remainder with "
                                    "overflow",
                              expr.span);
                    }
                    const std::int64_t out = is_div ? a / b : a % b;
                    return arith_result(static_cast<std::uint64_t>(out),
                                        expr.type);
                }
                const std::uint64_t out = is_div ? lhs.bits() / rhs.bits()
                                                 : lhs.bits() % rhs.bits();
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
                    return arith_result(
                        static_cast<std::uint64_t>(
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
                return make_abs(Value::boolean(lhs.bits() == rhs.bits()));
            case BinaryOp::Ne:
                return make_abs(Value::boolean(lhs.bits() != rhs.bits()));
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
                return make_abs(Value::boolean(result));
            }
            case BinaryOp::And:
            case BinaryOp::Or:
                break;  // handled above
        }
        return make_abs(Value::unit());
    }

    AbsValue eval_cast(const lang::CastExpr& expr) {
        const AbsValue operand_abs = eval_expr(*expr.operand);
        const Value& operand = exact(operand_abs);
        const Type& source = expr.operand->type;
        const Type& target = expr.target;

        if ((source.is_integer() || source.is_bool()) && target.is_integer()) {
            const std::uint64_t wide =
                source.is_signed_integer()
                    ? static_cast<std::uint64_t>(signed_value(operand, source))
                    : operand.bits();
            return arith_result(wide, target);
        }
        if (source.is_fn_ptr() && target.is_integer()) {
            return arith_result(operand.bits(), target);
        }
        if (source.is_integer() && target.is_fn_ptr()) {
            return make_abs(Value::function(miri::FnPtrVal{
                miri::fn_addr_to_index(operand.bits(),
                                       program_.functions.size())}));
        }
        if (source.is_fn_ptr() && target.is_fn_ptr()) {
            return operand_abs;
        }
        // Everything producing or consuming data pointers (int -> raw ptr,
        // ref -> raw ptr, raw -> raw, ptr -> int) leaves the modelled
        // domain: pointer values never exist here.
        throw Bail{"pointer casts are not modelled"};
    }

    AbsValue eval_call(const lang::CallExpr& expr) {
        const miri::CallResolution& res = lowered_.calls[expr.id];
        if (res.kind == miri::CallResolution::Kind::Intrinsic) {
            return eval_intrinsic(expr);
        }
        std::vector<AbsValue> args;
        args.reserve(expr.args.size());
        for (const auto& arg : expr.args) {
            args.push_back(eval_expr(*arg));
        }
        switch (res.kind) {
            case miri::CallResolution::Kind::LocalFnPtr: {
                const auto& slot =
                    frames_.back().slots[static_cast<std::size_t>(res.index)];
                if (!slot.has_value()) {
                    throw Bail{"call through a dead fn-pointer slot"};
                }
                return call_fn_value(slot->value, slot->type, std::move(args),
                                     expr.span);
            }
            case miri::CallResolution::Kind::Direct:
                return call_function(res.index, std::move(args), expr.span);
            default:
                throw Bail{"call to unknown function '" + expr.callee + "'"};
        }
    }

    AbsValue eval_intrinsic(const lang::CallExpr& expr) {
        const std::string& name = expr.callee;
        std::vector<AbsValue> args;
        args.reserve(expr.args.size());
        for (const auto& arg : expr.args) {
            args.push_back(eval_expr(*arg));
        }

        const bool needs_arg = name == "print_int" || name == "print_bool" ||
                               name == "assert";
        if (needs_arg && (args.empty() || expr.args.empty())) {
            throw Bail{"intrinsic '" + name + "' with no argument"};
        }
        if (name == "print_int" || name == "print_bool") {
            // Output is not observed, but the printed value must be exact
            // (and a scalar) for the run to stay in the modelled subset.
            (void)exact(args[0]).bits();
            return make_abs(Value::unit());
        }
        if (name == "input") {
            const std::uint64_t index =
                args.empty() ? 0 : exact(args[0]).bits();
            const std::int64_t value =
                index < inputs_.size() ? inputs_[index] : 0;
            return make_abs(
                Value::scalar(static_cast<std::uint64_t>(value)));
        }
        if (name == "assert") {
            if (!exact(args[0]).as_bool()) {
                panic("assertion failed", expr.span);
            }
            return make_abs(Value::unit());
        }
        if (name == "panic") {
            panic("explicit panic", expr.span);
        }
        // alloc / dealloc / offset (heap + provenance), spawn / join /
        // mutex_* / atomic_* (concurrency): outside the modelled domain.
        throw Bail{"intrinsic '" + name + "' is not modelled"};
    }

    const lang::Program& program_;
    const miri::LoweredProgram& lowered_;
    const std::vector<std::int64_t>& inputs_;
    const miri::InterpLimits& limits_;
    const ScreenOptions& options_;

    std::vector<Frame> frames_;
    std::vector<std::optional<Slot>> statics_;
    std::uint64_t steps_ = 0;
    std::uint64_t ops_ = 0;
    std::uint32_t call_depth_ = 0;
};

}  // namespace

Interval Interval::full() {
    return {std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()};
}

Interval Interval::type_range(std::uint64_t size_bytes, bool is_signed) {
    if (size_bytes >= 8) return full();
    if (is_signed) {
        return {-(1LL << (size_bytes * 8 - 1)),
                (1LL << (size_bytes * 8 - 1)) - 1};
    }
    return {0, static_cast<std::int64_t>((1ULL << (size_bytes * 8)) - 1)};
}

const char* verdict_kind_name(VerdictKind kind) {
    switch (kind) {
        case VerdictKind::ProvenSafe: return "proven-safe";
        case VerdictKind::LikelyUB: return "likely-ub";
        case VerdictKind::Unknown: return "unknown";
    }
    return "?";
}

ScreenVerdict screen_program(
    const lang::Program& program, const miri::LoweredProgram& lowering,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options) {
    ScreenVerdict verdict;
    try {
        const std::vector<std::vector<std::int64_t>> runs =
            input_sets.empty() ? std::vector<std::vector<std::int64_t>>{{}}
                               : input_sets;
        std::uint64_t ops = 0;
        for (const auto& inputs : runs) {
            // The op budget spans all runs, so screening cost is bounded
            // per candidate, not per input vector.
            AbstractInterpreter interp(program, lowering, inputs, limits,
                                       options, ops);
            const RunScreen run = interp.screen();
            ops = run.ops;
            if (run.outcome == RunScreen::Outcome::Bail) {
                verdict.kind = VerdictKind::Unknown;
                verdict.confidence = 0.0;
                verdict.detail = run.reason;
                verdict.ops = ops;
                return verdict;
            }
            if (run.outcome == RunScreen::Outcome::Definite) {
                verdict.kind = VerdictKind::LikelyUB;
                verdict.confidence = 0.95;
                verdict.category = run.finding.category;
                verdict.span = run.finding.span;
                verdict.detail = run.finding.message;
                verdict.ops = ops;
                return verdict;
            }
        }
        verdict.kind = VerdictKind::ProvenSafe;
        verdict.confidence = 1.0;
        verdict.ops = ops;
    } catch (...) {
        // The never-throw contract: any escape degrades to Unknown.
        verdict = ScreenVerdict{};
        verdict.detail = "screening failed unexpectedly";
    }
    return verdict;
}

}  // namespace rustbrain::screen
