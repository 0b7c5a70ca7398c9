#include "screen/screen.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "lang/typecheck.hpp"
#include "miri/scalar.hpp"
#include "miri/value.hpp"

namespace rustbrain::screen {

namespace {

using lang::Type;
using miri::Finding;
using miri::Value;

// ---------------------------------------------------------------------------
// Internal control flow
// ---------------------------------------------------------------------------

/// The run leaves the modelled subset (or an internal invariant broke):
/// degrade to Unknown. Never escapes screen_program. A definite finding on
/// the concrete path is recorded on the machine's FaultRecord, as in the
/// interpreter, and wins over a Bail thrown after it.
struct Bail {
    std::string reason;
};

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
/// subset, on the same machine core: steps are charged through
/// miri::Machine::step at exactly the interpreter's sites (every
/// exec_statement entry, every eval_expr entry, one extra step per
/// while-loop iteration), so the screener exceeds the step limit exactly
/// where MiriLite does, and scalars go through the same kernel. Stack and
/// static allocations are charged to the machine's memory (reserve) without
/// being made, so the per-run memory cap fires where MiriLite's does; no
/// other memory or thread state is used: every construct that would touch
/// it bails. After a fault the mirror stops at the interpreter's fault
/// checks (statements, loop iterations, calls); until then it charges no
/// ops, so a Definite verdict costs what it cost when faults unwound.
class AbstractInterpreter {
  public:
    AbstractInterpreter(const lang::Program& program,
                        const std::vector<std::int64_t>& inputs,
                        const miri::InterpLimits& limits,
                        const ScreenOptions& options, std::uint64_t ops_spent)
        : options_(options),
          machine_(program, inputs, limits),
          ops_(ops_spent) {
        statics_.resize(program.statics.size());
    }

    [[nodiscard]] RunScreen screen() {
        RunScreen run;
        try {
            setup_statics();
            const std::int32_t main_fn =
                machine_.faulted() ? -1 : machine_.main_fn();
            if (main_fn >= 0) {
                call_function(main_fn, {},
                              program().functions[static_cast<std::size_t>(main_fn)].span,
                              Type::unit());
            }
            // Post-main teardown: leaked threads, held mutexes and heap
            // leaks are impossible here — every construct that could
            // create one (spawn, mutex_new, alloc) bails first.
            run.outcome = RunScreen::Outcome::Clean;
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
        if (machine_.faulted()) {
            run.outcome = RunScreen::Outcome::Definite;
            run.finding = machine_.faults.finding();
        }
        run.ops = ops_;
        return run;
    }

  private:
    struct Slot {
        Value value;
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
        Value value;
    };

    // -- cost accounting ----------------------------------------------------

    void step(const support::SourceSpan& span) {
        machine_.step(span);
        charge();
    }

    void charge() {
        if (machine_.faulted()) return;
        if (++ops_ > options_.max_ops) {
            throw Bail{"screening op budget exhausted"};
        }
    }

    const lang::Program& program() const { return machine_.program; }

    /// Charges a stack or static allocation the interpreter makes here, so
    /// the memory cap fires at the same allocation with the same finding.
    void reserve(const Type& type, support::SourceSpan span) {
        machine_.mem.reserve(type.size_bytes(), type.align_bytes(), span);
    }

    // -- statics ------------------------------------------------------------

    void setup_statics() {
        for (std::size_t i = 0; i < program().statics.size(); ++i) {
            const lang::StaticItem& item = program().statics[i];
            // An initializer names nothing (the type checker's rule), so
            // no static is read before it is set.
            reserve(item.type, item.span);
            if (machine_.faulted()) return;
            const Value init = eval_expr(*item.init);
            if (machine_.faulted()) return;
            statics_[i] = Slot{init, item.type};
        }
    }

    // -- calls --------------------------------------------------------------

    Value call_function(std::int32_t fn_index, std::vector<Value> args,
                        support::SourceSpan span, const Type& result_type) {
        if (!machine_.enter_call(fn_index, span)) {
            return miri::neutral_value(result_type);
        }
        const lang::FnItem& fn =
            program().functions[static_cast<std::size_t>(fn_index)];
        frames_.emplace_back();
        frames_.back().slots.resize(fn.slot_count);
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            reserve(fn.params[i].type, fn.span);
            // Parameters occupy slots 0..n-1 in order.
            frames_.back().slots[i] =
                Slot{i < args.size() ? args[i] : Value::unit(),
                     fn.params[i].type};
        }
        const ExecResult exec = exec_block(fn.body);
        frames_.pop_back();
        --machine_.call_depth;
        if (machine_.faulted()) return miri::neutral_value(result_type);
        if (exec.flow == ExecResult::Flow::Return) return exec.value;
        return Value::unit();
    }

    Value call_fn_value(const Value& callee, const Type& static_type,
                        std::vector<Value> args, support::SourceSpan span,
                        const Type& result_type) {
        if (callee.kind() != Value::Kind::Fn) {
            throw Bail{"indirect call through a non-function value"};
        }
        const std::int32_t target = machine_.resolve_fn_target(
            callee.as_fn(), static_type, span, /*is_become=*/false);
        return call_function(target, std::move(args), span, result_type);
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
        if (machine_.faulted()) return {};
        switch (stmt.kind) {
            case lang::StmtKind::Let: {
                const auto& node = static_cast<const lang::LetStmt&>(stmt);
                const Value value = eval_expr(*node.init);
                const Type& type =
                    node.declared_type ? *node.declared_type : node.init->type;
                reserve(type, node.span);
                frames_.back().slots[static_cast<std::size_t>(node.slot)] =
                    Slot{value, type};
                return {};
            }
            case lang::StmtKind::Assign: {
                const auto& node = static_cast<const lang::AssignStmt&>(stmt);
                const Value value = eval_expr(*node.value);
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
                while (!machine_.faulted() &&
                       eval_expr(*node.condition).as_bool()) {
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
                result.value =
                    node.value ? eval_expr(*node.value) : Value::unit();
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
                const lang::Binding& binding =
                    static_cast<const lang::VarRefExpr&>(expr).binding;
                if (binding.kind == lang::Binding::Kind::Local) {
                    const auto& slot = frames_.back().slots
                        [static_cast<std::size_t>(binding.index)];
                    if (!slot.has_value()) throw Bail{"read of a dead slot"};
                    PlaceRef place;
                    place.is_static = false;
                    place.index = binding.index;
                    place.type = slot->type;
                    return place;
                }
                if (binding.kind == lang::Binding::Kind::Static) {
                    const auto& slot =
                        statics_[static_cast<std::size_t>(binding.index)];
                    if (!slot.has_value()) {
                        throw Bail{"read of an uninitialized static"};
                    }
                    PlaceRef place;
                    place.is_static = true;
                    place.index = binding.index;
                    place.type = slot->type;
                    return place;
                }
                throw Bail{"expression is not a modelled place"};
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
                const std::uint64_t i = eval_expr(*node.index).bits();
                // A failed check leaves the path out of range; load_place
                // and store_place look at the fault first.
                miri::check_index(machine_.faults, i,
                                  place.type.array_length(), node.span);
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

    Value load_path(const Value& root, const std::vector<std::uint64_t>& path,
                    std::size_t depth) const {
        if (depth == path.size()) return root;
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

    Value load_place(const PlaceRef& place) {
        charge();
        if (machine_.faulted()) return miri::neutral_value(place.type);
        return load_path(place_root(place).value, place.path, 0);
    }

    void store_place(const PlaceRef& place, const Value& value) {
        charge();
        if (machine_.faulted()) return;
        Slot& root = place_root(place);
        root.value = store_path(root.value, place.path, 0, value);
    }

    // -- expressions --------------------------------------------------------

    Value eval_expr(const lang::Expr& expr) {
        step(expr.span);
        switch (expr.kind) {
            case lang::ExprKind::IntLit: {
                const auto& node = static_cast<const lang::IntLitExpr&>(expr);
                return miri::arith_result(node.value, expr.type);
            }
            case lang::ExprKind::BoolLit:
                return Value::boolean(
                    static_cast<const lang::BoolLitExpr&>(expr).value);
            case lang::ExprKind::VarRef: {
                const lang::Binding& binding =
                    static_cast<const lang::VarRefExpr&>(expr).binding;
                if (binding.kind == lang::Binding::Kind::Function) {
                    return Value::function(miri::FnPtrVal{binding.index});
                }
                return load_place(eval_place(expr));
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
                const Value callee = eval_expr(*node.callee);
                std::vector<Value> args;
                args.reserve(node.args.size());
                for (const auto& arg : node.args) {
                    args.push_back(eval_expr(*arg));
                }
                return call_fn_value(callee, node.callee->type, std::move(args),
                                     node.span, expr.type);
            }
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
                const auto& node =
                    static_cast<const lang::ArrayRepeatExpr&>(expr);
                const Value element = eval_expr(*node.element);
                return machine_.array_repeat(element, node.count,
                                             node.element->type.size_bytes(),
                                             node.span);
            }
        }
        return Value::unit();
    }

    Value eval_unary(const lang::UnaryExpr& expr) {
        switch (expr.op) {
            case lang::UnaryOp::Neg:
                return miri::negate(machine_.faults, eval_expr(*expr.operand),
                                    expr.type, expr.span);
            case lang::UnaryOp::Not: {
                const Value operand = eval_expr(*expr.operand);
                if (expr.type.is_bool()) {
                    return Value::boolean(!operand.as_bool());
                }
                return miri::bitwise_not(operand, expr.type);
            }
            case lang::UnaryOp::Deref:
                throw Bail{"dereferences are not modelled"};
            case lang::UnaryOp::AddrOf:
            case lang::UnaryOp::AddrOfMut:
                throw Bail{"borrows are not modelled"};
        }
        return Value::unit();
    }

    Value eval_binary(const lang::BinaryExpr& expr) {
        using lang::BinaryOp;
        // Short-circuit operators first (the skipped operand must not be
        // evaluated — its steps never happen).
        if (expr.op == BinaryOp::And) {
            if (!eval_expr(*expr.lhs).as_bool()) {
                return Value::boolean(false);
            }
            return Value::boolean(eval_expr(*expr.rhs).as_bool());
        }
        if (expr.op == BinaryOp::Or) {
            if (eval_expr(*expr.lhs).as_bool()) {
                return Value::boolean(true);
            }
            return Value::boolean(eval_expr(*expr.rhs).as_bool());
        }

        const Value lhs = eval_expr(*expr.lhs);
        const Value rhs = eval_expr(*expr.rhs);
        return miri::binary_op(machine_.faults, expr.op, expr.type,
                               expr.lhs->type, expr.span, lhs, rhs);
    }

    Value eval_cast(const lang::CastExpr& expr) {
        const Value operand = eval_expr(*expr.operand);
        const Type& source = expr.operand->type;
        const Type& target = expr.target;
        switch (miri::classify_cast(source, target)) {
            case miri::CastKind::IntFromInt:
                return miri::int_cast(operand, source.is_signed_integer(),
                                      source.size_bytes(), target);
            case miri::CastKind::FnToInt:
                return miri::arith_result(operand.bits(), target);
            case miri::CastKind::IntToFn:
                return Value::function(miri::FnPtrVal{miri::fn_addr_to_index(
                    operand.bits(), program().functions.size())});
            case miri::CastKind::FnToFn:
                return operand;
            default:
                // Everything producing or consuming data pointers (int ->
                // raw ptr, ref -> raw ptr, raw -> raw, ptr -> int) leaves
                // the modelled domain: pointer values never exist here.
                throw Bail{"pointer casts are not modelled"};
        }
    }

    Value eval_call(const lang::CallExpr& expr) {
        const lang::Binding& binding = expr.binding;
        if (binding.kind == lang::Binding::Kind::Intrinsic) {
            return eval_intrinsic(expr);
        }
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const auto& arg : expr.args) {
            args.push_back(eval_expr(*arg));
        }
        if (binding.kind == lang::Binding::Kind::Local) {
            const auto& slot =
                frames_.back().slots[static_cast<std::size_t>(binding.index)];
            if (!slot.has_value()) {
                throw Bail{"call through a dead fn-pointer slot"};
            }
            return call_fn_value(slot->value, slot->type, std::move(args),
                                 expr.span, expr.type);
        }
        return call_function(binding.index, std::move(args), expr.span,
                             expr.type);
    }

    Value eval_intrinsic(const lang::CallExpr& expr) {
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const auto& arg : expr.args) {
            args.push_back(eval_expr(*arg));
        }
        const auto id = static_cast<lang::IntrinsicId>(expr.binding.index);
        switch (id) {
            case lang::IntrinsicId::PrintInt:
            case lang::IntrinsicId::PrintBool:
            case lang::IntrinsicId::Assert:
                if (args.empty() || expr.args.empty()) {
                    throw Bail{"intrinsic '" + expr.callee + "' with no argument"};
                }
                [[fallthrough]];
            case lang::IntrinsicId::Input:
            case lang::IntrinsicId::Panic:
                // Output is not observed; a printed value must still be a
                // scalar for the run to stay in the modelled subset.
                return machine_.intrinsic(id, args,
                                          miri::intrinsic_facts(id, expr),
                                          expr.span, {});
            default:
                // alloc / dealloc / offset (heap + provenance), spawn /
                // join / mutex_* / atomic_* (concurrency): outside the
                // modelled domain.
                throw Bail{"intrinsic '" + expr.callee + "' is not modelled"};
        }
    }

    const ScreenOptions& options_;

    miri::Machine machine_;
    std::vector<Frame> frames_;
    std::vector<std::optional<Slot>> statics_;
    std::uint64_t ops_ = 0;
};

}  // namespace

const char* verdict_kind_name(VerdictKind kind) {
    switch (kind) {
        case VerdictKind::ProvenSafe: return "proven-safe";
        case VerdictKind::LikelyUB: return "likely-ub";
        case VerdictKind::Unknown: return "unknown";
    }
    return "?";
}

ScreenVerdict screen_program(
    const lang::Program& program,
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
            AbstractInterpreter interp(program, inputs, limits, options, ops);
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

ScreenVerdict screen_program(
    const lang::Program& program, const miri::LoweredProgram& /*ignored*/,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits, const ScreenOptions& options) {
    return screen_program(program, input_sets, limits, options);
}

}  // namespace rustbrain::screen
