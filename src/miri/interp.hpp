// MiriLite tree-walking interpreter with UB detection — the reference
// tier every other tier is checked against.
//
// The interpreter walks the type-checked AST and owns only what is its own:
// frames of slots, the statics' allocations and the evaluation order. It
// looks up no name: each one was bound once by the type checker (DESIGN.md
// §4), so a local is a slot index, a static an index into the statics, and
// a callee an intrinsic id, a slot or a function index. Everything else —
// step accounting, arithmetic and casts (miri/scalar.hpp), intrinsics,
// threads and the post-main teardown (miri/machine.hpp) — is the machine
// core that vm::Vm shares, so the tiers differ only in how they reach
// those rules (DESIGN.md §17).
//
// The static pre-screener (screen/screen.hpp) runs this walk too, through
// screen(): the same run, charged an op budget and stopped at the
// constructs a screening does not accept (DESIGN.md §7).
//
// Deviation from real Rust (documented in DESIGN.md): mini-Rust has no
// static borrow checker, so misuse of safe references (e.g. `&mut` while `&`
// is alive) surfaces as a *dynamic* BothBorrow finding instead of a compile
// error. The paper's both-borrow UB category relies on this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "miri/lower.hpp"
#include "miri/machine.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {

/// What one screening run (Interpreter::screen) came to.
struct ScreenRun {
    /// The run's first finding, when one was recorded before any stop.
    std::optional<Finding> finding;
    /// Why the run stopped short: the op budget ran out or it reached a
    /// construct a screening does not accept.
    std::optional<std::string> stop;
    /// Ops spent, counting the `ops_spent` the run was given.
    std::uint64_t ops = 0;
};

class Interpreter {
  public:
    /// `program` must have passed lang::type_check (types and bindings
    /// annotated). The lowering parameter is ignored; it is kept so
    /// four-argument callers still compile.
    Interpreter(const lang::Program& program, std::vector<std::int64_t> inputs,
                InterpLimits limits = {},
                const LoweredProgram* /*ignored*/ = nullptr);

    /// Execute main (and all joined threads); never throws for program-level
    /// failures — UB and panics come back as RunResult::finding. The walk
    /// checks for a fault at each statement, each `while` iteration and
    /// each call, and unwinds by returning (DESIGN.md §19).
    RunResult run();

    /// run() as a screening: one op is charged at every step, every place
    /// load (a VarRef or Index read) and every Assign store, counting from
    /// `ops_spent` and only until the run faults. Past `max_ops` ops, or at
    /// a `become`, a dereference, a borrow, indexing through a reference, a
    /// pointer cast or an intrinsic other than input, print_int,
    /// print_bool, assert and panic, the run stops short: the stop is
    /// raised on the fault record, so the walk ends at its next fault
    /// check. Call run() or screen() once per Interpreter.
    ScreenRun screen(std::uint64_t max_ops, std::uint64_t ops_spent);

  private:
    // A memory place: typed pointer.
    struct Place {
        Pointer ptr;
        lang::Type type;
    };

    struct LocalSlot {
        AllocId alloc = kNoAlloc;
        lang::Type type;
    };

    /// Where a call's slots and kill list start in slots_ and live_.
    struct Frame {
        std::size_t slot_base = 0;
        std::size_t live_base = 0;
    };

    enum class Flow { Normal, Return, TailCall };

    struct ExecResult {
        Flow flow = Flow::Normal;
        Value value;
        // Pending `become` target, resolved and validated at the become
        // site; the call_function trampoline replaces the current frame
        // with it instead of recursing.
        std::int32_t tail_fn = -1;
        std::vector<Value> tail_args;
    };

    // Execution ---------------------------------------------------------
    void setup_statics();
    /// A faulted call yields neutral_value(result_type), the call
    /// expression's static type.
    Value call_function(std::int32_t fn_index, std::vector<Value> args,
                        support::SourceSpan span, const lang::Type& result_type);
    ExecResult exec_block(const lang::Block& block);
    ExecResult exec_statement(const lang::Stmt& stmt);

    Value eval_expr(const lang::Expr& expr);
    Value eval_unary(const lang::UnaryExpr& expr);
    Value eval_binary(const lang::BinaryExpr& expr);
    Value eval_cast(const lang::CastExpr& expr);
    Value eval_call(const lang::CallExpr& expr);
    Value eval_call_ptr(const lang::CallPtrExpr& expr);

    Place eval_place(const lang::Expr& expr);

    // Screening ---------------------------------------------------------
    /// Machine::step, plus a screening's op charge.
    void step(const support::SourceSpan& span) {
        m_.step(span);
        if (__builtin_expect(screening_, 0)) charge();
    }
    /// One op; past the budget, a stop. Free once the run has faulted.
    void charge() {
        if (m_.faulted()) return;
        if (++ops_ > max_ops_) stop("screening op budget exhausted");
    }
    /// Ends the screening unless a fault is already recorded; the reason
    /// is the recorded message.
    void stop(std::string reason);

    // Helpers -----------------------------------------------------------
    void declare_local(std::int32_t slot, std::string_view name,
                       const lang::Type& type, const Value& value,
                       support::SourceSpan span);
    LocalSlot& local(std::int32_t slot) {
        return slots_[frames_.back().slot_base + static_cast<std::size_t>(slot)];
    }
    /// Kills the locals declared since live_ held `mark` entries, in
    /// declaration order — a scope exit (or, at the frame's base, the
    /// frame's own exit).
    void kill_to(std::size_t mark);

    Machine m_;
    std::vector<Frame> frames_;
    /// Every active call's slots, innermost frame last.
    std::vector<LocalSlot> slots_;
    /// The kill list: each live local's index into slots_, in declaration
    /// order. A block remembers its length on entry and kills back to it
    /// on exit, which kills scopes innermost first and each front to back.
    std::vector<std::size_t> live_;
    /// Indexed like Program::statics.
    std::vector<AllocId> static_allocs_;

    bool screening_ = false;
    /// The recorded fault is a screening stop, not a finding.
    bool stopped_ = false;
    std::uint64_t max_ops_ = 0;
    std::uint64_t ops_ = 0;
};

}  // namespace rustbrain::miri
