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
// core that vm::Vm and the static screener share, so the tiers differ only
// in how they reach those rules (DESIGN.md §17).
//
// Deviation from real Rust (documented in DESIGN.md): mini-Rust has no
// static borrow checker, so misuse of safe references (e.g. `&mut` while `&`
// is alive) surfaces as a *dynamic* BothBorrow finding instead of a compile
// error. The paper's both-borrow UB category relies on this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/lower.hpp"
#include "miri/machine.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {

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

    // Helpers -----------------------------------------------------------
    void declare_local(std::int32_t slot, const std::string& name,
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
};

}  // namespace rustbrain::miri
