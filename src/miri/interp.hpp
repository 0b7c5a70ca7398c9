// MiriLite tree-walking interpreter with UB detection — the reference
// tier every other tier is checked against.
//
// The interpreter walks the type-checked AST and owns only what is its own:
// frames of named scopes, the static-name table and the evaluation order.
// Everything else — step accounting, arithmetic and casts (miri/scalar.hpp),
// intrinsics, threads and the post-main teardown (miri/machine.hpp) — is the
// machine core that vm::Vm and the static screener share, so the tiers
// differ only in how they reach those rules (DESIGN.md §17).
//
// Deviation from real Rust (documented in DESIGN.md): mini-Rust has no
// static borrow checker, so misuse of safe references (e.g. `&mut` while `&`
// is alive) surfaces as a *dynamic* BothBorrow finding instead of a compile
// error. The paper's both-borrow UB category relies on this.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/lower.hpp"
#include "miri/machine.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {

class Interpreter {
  public:
    /// `program` must be type-checked (expression types annotated). The
    /// lowering parameter is ignored: every run is the tree walk. It is
    /// kept so four-argument callers still compile.
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
        std::string name;
        AllocId alloc = kNoAlloc;
        lang::Type type;
    };

    struct Scope {
        std::vector<LocalSlot> locals;
    };

    struct Frame {
        std::vector<Scope> scopes;
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
    const LocalSlot* find_local(const std::string& name) const;
    void declare_local(const std::string& name, const lang::Type& type,
                       const Value& value, support::SourceSpan span);
    void kill_scope(Scope& scope);
    void kill_frame(Frame& frame);

    Machine m_;
    std::vector<Frame> frames_;
    std::map<std::string, AllocId> static_allocs_;
};

}  // namespace rustbrain::miri
