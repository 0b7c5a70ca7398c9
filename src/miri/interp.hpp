// MiriLite tree-walking interpreter with UB detection.
//
// Threading model: `spawn(f)` registers a thread; its body executes at the
// matching `join` (or is reported as leaked at main exit). Running threads
// to completion at join points keeps execution deterministic, and the
// vector-clock race detector is interleaving-insensitive: it flags
// conflicting accesses that are unordered by happens-before regardless of
// the order in which they actually executed, so races are still caught.
//
// Deviation from real Rust (documented in DESIGN.md): mini-Rust has no
// static borrow checker, so misuse of safe references (e.g. `&mut` while `&`
// is alive) surfaces as a *dynamic* BothBorrow finding instead of a compile
// error. The paper's both-borrow UB category relies on this.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/lower.hpp"
#include "miri/memory.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {

struct PanicException {
    std::string message;
    support::SourceSpan span;
};

struct InterpLimits {
    std::uint64_t max_steps = 2'000'000;
    std::uint32_t max_call_depth = 200;
};

struct RunResult {
    std::optional<Finding> finding;
    std::vector<std::string> output;
    std::uint64_t steps = 0;

    [[nodiscard]] bool clean() const { return !finding.has_value(); }
};

class Interpreter {
  public:
    /// `program` must be type-checked (expression types annotated). The
    /// lowering parameter is ignored: every run is the tree walk. It is
    /// kept so four-argument callers still compile.
    Interpreter(const lang::Program& program, std::vector<std::int64_t> inputs,
                InterpLimits limits = {},
                const LoweredProgram* /*ignored*/ = nullptr);

    /// Execute main (and all joined threads); never throws for program-level
    /// failures — UB and panics come back as RunResult::finding.
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

    struct ThreadState {
        ThreadId id = 0;
        std::int32_t entry_fn = -1;
        VectorClock vc;
        bool executed = false;
        bool joined = false;
    };

    struct MutexState {
        std::optional<ThreadId> held_by;
        VectorClock vc;
    };

    // Execution ---------------------------------------------------------
    void setup_statics();
    Value call_function(std::int32_t fn_index, std::vector<Value> args,
                        support::SourceSpan span);
    ExecResult exec_block(const lang::Block& block);
    ExecResult exec_statement(const lang::Stmt& stmt);

    Value eval_expr(const lang::Expr& expr);
    Value eval_unary(const lang::UnaryExpr& expr);
    Value eval_binary(const lang::BinaryExpr& expr);
    Value eval_cast(const lang::CastExpr& expr);
    Value eval_call(const lang::CallExpr& expr);
    Value eval_call_ptr(const lang::CallPtrExpr& expr);
    Value eval_intrinsic(const lang::CallExpr& expr);
    Value call_fn_value(const FnPtrVal& fn, const lang::Type& static_type,
                        std::vector<Value> args, support::SourceSpan span,
                        bool is_become);
    std::int32_t resolve_fn_target(const FnPtrVal& fn,
                                   const lang::Type& static_type,
                                   support::SourceSpan span, bool is_become) const;

    Place eval_place(const lang::Expr& expr);

    // Helpers -----------------------------------------------------------
    void step(const support::SourceSpan& span);
    [[nodiscard]] AccessCtx access_ctx(support::SourceSpan span,
                                       bool atomic = false) const;
    const LocalSlot* find_local(const std::string& name) const;
    void declare_local(const std::string& name, const lang::Type& type,
                       const Value& value, support::SourceSpan span);
    void kill_scope(Scope& scope);
    void kill_frame(Frame& frame);
    [[nodiscard]] std::int64_t signed_value(const Value& v, const lang::Type& t) const;
    Value arith_result(std::uint64_t bits, const lang::Type& type);
    void run_thread(ThreadState& thread, support::SourceSpan span);
    [[noreturn]] void panic(std::string message, support::SourceSpan span) const;

    const lang::Program& program_;
    std::vector<std::int64_t> inputs_;
    InterpLimits limits_;

    MemoryModel mem_;
    std::vector<Frame> frames_;
    std::map<std::string, AllocId> static_allocs_;

    // Threads & sync.
    ThreadId current_thread_ = 0;
    std::vector<ThreadState> threads_;  // index = id - 1 (main is id 0)
    VectorClock main_vc_;
    std::vector<MutexState> mutexes_;
    std::map<std::pair<AllocId, std::uint64_t>, VectorClock> atomic_vcs_;
    bool multithreaded_ = false;

    std::vector<std::string> output_;
    std::uint64_t steps_ = 0;
    std::uint32_t call_depth_ = 0;

    VectorClock& current_vc();
};

}  // namespace rustbrain::miri
