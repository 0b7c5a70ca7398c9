// MiriLite's machine core: the state every execution tier keeps and the one
// copy of the rules that act on it.
//
// A Machine holds a run's inputs and limits, its MemoryModel, the threads,
// mutexes and atomic clocks of the vector-clock race detector, the printed
// output and the step and call-depth counters. It implements step
// accounting, call entry, function-pointer resolution, every intrinsic
// (dispatched on lang::IntrinsicId) and the post-main teardown checks. The
// tree walk (miri::Interpreter) and the VM (vm::Vm) each own one Machine and
// keep only what is really theirs: walking the AST or dispatching bytecode,
// their frames, and the VM's fixed-point snapshot. The static screener has
// none of its own: it runs the tree walk (Interpreter::screen).
//
// No rule throws. A failed check is raised on the Machine's FaultRecord,
// which keeps the run's first finding with the step count and output
// length at that moment, and the rule returns a neutral result. The tiers
// check faulted() at statement boundaries, loop iterations and calls
// (including a join), never use a faulted call's result as a frame or
// function index, and stop; run() builds the RunResult from the record
// (DESIGN.md §19).
//
// Threading model: `spawn(f)` registers a thread; its body executes at the
// matching `join` (or is reported as leaked at main exit). Running threads
// to completion at join points keeps execution deterministic, and the
// vector-clock race detector is interleaving-insensitive: it flags
// conflicting accesses that are unordered by happens-before regardless of
// the order in which they actually executed, so races are still caught.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lang/ast.hpp"
#include "lang/typecheck.hpp"
#include "miri/memory.hpp"
#include "miri/scalar.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {

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

struct ThreadState {
    ThreadId id = 0;
    std::int32_t entry_fn = -1;
    VectorClock vc;
    bool executed = false;
    bool joined = false;

    friend bool operator==(const ThreadState& a, const ThreadState& b) {
        return a.id == b.id && a.entry_fn == b.entry_fn && a.vc == b.vc &&
               a.executed == b.executed && a.joined == b.joined;
    }
};

struct MutexState {
    std::optional<ThreadId> held_by;
    VectorClock vc;

    friend bool operator==(const MutexState& a, const MutexState& b) {
        return a.held_by == b.held_by && a.vc == b.vc;
    }
};

using AtomicClocks = std::map<std::pair<AllocId, std::uint64_t>, VectorClock>;

/// The static facts an intrinsic needs besides its argument values. The
/// VM stores them in the instruction; the tree walk reads them per call.
struct IntrinsicFacts {
    std::uint64_t pointee_size = 0;  // offset: the pointer's element size
    std::uint8_t int_width = 8;      // offset: count's bytes; print_int: the argument's
    bool is_signed = false;          // print_int: the argument is signed
};

IntrinsicFacts intrinsic_facts(lang::IntrinsicId id, const lang::CallExpr& call);

/// The frame slots of all of `program`'s functions: what a run that
/// calls each function once at a time holds at most.
[[nodiscard]] std::size_t frame_slots(const lang::Program& program);

struct Machine {
    Machine(const lang::Program& program, std::vector<std::int64_t> inputs,
            InterpLimits limits);
    // `faults` watches this machine's counters and `mem` reports to it.
    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    const lang::Program& program;
    std::vector<std::int64_t> inputs;
    InterpLimits limits;

    FaultRecord faults;
    MemoryModel mem;
    ThreadId current_thread = 0;
    std::vector<ThreadState> threads;  // index = id - 1 (main is id 0)
    VectorClock main_vc;
    std::vector<MutexState> mutexes;
    AtomicClocks atomic_vcs;
    bool multithreaded = false;

    std::vector<std::string> output;
    std::uint64_t steps = 0;
    std::uint32_t call_depth = 0;

    /// Everything a run can change except steps and output (which only
    /// grows); program, inputs and limits are never written, and faults
    /// is left out because a run stops at its first fault, before any
    /// snapshot. vm::Vm's fixed-point snapshot compares it whole.
    [[nodiscard]] auto live_state() const {
        return std::tie(mem, threads, main_vc, mutexes, atomic_vcs,
                        multithreaded, current_thread, call_depth);
    }

    [[nodiscard]] bool faulted() const { return faults.raised(); }

    /// Past the limit every step raises again, which costs the record's
    /// one branch.
    void step(const support::SourceSpan& span) {
        if (__builtin_expect(++steps > limits.max_steps, 0)) {
            panic(faults, "step limit exceeded (possible infinite loop)", span);
        }
    }

    /// Index of `main`; -1 after CompileError UB when the program has none.
    [[nodiscard]] std::int32_t main_fn();

    /// Entering function `fn_index`: false once the run has faulted,
    /// including FuncCall UB when it names no function and a stack-overflow
    /// panic past max_call_depth. On true the caller pushes the frame and
    /// decrements call_depth when the call returns.
    [[nodiscard]] bool enter_call(std::int32_t fn_index,
                                  const support::SourceSpan& span);

    /// The function `fn` names, checked against `static_type` when that
    /// is a fn-pointer type. Misuse is FuncCall/FuncPointer UB, or TailCall
    /// UB for `become`, and yields -1.
    [[nodiscard]] std::int32_t resolve_fn_target(const FnPtrVal& fn,
                                                 const lang::Type& static_type,
                                                 support::SourceSpan span,
                                                 bool is_become);

    /// `[element; count]` with elements of `element_size` bytes. Checked
    /// against the run's remaining memory cap before any Value is built
    /// (MemoryModel::fits_in_cap); past it, an empty array.
    [[nodiscard]] Value array_repeat(const Value& element, std::uint64_t count,
                                     std::uint64_t element_size,
                                     const support::SourceSpan& span);

    [[nodiscard]] VectorClock& current_vc() {
        return current_thread == 0 ? main_vc : threads[current_thread - 1].vc;
    }

    [[nodiscard]] AccessCtx access_ctx(support::SourceSpan span,
                                       bool atomic = false) const {
        AccessCtx ctx;
        ctx.tid = current_thread;
        // Skip race bookkeeping entirely until the first spawn:
        // single-threaded programs cannot race and this keeps the common
        // path fast.
        ctx.vc = multithreaded ? (current_thread == 0
                                      ? &main_vc
                                      : &threads[current_thread - 1].vc)
                               : nullptr;
        ctx.atomic = atomic;
        ctx.span = span;
        return ctx;
    }

    /// Runs the body of function `entry_fn` as the current thread.
    using ThreadBody =
        std::function<void(std::int32_t entry_fn, support::SourceSpan span)>;

    /// Intrinsic `id` on evaluated `args`. `join` of a thread not yet run
    /// calls `run_body` with the thread made current and a fresh call depth.
    /// A failed check yields the intrinsic's neutral result.
    Value intrinsic(lang::IntrinsicId id, const std::vector<Value>& args,
                    const IntrinsicFacts& facts, support::SourceSpan span,
                    const ThreadBody& run_body);

    /// Run `main_body` (which runs statics and main), then the post-main
    /// teardown checks. A fault comes back as RunResult::finding with the
    /// steps and output the run had when it was raised.
    template <typename MainBody>
    RunResult run(MainBody&& main_body) {
        main_body();
        if (!faulted()) teardown();
        RunResult result;
        if (faulted()) {
            result.finding = faults.finding();
            output.resize(faults.output_size());
            steps = faults.steps();
        }
        result.output = std::move(output);
        result.steps = steps;
        return result;
    }

  private:
    /// Post-main checks (mirrors Miri's machine teardown): leaked threads,
    /// held mutexes, leaked heap memory.
    void teardown();
};

}  // namespace rustbrain::miri
