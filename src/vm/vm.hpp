// Bytecode VM for MiriLite — the fast stage of the Oracle's default tier.
//
// Executes a vm::VmProgram over an explicit value stack and dense activation
// records: one contiguous LocalState vector shared by every live frame, each
// frame owning a [slot_base, slot_base + slot_count) window plus a base
// pointer into the value stack for its arguments. `become` reuses the top
// frame in place (resize the slot window, keep the return pc), so tail-call
// chains use O(1) native stack and never grow the call depth, exactly like
// the tree walk's trampoline.
//
// The VM runs vm::compile output as it stands: there is one bytecode form,
// and every local lives in MiriLite's memory model, as on the tree walk.
// Dispatch is computed-goto (labels as values).
//
// The VM owns only its dispatch loop, frames and value stack, and the
// fixed-point snapshot below. Memory, threads, step accounting,
// arithmetic, casts, intrinsics and teardown are the machine core it shares
// with miri::Interpreter (miri/machine.hpp, miri/scalar.hpp), and it calls
// that core at the program points the tree walk does, so RunResults are
// byte-identical — findings, messages, spans, outputs, and step counts. The
// equivalence of the two tiers' control flow and step accounting is
// asserted corpus-wide by tests/miri_vm_test.cpp and the differential
// stress tests.
//
// Loop fixed points are skipped (DESIGN.md §13). Past kWatchAfterSteps, a
// `while` back edge snapshots the whole machine state; if the next arrival
// at the same back edge finds it unchanged, every later iteration repeats
// that one forever, so the VM adds as many whole iterations' steps as fit
// under max_steps at once and interprets only the last partial iteration —
// the step-limit panic fires at the span and count the tree walk reports.
// A mismatch drops the snapshot and retries after a doubling interval.
// Multithreaded runs are never skipped.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "miri/machine.hpp"
#include "miri/value.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::vm {

class Vm {
  public:
    /// `program` must be the exact tree `code` was compiled from.
    Vm(const lang::Program& program, const VmProgram& code,
       std::vector<std::int64_t> inputs, miri::InterpLimits limits = {});

    /// Execute main (and all joined threads); UB and panics come back as
    /// RunResult::finding, identical to miri::Interpreter::run().
    miri::RunResult run();

    /// Steps added by loop fixed-point skips so far (0 when none fired).
    [[nodiscard]] std::uint64_t skipped_steps() const { return skipped_steps_; }

    /// The first back edge at or past this many steps takes a snapshot.
    static constexpr std::uint64_t kWatchAfterSteps = std::uint64_t{1} << 12;

  private:
    struct LocalState {
        miri::AllocId alloc = miri::kNoAlloc;
        const lang::Type* type = nullptr;

        friend bool operator==(const LocalState& a, const LocalState& b) {
            return a.alloc == b.alloc && a.type == b.type;
        }
    };

    struct Frame {
        std::int32_t fn = -1;
        std::int32_t ret_pc = -1;        // -1: returns to native caller
        std::uint32_t args_base = 0;     // value-stack index of arg 0
        std::uint32_t nargs = 0;
        std::uint32_t slot_base = 0;     // window start in slots_

        friend bool operator==(const Frame& a, const Frame& b) {
            return a.fn == b.fn && a.ret_pc == b.ret_pc &&
                   a.args_base == b.args_base && a.nargs == b.nargs &&
                   a.slot_base == b.slot_base;
        }
    };

    /// Everything a loop iteration can change except steps and output
    /// (which only grows, so its length stands in for it): the VM's own
    /// stack, slots, frames and statics, then the machine core's
    /// live_state(). live_state() lists the members in this order; pc_ and
    /// the program are rewritten before being read or never written.
    using MachineState =
        std::tuple<std::vector<miri::Value>, std::vector<LocalState>,
                   std::vector<Frame>,
                   std::vector<miri::AllocId>, miri::MemoryModel,
                   std::vector<miri::ThreadState>, miri::VectorClock,
                   std::vector<miri::MutexState>, miri::AtomicClocks, bool,
                   miri::ThreadId, std::uint32_t>;

    [[nodiscard]] auto live_state() const {
        return std::tuple_cat(
            std::tie(stack_, slots_, frames_, static_allocs_),
            m_.live_state());
    }

    /// The machine at one back edge, kept until the next arrival there.
    struct Snapshot {
        std::int32_t target = 0;
        std::size_t frame_floor = 0;
        std::uint64_t steps = 0;
        std::size_t output_size = 0;
        std::size_t bytes = 0;  // state_bytes() when taken
        MachineState state;
    };

    void setup_statics();
    miri::Value run_function(std::int32_t fn_index, support::SourceSpan span);
    miri::Value dispatch(std::size_t frame_floor);
    /// False, with no frame pushed, once the run has faulted.
    [[nodiscard]] bool enter_function(std::int32_t fn_index,
                                      std::uint32_t nargs, std::int32_t ret_pc,
                                      support::SourceSpan span);
    void do_intrinsic(const Instr& in);
    miri::Value eval_cast(const Instr& in, const miri::Value& operand);

    /// A backward Jump to `target` once the step count reached watch_at_: take,
    /// compare or drop the snapshot, and skip the fixed point on a match.
    [[gnu::cold]] [[gnu::noinline]] void back_edge(std::int32_t target,
                                                   std::size_t frame_floor);
    /// Drop any snapshot; watch again after max(interval, bytes) steps.
    void watch_later(std::size_t bytes);
    /// Approximate heap bytes a snapshot of the machine would copy.
    [[nodiscard]] std::size_t state_bytes() const;

    // Side-table accessors for the packed Instr.
    [[nodiscard]] const support::SourceSpan& span_of(const Instr& in) const {
        return code_.spans[in.span];
    }
    [[nodiscard]] const lang::Type& type_of(const Instr& in) const {
        return code_.types[in.type];
    }
    /// The variable or callee name an instruction's aux points to: a
    /// lang::Name of the program, so it lives as long as the program.
    [[nodiscard]] lang::Name name_of(const Instr& in) const {
        return *static_cast<const lang::Name*>(code_.auxes[in.aux]);
    }
    [[nodiscard]] const lang::Type& operand_type_of(const Instr& in) const {
        return *static_cast<const lang::Type*>(code_.auxes[in.aux]);
    }

    const VmProgram& code_;
    miri::Machine m_;
    std::vector<miri::Value> stack_;
    std::vector<LocalState> slots_;
    std::vector<Frame> frames_;
    std::vector<miri::AllocId> static_allocs_;
    std::int32_t pc_ = 0;

    // Fixed-point watch (back_edge): the next step count at which a back
    // edge is examined, the current retry interval, and the snapshot.
    std::uint64_t watch_at_ = kWatchAfterSteps;
    std::uint64_t watch_interval_ = std::uint64_t{1} << 10;
    std::unique_ptr<Snapshot> snapshot_;
    std::uint64_t skipped_steps_ = 0;
};

}  // namespace rustbrain::vm
