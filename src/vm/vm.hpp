// Bytecode VM for MiriLite — the fast stage of the Oracle's default tier.
//
// Executes a vm::VmProgram over an explicit value stack and dense activation
// records: one contiguous LocalState vector shared by every live frame, each
// frame owning a [slot_base, slot_base + slot_count) window plus a base
// pointer into the value stack for its arguments. `become` reuses the top
// frame in place (resize the slot window, keep the return pc), so tail-call
// chains use O(1) native stack and never grow call_depth_, exactly like the
// tree walk's trampoline.
//
// The same Vm runs both plain programs (straight from vm::compile) and
// optimized ones (vm::optimize): superinstructions and register-promoted
// locals are just additional opcodes / a per-frame register window that
// plain programs never use. Dispatch is computed-goto (labels as values).
//
// The VM reuses miri::MemoryModel, the vector-clock race detector, and the
// thread/mutex/atomic bookkeeping verbatim, and enforces InterpLimits at the
// same program points, so RunResults are byte-identical to miri::Interpreter
// — findings, messages, spans, outputs, and step counts. The three-way
// equivalence (tree / vm / vm-optimized) is asserted corpus-wide by
// tests/miri_vm_test.cpp and the differential stress tests.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "miri/interp.hpp"
#include "miri/memory.hpp"
#include "miri/value.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::vm {

class Vm {
  public:
    /// `program` must be the exact tree `code` was compiled from (same
    /// pairing contract as LoweredProgram).
    Vm(const lang::Program& program, const VmProgram& code,
       std::vector<std::int64_t> inputs, miri::InterpLimits limits = {});

    /// Execute main (and all joined threads); UB and panics come back as
    /// RunResult::finding, identical to miri::Interpreter::run().
    miri::RunResult run();

  private:
    struct LocalState {
        miri::AllocId alloc = miri::kNoAlloc;
        const lang::Type* type = nullptr;
    };

    struct Frame {
        std::int32_t fn = -1;
        std::int32_t ret_pc = -1;        // -1: returns to native caller
        std::uint32_t args_base = 0;     // value-stack index of arg 0
        std::uint32_t nargs = 0;
        std::uint32_t slot_base = 0;     // window start in slots_
        std::uint32_t reg_base = 0;      // window start in regs_
    };

    struct ThreadState {
        miri::ThreadId id = 0;
        std::int32_t entry_fn = -1;
        miri::VectorClock vc;
        bool executed = false;
        bool joined = false;
    };

    struct MutexState {
        std::optional<miri::ThreadId> held_by;
        miri::VectorClock vc;
    };

    void setup_statics();
    miri::Value run_function(std::int32_t fn_index, support::SourceSpan span);
    miri::Value dispatch(std::size_t frame_floor);
    void enter_function(std::int32_t fn_index, std::uint32_t nargs,
                        std::int32_t ret_pc, support::SourceSpan span);
    void do_intrinsic(const Instr& in);
    void run_thread(ThreadState& thread, support::SourceSpan span);
    std::int32_t resolve_fn_target(const miri::FnPtrVal& fn,
                                   const lang::Type& static_type,
                                   support::SourceSpan span,
                                   bool is_become) const;
    miri::Value eval_binary(lang::BinaryOp op, const lang::Type& result_type,
                            const lang::Type& operand_type,
                            support::SourceSpan span, const miri::Value& lhs,
                            const miri::Value& rhs);
    miri::Value eval_cast(const Instr& in, const miri::Value& operand);

    /// Fused-load helper: dead-slot check, then register read or
    /// MemoryModel load — the exact LoadLocal tail.
    miri::Value load_slot(std::int32_t slot_index, std::int32_t reg,
                          std::uint32_t name_idx, support::SourceSpan span);

    void step(const support::SourceSpan& span);
    /// Two back-to-back step()s with nothing observable between them (the
    /// leading [Step, LoadLocal-entry] pair of every fused binary): bulk
    /// increment away from the limit, exact sequential replay near it so a
    /// step-limit panic reports the same span and count as the expansion.
    void step2(const support::SourceSpan& first,
               const support::SourceSpan& second) {
        if (steps_ + 2 <= limits_.max_steps) {
            steps_ += 2;
        } else {
            step(first);
            step(second);
        }
    }
    [[noreturn]] void panic(std::string message, support::SourceSpan span) const;
    [[nodiscard]] miri::AccessCtx access_ctx(support::SourceSpan span,
                                             bool atomic = false) const;
    miri::VectorClock& current_vc();

    // Side-table accessors for the packed Instr.
    [[nodiscard]] const support::SourceSpan& span_of(const Instr& in) const {
        return code_.spans[in.span];
    }
    [[nodiscard]] const lang::Type& type_of(const Instr& in) const {
        return *code_.types[in.type];
    }
    [[nodiscard]] const std::string& name_of(const Instr& in) const {
        return *static_cast<const std::string*>(code_.auxes[in.aux]);
    }
    [[nodiscard]] const std::string& name_at(std::uint32_t aux_idx) const {
        return *static_cast<const std::string*>(code_.auxes[aux_idx]);
    }
    [[nodiscard]] const lang::Type& operand_type_of(const Instr& in) const {
        return *static_cast<const lang::Type*>(code_.auxes[in.aux]);
    }

    const lang::Program& program_;
    const VmProgram& code_;
    std::vector<std::int64_t> inputs_;
    miri::InterpLimits limits_;

    miri::MemoryModel mem_;
    std::vector<miri::Value> stack_;
    std::vector<LocalState> slots_;
    std::vector<miri::Value> regs_;  // promoted locals (optimized tier)
    std::vector<Frame> frames_;
    std::vector<miri::AllocId> static_allocs_;
    std::int32_t pc_ = 0;

    miri::ThreadId current_thread_ = 0;
    std::vector<ThreadState> threads_;
    miri::VectorClock main_vc_;
    std::vector<MutexState> mutexes_;
    std::map<std::pair<miri::AllocId, std::uint64_t>, miri::VectorClock>
        atomic_vcs_;
    bool multithreaded_ = false;

    std::vector<std::string> output_;
    std::uint64_t steps_ = 0;
    std::uint32_t call_depth_ = 0;
};

}  // namespace rustbrain::vm
