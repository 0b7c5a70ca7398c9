// Bytecode dispatch loop. Every handler is a direct port of the matching
// miri::Interpreter code path — same memory-model calls, same messages, same
// spans, same step() points — so the tiers stay byte-identical.
//
// Dispatch is threaded through the VM_CASE / VM_NEXT macros: each handler
// ends with a computed goto straight to the next opcode's handler (no
// shared branch for the predictor to mispredict). Labels as values are a
// GCC/Clang extension, the only compilers the build's warning flags
// support. The label table in dispatch() must list every Op in exact enum
// order.
//
// Superinstruction handlers (BinaryLocals, BinaryLocalImm, StoreLocal,
// CompareBranch) execute the *exact* expansion of their fused window —
// the same step() calls at the same spans interleaved with the same memory
// accesses — so a panic or UB thrown mid-window observes the same steps_
// snapshot as the unfused program. Register-promoted locals (Instr::ex /
// FusedDetail::*_reg) skip the MemoryModel round trip; their declarations
// still shadow-allocate so address/id/tag streams stay identical.
#include "vm/vm.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rustbrain::vm {

using lang::Type;
using miri::AccessCtx;
using miri::AllocId;
using miri::AllocKind;
using miri::Finding;
using miri::FnPtrVal;
using miri::kNoAlloc;
using miri::kNoTag;
using miri::PanicException;
using miri::Pointer;
using miri::UbCategory;
using miri::UbException;
using miri::Value;
using miri::VectorClock;

namespace {
Value arith_result(std::uint64_t bits, const Type& type) {
    return Value::scalar(miri::truncate_to_type(bits, type));
}

std::int64_t signed_value(const Value& v, const Type& t) {
    return v.as_signed(t.size_bytes());
}

/// Store+load round trip for a promoted integer slot, collapsed: store
/// truncates to the type's width (little-endian), load zero-extends — the
/// composition is truncate_to_type on the raw bits. (Only integer slots are
/// promoted; bool loads add a validity check, so bools stay in memory.)
Value reg_normalize(const Value& value, const Type& type) {
    return Value::scalar(miri::truncate_to_type(value.bits(), type));
}
}  // namespace

Vm::Vm(const lang::Program& program, const VmProgram& code,
       std::vector<std::int64_t> inputs, miri::InterpLimits limits)
    : program_(program),
      code_(code),
      inputs_(std::move(inputs)),
      limits_(limits) {
    static_allocs_.assign(program_.statics.size(), kNoAlloc);
    stack_.reserve(256);
    slots_.reserve(256);
    frames_.reserve(64);
}

void Vm::panic(std::string message, support::SourceSpan span) const {
    throw PanicException{std::move(message), span};
}

void Vm::step(const support::SourceSpan& span) {
    if (++steps_ > limits_.max_steps) {
        panic("step limit exceeded (possible infinite loop)", span);
    }
}

// ---------------------------------------------------------------------------
// Loop fixed points (DESIGN.md §13)
// ---------------------------------------------------------------------------

void Vm::back_edge(std::int32_t target, std::size_t frame_floor) {
    if (multithreaded_) {
        // Thread bodies run below native frames the snapshot does not
        // hold (DESIGN.md §13): never skip once a thread exists.
        snapshot_.reset();
        watch_at_ = std::numeric_limits<std::uint64_t>::max();
        return;
    }
    if (snapshot_ == nullptr) {
        const std::size_t bytes = state_bytes();
        if (bytes > limits_.max_steps - steps_) {
            watch_later(bytes);  // copying would cost more than running
            return;
        }
        snapshot_ = std::make_unique<Snapshot>();
        snapshot_->target = target;
        snapshot_->frame_floor = frame_floor;
        snapshot_->steps = steps_;
        snapshot_->output_size = output_.size();
        snapshot_->bytes = bytes;
        snapshot_->state = live_state();
        return;
    }
    const Snapshot& snap = *snapshot_;
    if (target != snap.target || frame_floor != snap.frame_floor) {
        // Another loop's back edge: wait for ours, but not forever.
        if (steps_ - snap.steps >
            std::max<std::uint64_t>(watch_interval_, snap.bytes)) {
            watch_later(snap.bytes);
        }
        return;
    }
    if (snap.output_size != output_.size() || !(snap.state == live_state())) {
        watch_later(snap.bytes);
        return;
    }
    // One iteration took the machine from this state back to itself, so
    // every later one repeats it, each costing delta steps: add as many
    // whole iterations as fit under the limit, then interpret on.
    const std::uint64_t delta = steps_ - snap.steps;
    const std::uint64_t skip = (limits_.max_steps - steps_) / delta * delta;
    steps_ += skip;
    skipped_steps_ += skip;
    snapshot_.reset();
    watch_at_ = std::numeric_limits<std::uint64_t>::max();
}

void Vm::watch_later(std::size_t bytes) {
    snapshot_.reset();
    watch_at_ = steps_ + std::max<std::uint64_t>(watch_interval_, bytes);
    watch_interval_ *= 2;
}

std::size_t Vm::state_bytes() const {
    return mem_.footprint_bytes() +
           (stack_.size() + regs_.size()) * sizeof(Value) +
           slots_.size() * sizeof(LocalState) + frames_.size() * sizeof(Frame) +
           static_allocs_.size() * sizeof(AllocId) +
           threads_.size() * sizeof(ThreadState) +
           mutexes_.size() * sizeof(MutexState) + atomic_vcs_.size() * 64;
}

VectorClock& Vm::current_vc() {
    if (current_thread_ == 0) return main_vc_;
    return threads_[current_thread_ - 1].vc;
}

AccessCtx Vm::access_ctx(support::SourceSpan span, bool atomic) const {
    AccessCtx ctx;
    ctx.tid = current_thread_;
    ctx.vc = multithreaded_
                 ? (current_thread_ == 0 ? &main_vc_
                                         : &threads_[current_thread_ - 1].vc)
                 : nullptr;
    ctx.atomic = atomic;
    ctx.span = span;
    return ctx;
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

miri::RunResult Vm::run() {
    miri::RunResult result;
    try {
        setup_statics();
        if (code_.main_fn < 0) {
            throw UbException{Finding{UbCategory::CompileError,
                                      "program has no 'main' function",
                                      {}}};
        }
        run_function(code_.main_fn,
                     code_.functions[static_cast<std::size_t>(code_.main_fn)]
                         .span);

        for (const ThreadState& thread : threads_) {
            if (!thread.joined) {
                throw UbException{Finding{
                    UbCategory::Concurrency,
                    "thread leaked: spawned thread was never joined before main exited",
                    {}}};
            }
        }
        for (std::size_t i = 0; i < mutexes_.size(); ++i) {
            if (mutexes_[i].held_by.has_value()) {
                throw UbException{Finding{
                    UbCategory::Concurrency,
                    "mutex " + std::to_string(i + 1) + " still held at main exit",
                    {}}};
            }
        }
        if (auto leak = mem_.check_leaks()) {
            throw UbException{*leak};
        }
    } catch (const UbException& ub) {
        result.finding = ub.finding;
    } catch (const PanicException& p) {
        result.finding = Finding{UbCategory::Panic, p.message, p.span};
    }
    result.output = output_;
    result.steps = steps_;
    return result;
}

void Vm::setup_statics() {
    for (std::size_t i = 0; i < program_.statics.size(); ++i) {
        const auto& item = program_.statics[i];
        const AllocId alloc = mem_.allocate(item.type.size_bytes(),
                                            item.type.align_bytes(),
                                            AllocKind::Static, item.name,
                                            item.span);
        static_allocs_[i] = alloc;
        pc_ = code_.static_entries[i];
        const Value init = dispatch(frames_.size());
        mem_.store(mem_.base_pointer(alloc), item.type, init,
                   access_ctx(item.span));
    }
}

miri::Value Vm::run_function(std::int32_t fn_index, support::SourceSpan span) {
    const std::size_t frame_floor = frames_.size();
    enter_function(fn_index, 0, /*ret_pc=*/-1, span);
    return dispatch(frame_floor);
}

void Vm::enter_function(std::int32_t fn_index, std::uint32_t nargs,
                        std::int32_t ret_pc, support::SourceSpan span) {
    if (fn_index < 0 ||
        static_cast<std::size_t>(fn_index) >= code_.functions.size()) {
        throw UbException{Finding{UbCategory::FuncCall,
                                  "calling a pointer that is not a function",
                                  span}};
    }
    if (++call_depth_ > limits_.max_call_depth) {
        --call_depth_;
        panic("stack overflow: call depth exceeded " +
                  std::to_string(limits_.max_call_depth),
              span);
    }
    const VmFunction& fn = code_.functions[static_cast<std::size_t>(fn_index)];
    Frame frame;
    frame.fn = fn_index;
    frame.ret_pc = ret_pc;
    frame.args_base = static_cast<std::uint32_t>(stack_.size() - nargs);
    frame.nargs = nargs;
    frame.slot_base = static_cast<std::uint32_t>(slots_.size());
    frame.reg_base = static_cast<std::uint32_t>(regs_.size());
    frames_.push_back(frame);
    slots_.resize(slots_.size() + fn.slot_count);
    regs_.resize(regs_.size() + fn.reg_count);
    pc_ = fn.entry;
}

void Vm::run_thread(ThreadState& thread, support::SourceSpan span) {
    // Exceptions terminate the whole run (run() converts them straight into
    // the finding), so unlike the tree walk there is no state to restore on
    // the unwind path — the restores below only matter on success.
    const miri::ThreadId saved_thread = current_thread_;
    current_thread_ = thread.id;
    const std::uint32_t saved_depth = call_depth_;
    call_depth_ = 0;
    run_function(thread.entry_fn, span);
    call_depth_ = saved_depth;
    current_thread_ = saved_thread;
    thread.executed = true;
}

std::int32_t Vm::resolve_fn_target(const FnPtrVal& fn, const Type& static_type,
                                   support::SourceSpan span,
                                   bool is_become) const {
    if (!fn.valid() ||
        static_cast<std::size_t>(fn.fn_index) >= program_.functions.size()) {
        throw UbException{
            Finding{is_become ? UbCategory::TailCall : UbCategory::FuncCall,
                    is_become
                        ? "tail call through a pointer that is not a function"
                        : "calling a pointer that is not a function",
                    span}};
    }
    const lang::FnItem& target =
        program_.functions[static_cast<std::size_t>(fn.fn_index)];
    if (static_type.is_fn_ptr() && !(target.fn_type() == static_type)) {
        throw UbException{Finding{
            is_become ? UbCategory::TailCall : UbCategory::FuncPointer,
            std::string(is_become ? "tail call" : "call") +
                " through a function pointer with the wrong signature: pointer says " +
                static_type.to_string() + " but '" + target.name + "' is " +
                target.fn_type().to_string(),
            span}};
    }
    return fn.fn_index;
}

miri::Value Vm::load_slot(std::int32_t slot_index, std::int32_t reg,
                          std::uint32_t name_idx, support::SourceSpan span) {
    const Frame& frame = frames_.back();
    const LocalState& slot =
        slots_[frame.slot_base + static_cast<std::uint32_t>(slot_index)];
    if (slot.alloc == kNoAlloc) {
        throw std::logic_error("eval_place: unresolved name '" +
                               name_at(name_idx) + "'");
    }
    if (reg >= 0) {
        return regs_[frame.reg_base + static_cast<std::uint32_t>(reg)];
    }
    return mem_.load(mem_.base_pointer(slot.alloc), *slot.type,
                     access_ctx(span));
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

#define VM_CASE(name) lbl_##name
#define VM_NEXT()                             \
    goto* kLabels[static_cast<std::size_t>(   \
        code[static_cast<std::size_t>(pc)].op)]

#define VM_FETCH const Instr& in = code[static_cast<std::size_t>(pc)]

miri::Value Vm::dispatch(std::size_t frame_floor) {
    // The program counter lives in a local so the hot loop keeps it in a
    // register; it is synced with pc_ only around calls that re-enter
    // the dispatcher (enter_function sets pc_, Join saves/restores it).
    const Instr* const code = code_.code.data();
    std::int32_t pc = pc_;

    // One label per Op, in exact enum order (bytecode.hpp).
    static const void* const kLabels[] = {
        &&lbl_Step,        &&lbl_Jump,         &&lbl_JumpIfFalse,
        &&lbl_AndJump,     &&lbl_OrJump,       &&lbl_BoolNorm,
        &&lbl_Pop,         &&lbl_PushUnit,     &&lbl_PushInt,
        &&lbl_PushBool,    &&lbl_PushFn,       &&lbl_LoadLocal,
        &&lbl_LoadStatic,  &&lbl_ThrowUnresolved,
        &&lbl_PlaceLocal,  &&lbl_PlaceStatic,  &&lbl_PlaceUnresolved,
        &&lbl_AsPtr,       &&lbl_IndexPlace,   &&lbl_LoadThrough,
        &&lbl_StorePlace,  &&lbl_RetagRef,     &&lbl_DeclLocal,
        &&lbl_DeclParam,   &&lbl_DropArgs,     &&lbl_KillSlot,
        &&lbl_KillSlotTail,&&lbl_Neg,          &&lbl_NotBool,
        &&lbl_NotBits,     &&lbl_Binary,       &&lbl_Cast,
        &&lbl_MakeArray,   &&lbl_MakeRepeat,   &&lbl_CallDirect,
        &&lbl_CallLocalPtr,&&lbl_CallPtr,      &&lbl_TailCall,
        &&lbl_CallUnknown, &&lbl_Intrinsic,    &&lbl_Ret,
        &&lbl_Halt,        &&lbl_BinaryLocals, &&lbl_BinaryLocalImm,
        &&lbl_StoreLocal,  &&lbl_CompareBranch,&&lbl_StepN,
        &&lbl_BinaryAccImm,&&lbl_BinaryStackImm,&&lbl_LocalsBranch,
        &&lbl_LocalImmBranch,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<std::size_t>(Op::LocalImmBranch) + 1,
                  "label table must cover every Op");
    VM_NEXT();

    VM_CASE(Step): {
        VM_FETCH;
        step(span_of(in));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(Jump): {
        VM_FETCH;
        // Only `while` jumps backward; past the watch threshold its back
        // edge checks for a fixed point (DESIGN.md §13).
        if (__builtin_expect(steps_ >= watch_at_, 0) && in.a < pc) {
            back_edge(in.a, frame_floor);
        }
        pc = in.a;
        VM_NEXT();
    }
    VM_CASE(JumpIfFalse): {
        VM_FETCH;
        const bool taken = !stack_.back().as_bool();
        stack_.pop_back();
        pc = taken ? in.a : pc + 1;
        VM_NEXT();
    }
    VM_CASE(AndJump): {
        VM_FETCH;
        if (!stack_.back().as_bool()) {
            pc = in.a;
        } else {
            stack_.pop_back();
            ++pc;
        }
        VM_NEXT();
    }
    VM_CASE(OrJump): {
        VM_FETCH;
        if (stack_.back().as_bool()) {
            pc = in.a;
        } else {
            stack_.pop_back();
            ++pc;
        }
        VM_NEXT();
    }
    VM_CASE(BoolNorm): {
        stack_.back() = Value::boolean(stack_.back().as_bool());
        ++pc;
        VM_NEXT();
    }
    VM_CASE(Pop): {
        stack_.pop_back();
        ++pc;
        VM_NEXT();
    }

    VM_CASE(PushUnit): {
        stack_.push_back(Value::unit());
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PushInt): {
        VM_FETCH;
        step(span_of(in));
        stack_.push_back(Value::scalar(in.imm));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PushBool): {
        VM_FETCH;
        step(span_of(in));
        stack_.push_back(Value::boolean(in.a != 0));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PushFn): {
        VM_FETCH;
        step(span_of(in));
        stack_.push_back(Value::function(FnPtrVal{in.a}));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(LoadLocal): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        step(span);
        stack_.push_back(load_slot(in.a, static_cast<std::int32_t>(in.ex) - 1,
                                   in.aux, span));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(LoadStatic): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        step(span);
        const AllocId alloc = static_allocs_[static_cast<std::size_t>(in.a)];
        if (alloc != kNoAlloc) {
            stack_.push_back(mem_.load(mem_.base_pointer(alloc), type_of(in),
                                       access_ctx(span)));
        } else if (in.b >= 0) {
            // Forward reference during static setup: fall through to the
            // same-named function item, like the tree walk.
            stack_.push_back(Value::function(FnPtrVal{in.b}));
        } else {
            throw std::logic_error("unresolved name '" + name_of(in) + "'");
        }
        ++pc;
        VM_NEXT();
    }
    VM_CASE(ThrowUnresolved): {
        VM_FETCH;
        step(span_of(in));
        throw std::logic_error("unresolved name '" + name_of(in) + "'");
    }

    VM_CASE(PlaceLocal): {
        VM_FETCH;
        const LocalState& slot =
            slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc == kNoAlloc) {
            throw std::logic_error("eval_place: unresolved name '" +
                                   name_of(in) + "'");
        }
        stack_.push_back(Value::pointer(mem_.base_pointer(slot.alloc)));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PlaceStatic): {
        VM_FETCH;
        const AllocId alloc = static_allocs_[static_cast<std::size_t>(in.a)];
        if (alloc == kNoAlloc) {
            throw std::logic_error("eval_place: unresolved name '" +
                                   name_of(in) + "'");
        }
        stack_.push_back(Value::pointer(mem_.base_pointer(alloc)));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PlaceUnresolved): {
        VM_FETCH;
        throw std::logic_error("eval_place: unresolved name '" + name_of(in) +
                               "'");
    }
    VM_CASE(AsPtr): {
        (void)stack_.back().as_ptr();
        ++pc;
        VM_NEXT();
    }
    VM_CASE(IndexPlace): {
        VM_FETCH;
        const std::uint64_t i = stack_.back().bits();
        stack_.pop_back();
        Pointer element_ptr = stack_.back().as_ptr();
        stack_.pop_back();
        if (i >= in.imm) {
            panic("index out of bounds: the len is " + std::to_string(in.imm) +
                      " but the index is " + std::to_string(i),
                  span_of(in));
        }
        element_ptr.addr += i * static_cast<std::uint64_t>(in.a);
        stack_.push_back(Value::pointer(element_ptr));
        ++pc;
        VM_NEXT();
    }

    VM_CASE(LoadThrough): {
        VM_FETCH;
        const Pointer p = stack_.back().as_ptr();
        stack_.pop_back();
        stack_.push_back(mem_.load(p, type_of(in), access_ctx(span_of(in))));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(StorePlace): {
        VM_FETCH;
        const Pointer p = stack_.back().as_ptr();
        stack_.pop_back();
        mem_.store(p, type_of(in), stack_.back(), access_ctx(span_of(in)));
        stack_.pop_back();
        ++pc;
        VM_NEXT();
    }
    VM_CASE(RetagRef): {
        VM_FETCH;
        const Pointer p = stack_.back().as_ptr();
        stack_.pop_back();
        stack_.push_back(Value::pointer(
            mem_.retag_ref(p, in.imm, in.a != 0, span_of(in))));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(DeclLocal): {
        VM_FETCH;
        const Type& type = type_of(in);
        const support::SourceSpan& span = span_of(in);
        if (in.ex == 0) {
            const AllocId alloc =
                mem_.allocate(type.size_bytes(), type.align_bytes(),
                              AllocKind::Stack, name_of(in), span);
            mem_.store(mem_.base_pointer(alloc), type, stack_.back(),
                       access_ctx(span));
            stack_.pop_back();
            slots_[frames_.back().slot_base +
                   static_cast<std::uint32_t>(in.a)] = {alloc, &type};
        } else {
            // Register-promoted local: identical allocation bookkeeping
            // (the address/id/tag streams are observable), value kept in
            // the frame's register window instead of memory.
            const AllocId alloc =
                mem_.allocate_shadow(type.size_bytes(), type.align_bytes(),
                                     AllocKind::Stack, name_of(in), span);
            regs_[frames_.back().reg_base + (in.ex - 1u)] =
                reg_normalize(stack_.back(), type);
            stack_.pop_back();
            slots_[frames_.back().slot_base +
                   static_cast<std::uint32_t>(in.a)] = {alloc, &type};
        }
        ++pc;
        VM_NEXT();
    }
    VM_CASE(DeclParam): {
        VM_FETCH;
        const Type& type = type_of(in);
        const support::SourceSpan& span = span_of(in);
        const Frame& frame = frames_.back();
        const Value value =
            static_cast<std::uint32_t>(in.b) < frame.nargs
                ? stack_[frame.args_base + static_cast<std::uint32_t>(in.b)]
                : Value::unit();
        if (in.ex == 0) {
            const AllocId alloc =
                mem_.allocate(type.size_bytes(), type.align_bytes(),
                              AllocKind::Stack, name_of(in), span);
            mem_.store(mem_.base_pointer(alloc), type, value,
                       access_ctx(span));
            slots_[frame.slot_base + static_cast<std::uint32_t>(in.a)] = {
                alloc, &type};
        } else {
            const AllocId alloc =
                mem_.allocate_shadow(type.size_bytes(), type.align_bytes(),
                                     AllocKind::Stack, name_of(in), span);
            regs_[frame.reg_base + (in.ex - 1u)] = reg_normalize(value, type);
            slots_[frame.slot_base + static_cast<std::uint32_t>(in.a)] = {
                alloc, &type};
        }
        ++pc;
        VM_NEXT();
    }
    VM_CASE(DropArgs): {
        stack_.resize(frames_.back().args_base);
        ++pc;
        VM_NEXT();
    }
    VM_CASE(KillSlot): {
        VM_FETCH;
        LocalState& slot =
            slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc != kNoAlloc) {
            mem_.kill(slot.alloc);
            slot = {};
        }
        ++pc;
        VM_NEXT();
    }
    VM_CASE(KillSlotTail): {
        VM_FETCH;
        LocalState& slot =
            slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc != kNoAlloc) {
            mem_.kill_for_tail_call(slot.alloc);
            slot = {};
        }
        ++pc;
        VM_NEXT();
    }

    VM_CASE(Neg): {
        VM_FETCH;
        const Value operand = stack_.back();
        stack_.pop_back();
        const Type& operand_type = operand_type_of(in);
        const Type& result_type = type_of(in);
        const std::int64_t value = signed_value(operand, operand_type);
        const std::uint64_t size = result_type.size_bytes();
        const std::int64_t min_value =
            size >= 8 ? std::numeric_limits<std::int64_t>::min()
                      : -(1LL << (size * 8 - 1));
        if (value == min_value) {
            panic("attempt to negate with overflow", span_of(in));
        }
        stack_.push_back(
            arith_result(static_cast<std::uint64_t>(-value), result_type));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(NotBool): {
        stack_.back() = Value::boolean(!stack_.back().as_bool());
        ++pc;
        VM_NEXT();
    }
    VM_CASE(NotBits): {
        VM_FETCH;
        stack_.back() = arith_result(~stack_.back().bits(), type_of(in));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(Binary): {
        VM_FETCH;
        const Value rhs = std::move(stack_.back());
        stack_.pop_back();
        Value& top = stack_.back();  // lhs, combined in place
        top = eval_binary(static_cast<lang::BinaryOp>(in.a), type_of(in),
                          operand_type_of(in), span_of(in), top, rhs);
        ++pc;
        VM_NEXT();
    }
    VM_CASE(Cast): {
        VM_FETCH;
        const Value operand = std::move(stack_.back());
        stack_.pop_back();
        stack_.push_back(eval_cast(in, operand));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(MakeArray): {
        VM_FETCH;
        const std::size_t n = static_cast<std::size_t>(in.a);
        std::vector<Value> elements(
            stack_.end() - static_cast<std::ptrdiff_t>(n), stack_.end());
        stack_.resize(stack_.size() - n);
        stack_.push_back(Value::array(std::move(elements)));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(MakeRepeat): {
        VM_FETCH;
        const Value element = stack_.back();
        stack_.pop_back();
        stack_.push_back(Value::array(
            std::vector<Value>(static_cast<std::size_t>(in.imm), element)));
        ++pc;
        VM_NEXT();
    }

    VM_CASE(CallDirect): {
        VM_FETCH;
        enter_function(in.a, static_cast<std::uint32_t>(in.b), pc + 1,
                       span_of(in));
        pc = pc_;
        VM_NEXT();
    }
    VM_CASE(CallLocalPtr): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        const LocalState& slot =
            slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc == kNoAlloc) {
            throw std::logic_error("call to unknown function '" + name_of(in) +
                                   "'");
        }
        const Value callee = mem_.load(mem_.base_pointer(slot.alloc),
                                       *slot.type, access_ctx(span));
        const std::int32_t target = resolve_fn_target(
            callee.as_fn(), *slot.type, span, /*is_become=*/false);
        enter_function(target, static_cast<std::uint32_t>(in.b), pc + 1, span);
        pc = pc_;
        VM_NEXT();
    }
    VM_CASE(CallPtr): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        const std::size_t callee_at =
            stack_.size() - static_cast<std::size_t>(in.b) - 1;
        const std::int32_t target = resolve_fn_target(
            stack_[callee_at].as_fn(), type_of(in), span, /*is_become=*/false);
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(callee_at));
        enter_function(target, static_cast<std::uint32_t>(in.b), pc + 1, span);
        pc = pc_;
        VM_NEXT();
    }
    VM_CASE(TailCall): {
        VM_FETCH;
        const std::size_t callee_at =
            stack_.size() - static_cast<std::size_t>(in.b) - 1;
        const std::int32_t target =
            resolve_fn_target(stack_[callee_at].as_fn(), type_of(in),
                              span_of(in), /*is_become=*/true);
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(callee_at));
        // Reuse the frame in place: resize the slot and register windows
        // for the target, keep ret_pc, leave call_depth_ untouched.
        Frame& frame = frames_.back();
        const VmFunction& fn = code_.functions[static_cast<std::size_t>(target)];
        slots_.resize(frame.slot_base);
        slots_.resize(frame.slot_base + fn.slot_count);
        regs_.resize(frame.reg_base);
        regs_.resize(frame.reg_base + fn.reg_count);
        frame.fn = target;
        frame.nargs = static_cast<std::uint32_t>(in.b);
        frame.args_base =
            static_cast<std::uint32_t>(stack_.size() - frame.nargs);
        pc = fn.entry;
        VM_NEXT();
    }
    VM_CASE(CallUnknown): {
        VM_FETCH;
        throw std::logic_error("call to unknown function '" + name_of(in) +
                               "'");
    }
    VM_CASE(Intrinsic): {
        VM_FETCH;
        pc_ = pc;
        do_intrinsic(in);
        pc = pc_;
        ++pc;
        VM_NEXT();
    }

    VM_CASE(Ret): {
        const Frame frame = frames_.back();
        frames_.pop_back();
        slots_.resize(frame.slot_base);
        regs_.resize(frame.reg_base);
        --call_depth_;
        if (frames_.size() == frame_floor) {
            Value result = std::move(stack_.back());
            stack_.pop_back();
            return result;
        }
        pc = frame.ret_pc;
        VM_NEXT();
    }
    VM_CASE(Halt): {
        Value result = std::move(stack_.back());
        stack_.pop_back();
        return result;
    }

    // -- superinstructions (vm::optimize) -------------------------------

    VM_CASE(BinaryLocals): {
        VM_FETCH;
        const FusedDetail& d = code_.fused[static_cast<std::size_t>(in.imm)];
        step2(code_.spans[d.step_span], code_.spans[d.lhs_span]);
        const Value lhs =
            load_slot(in.a, d.lhs_reg, d.lhs_name, code_.spans[d.lhs_span]);
        step(code_.spans[d.rhs_span]);
        const Value rhs =
            load_slot(in.b, d.rhs_reg, d.rhs_name, code_.spans[d.rhs_span]);
        stack_.push_back(eval_binary(static_cast<lang::BinaryOp>(in.small),
                                     type_of(in), operand_type_of(in),
                                     span_of(in), lhs, rhs));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(BinaryLocalImm): {
        VM_FETCH;
        const FusedDetail& d = code_.fused[static_cast<std::size_t>(in.b)];
        step2(code_.spans[d.step_span], code_.spans[d.lhs_span]);
        const Value lhs =
            load_slot(in.a, d.lhs_reg, d.lhs_name, code_.spans[d.lhs_span]);
        step(code_.spans[d.rhs_span]);  // the folded PushInt's step
        stack_.push_back(eval_binary(static_cast<lang::BinaryOp>(in.small),
                                     type_of(in), operand_type_of(in),
                                     span_of(in), lhs, Value::scalar(in.imm)));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(StoreLocal): {
        VM_FETCH;
        const Frame& frame = frames_.back();
        const LocalState& slot =
            slots_[frame.slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc == kNoAlloc) {
            throw std::logic_error("eval_place: unresolved name '" +
                                   name_of(in) + "'");
        }
        if (in.ex != 0) {
            regs_[frame.reg_base + (in.ex - 1u)] =
                reg_normalize(stack_.back(), type_of(in));
        } else {
            mem_.store(mem_.base_pointer(slot.alloc), type_of(in),
                       stack_.back(), access_ctx(span_of(in)));
        }
        stack_.pop_back();
        ++pc;
        VM_NEXT();
    }
    VM_CASE(CompareBranch): {
        VM_FETCH;
        const Value rhs = std::move(stack_.back());
        stack_.pop_back();
        const Value lhs = std::move(stack_.back());
        stack_.pop_back();
        const Value cond = eval_binary(static_cast<lang::BinaryOp>(in.small),
                                       type_of(in), operand_type_of(in),
                                       span_of(in), lhs, rhs);
        pc = cond.as_bool() ? pc + 1 : in.a;
        VM_NEXT();
    }
    VM_CASE(StepN): {
        VM_FETCH;
        const std::uint64_t n = static_cast<std::uint64_t>(in.a);
        if (steps_ + n <= limits_.max_steps) {
            // Bulk fast path: nothing between consecutive Steps can throw,
            // so only the final count is observable.
            steps_ += n;
        } else {
            // Near the limit: replay one by one so the panic reports the
            // exact step's span the unfused program would.
            for (std::uint64_t i = 0; i < n; ++i) {
                step(code_.spans[code_.step_runs[
                    static_cast<std::size_t>(in.b) + i]]);
            }
        }
        ++pc;
        VM_NEXT();
    }
    VM_CASE(BinaryAccImm): {
        VM_FETCH;
        const FusedDetail& d = code_.fused[static_cast<std::size_t>(in.b)];
        step2(code_.spans[d.step_span], code_.spans[d.lhs_span]);
        const Value local =
            load_slot(in.a, d.lhs_reg, d.lhs_name, code_.spans[d.lhs_span]);
        step(code_.spans[d.rhs_span]);  // the folded PushInt's step
        const Value inner = eval_binary(static_cast<lang::BinaryOp>(in.small),
                                        type_of(in), operand_type_of(in),
                                        span_of(in), local,
                                        Value::scalar(in.imm));
        Value& top = stack_.back();  // outer lhs, combined in place
        top = eval_binary(
            static_cast<lang::BinaryOp>(d.outer_op), *code_.types[d.outer_type],
            *static_cast<const lang::Type*>(code_.auxes[d.outer_aux]),
            code_.spans[d.outer_span], top, inner);
        ++pc;
        VM_NEXT();
    }
    VM_CASE(BinaryStackImm): {
        VM_FETCH;
        step(code_.spans[static_cast<std::uint32_t>(in.a)]);  // PushInt's step
        Value& top = stack_.back();  // lhs, combined in place
        top = eval_binary(static_cast<lang::BinaryOp>(in.small), type_of(in),
                          operand_type_of(in), span_of(in), top,
                          Value::scalar(in.imm));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(LocalsBranch): {
        VM_FETCH;
        const FusedDetail& d = code_.fused[static_cast<std::size_t>(in.imm)];
        step2(code_.spans[d.step_span], code_.spans[d.lhs_span]);
        const Value lhs =
            load_slot(in.a, d.lhs_reg, d.lhs_name, code_.spans[d.lhs_span]);
        step(code_.spans[d.rhs_span]);
        const Value rhs =
            load_slot(in.b, d.rhs_reg, d.rhs_name, code_.spans[d.rhs_span]);
        const Value cond = eval_binary(static_cast<lang::BinaryOp>(in.small),
                                       type_of(in), operand_type_of(in),
                                       span_of(in), lhs, rhs);
        pc = cond.as_bool() ? pc + 1 : d.branch_target;
        VM_NEXT();
    }
    VM_CASE(LocalImmBranch): {
        VM_FETCH;
        const FusedDetail& d = code_.fused[static_cast<std::size_t>(in.b)];
        step2(code_.spans[d.step_span], code_.spans[d.lhs_span]);
        const Value lhs =
            load_slot(in.a, d.lhs_reg, d.lhs_name, code_.spans[d.lhs_span]);
        step(code_.spans[d.rhs_span]);  // the folded PushInt's step
        const Value cond = eval_binary(static_cast<lang::BinaryOp>(in.small),
                                       type_of(in), operand_type_of(in),
                                       span_of(in), lhs, Value::scalar(in.imm));
        pc = cond.as_bool() ? pc + 1 : d.branch_target;
        VM_NEXT();
    }

    throw std::logic_error("vm dispatch: fell out of the opcode table");
}

#undef VM_CASE
#undef VM_NEXT
#undef VM_FETCH

// ---------------------------------------------------------------------------
// Binary / cast helpers (ports of eval_binary / eval_cast)
// ---------------------------------------------------------------------------

miri::Value Vm::eval_binary(lang::BinaryOp op, const Type& result_type,
                            const Type& operand_type, support::SourceSpan span,
                            const Value& lhs, const Value& rhs) {
    using lang::BinaryOp;
    const std::uint64_t size = operand_type.size_bytes();
    const bool is_signed = operand_type.is_signed_integer();

    auto check_overflow = [&](std::int64_t wide, const char* op_name) {
        if (size >= 8) return;
        if (is_signed) {
            const std::int64_t min_value = -(1LL << (size * 8 - 1));
            const std::int64_t max_value = (1LL << (size * 8 - 1)) - 1;
            if (wide < min_value || wide > max_value) {
                panic(std::string("attempt to ") + op_name + " with overflow",
                      span);
            }
        } else {
            const std::uint64_t max_value = (1ULL << (size * 8)) - 1;
            if (static_cast<std::uint64_t>(wide) > max_value || wide < 0) {
                panic(std::string("attempt to ") + op_name + " with overflow",
                      span);
            }
        }
    };

    switch (op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul: {
            const char* name = op == BinaryOp::Add   ? "add"
                               : op == BinaryOp::Sub ? "subtract"
                                                     : "multiply";
            if (size >= 8) {
                if (is_signed) {
                    const std::int64_t a = signed_value(lhs, operand_type);
                    const std::int64_t b = signed_value(rhs, operand_type);
                    std::int64_t out = 0;
                    bool overflow = false;
                    if (op == BinaryOp::Add) {
                        overflow = __builtin_add_overflow(a, b, &out);
                    } else if (op == BinaryOp::Sub) {
                        overflow = __builtin_sub_overflow(a, b, &out);
                    } else {
                        overflow = __builtin_mul_overflow(a, b, &out);
                    }
                    if (overflow) {
                        panic(std::string("attempt to ") + name +
                                  " with overflow",
                              span);
                    }
                    return arith_result(static_cast<std::uint64_t>(out),
                                        result_type);
                }
                const std::uint64_t a = lhs.bits();
                const std::uint64_t b = rhs.bits();
                std::uint64_t out = 0;
                bool overflow = false;
                if (op == BinaryOp::Add) {
                    overflow = __builtin_add_overflow(a, b, &out);
                } else if (op == BinaryOp::Sub) {
                    overflow = __builtin_sub_overflow(a, b, &out);
                } else {
                    overflow = __builtin_mul_overflow(a, b, &out);
                }
                if (overflow) {
                    panic(std::string("attempt to ") + name + " with overflow",
                          span);
                }
                return arith_result(out, result_type);
            }
            const std::int64_t a = is_signed
                                       ? signed_value(lhs, operand_type)
                                       : static_cast<std::int64_t>(lhs.bits());
            const std::int64_t b = is_signed
                                       ? signed_value(rhs, operand_type)
                                       : static_cast<std::int64_t>(rhs.bits());
            std::int64_t wide = 0;
            if (op == BinaryOp::Add) wide = a + b;
            if (op == BinaryOp::Sub) wide = a - b;
            if (op == BinaryOp::Mul) wide = a * b;
            check_overflow(wide, name);
            return arith_result(static_cast<std::uint64_t>(wide), result_type);
        }
        case BinaryOp::Div:
        case BinaryOp::Rem: {
            const bool is_div = op == BinaryOp::Div;
            if (rhs.bits() == 0) {
                panic(is_div ? "attempt to divide by zero"
                             : "attempt to calculate the remainder with a divisor of zero",
                      span);
            }
            if (is_signed) {
                const std::int64_t a = signed_value(lhs, operand_type);
                const std::int64_t b = signed_value(rhs, operand_type);
                const std::int64_t min_value =
                    size >= 8 ? std::numeric_limits<std::int64_t>::min()
                              : -(1LL << (size * 8 - 1));
                if (a == min_value && b == -1) {
                    panic(is_div ? "attempt to divide with overflow"
                                 : "attempt to calculate the remainder with overflow",
                          span);
                }
                const std::int64_t out = is_div ? a / b : a % b;
                return arith_result(static_cast<std::uint64_t>(out),
                                    result_type);
            }
            const std::uint64_t out =
                is_div ? lhs.bits() / rhs.bits() : lhs.bits() % rhs.bits();
            return arith_result(out, result_type);
        }
        case BinaryOp::Shl:
        case BinaryOp::Shr: {
            const std::uint64_t shift = rhs.bits();
            if (shift >= size * 8) {
                panic(op == BinaryOp::Shl
                          ? "attempt to shift left with overflow"
                          : "attempt to shift right with overflow",
                      span);
            }
            if (op == BinaryOp::Shl) {
                return arith_result(lhs.bits() << shift, result_type);
            }
            if (is_signed) {
                return arith_result(static_cast<std::uint64_t>(
                                        signed_value(lhs, operand_type) >>
                                        static_cast<std::int64_t>(shift)),
                                    result_type);
            }
            return arith_result(lhs.bits() >> shift, result_type);
        }
        case BinaryOp::BitAnd:
            return arith_result(lhs.bits() & rhs.bits(), result_type);
        case BinaryOp::BitOr:
            return arith_result(lhs.bits() | rhs.bits(), result_type);
        case BinaryOp::BitXor:
            return arith_result(lhs.bits() ^ rhs.bits(), result_type);
        case BinaryOp::Eq:
            return Value::boolean(lhs.bits() == rhs.bits());
        case BinaryOp::Ne:
            return Value::boolean(lhs.bits() != rhs.bits());
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge: {
            bool result = false;
            if (is_signed) {
                const std::int64_t a = signed_value(lhs, operand_type);
                const std::int64_t b = signed_value(rhs, operand_type);
                result = op == BinaryOp::Lt   ? a < b
                         : op == BinaryOp::Le ? a <= b
                         : op == BinaryOp::Gt ? a > b
                                              : a >= b;
            } else {
                const std::uint64_t a = lhs.bits();
                const std::uint64_t b = rhs.bits();
                result = op == BinaryOp::Lt   ? a < b
                         : op == BinaryOp::Le ? a <= b
                         : op == BinaryOp::Gt ? a > b
                                              : a >= b;
            }
            return Value::boolean(result);
        }
        case BinaryOp::And:
        case BinaryOp::Or:
            break;  // compiled to AndJump/OrJump, never reach here
    }
    return Value::unit();
}

miri::Value Vm::eval_cast(const Instr& in, const Value& operand) {
    switch (static_cast<CastKind>(in.a)) {
        case CastKind::IntFromInt: {
            const std::uint64_t wide =
                in.b != 0 ? static_cast<std::uint64_t>(operand.as_signed(
                                static_cast<std::uint64_t>(in.small)))
                          : operand.bits();
            return arith_result(wide, type_of(in));
        }
        case CastKind::IntToRawPtr:
            return Value::pointer(Pointer{operand.bits(), kNoAlloc, kNoTag});
        case CastKind::PtrToInt:
            return arith_result(operand.bits(), type_of(in));
        case CastKind::RefToRaw:
            return Value::pointer(mem_.retag_raw(operand.as_ptr(), in.imm,
                                                 in.small != 0, span_of(in)));
        case CastKind::FnToInt:
            return arith_result(operand.bits(), type_of(in));
        case CastKind::IntToFn:
            return Value::function(FnPtrVal{miri::fn_addr_to_index(
                operand.bits(), program_.functions.size())});
        case CastKind::Unsupported:
            break;
    }
    throw std::logic_error("eval_cast: unexpected cast " +
                           operand_type_of(in).to_string() + " as " +
                           type_of(in).to_string());
}

// ---------------------------------------------------------------------------
// Intrinsics (port of eval_intrinsic; arguments are already on the stack)
// ---------------------------------------------------------------------------

void Vm::do_intrinsic(const Instr& in) {
    const std::size_t nargs = static_cast<std::size_t>(in.b);
    std::vector<Value> args(stack_.end() - static_cast<std::ptrdiff_t>(nargs),
                            stack_.end());
    stack_.resize(stack_.size() - nargs);
    auto arg_bits = [&](std::size_t i) {
        return i < args.size() ? args[i].bits() : 0;
    };
    const support::SourceSpan span = span_of(in);

    switch (static_cast<IntrinsicId>(in.a)) {
        case IntrinsicId::Alloc: {
            const std::uint64_t size = arg_bits(0);
            const std::uint64_t align = arg_bits(1);
            const AllocId id =
                mem_.allocate(size, align, AllocKind::Heap, "heap", span);
            stack_.push_back(Value::pointer(mem_.base_pointer(id)));
            return;
        }
        case IntrinsicId::Dealloc:
            mem_.deallocate(args[0].as_ptr(), arg_bits(1), arg_bits(2), span);
            stack_.push_back(Value::unit());
            return;
        case IntrinsicId::Offset: {
            const Pointer p = args[0].as_ptr();
            const std::int64_t count =
                args[1].as_signed(static_cast<std::uint64_t>(in.small));
            const std::int64_t element_size = static_cast<std::int64_t>(in.imm);
            stack_.push_back(Value::pointer(
                mem_.offset_pointer(p, count * element_size, span)));
            return;
        }
        case IntrinsicId::PrintInt:
            if (in.small != 0) {
                output_.push_back(std::to_string(args[0].as_signed(in.imm)));
            } else {
                output_.push_back(std::to_string(args[0].bits()));
            }
            stack_.push_back(Value::unit());
            return;
        case IntrinsicId::PrintBool:
            output_.push_back(args[0].as_bool() ? "true" : "false");
            stack_.push_back(Value::unit());
            return;
        case IntrinsicId::Input: {
            const std::uint64_t index = arg_bits(0);
            const std::int64_t value =
                index < inputs_.size() ? inputs_[index] : 0;
            stack_.push_back(
                Value::scalar(static_cast<std::uint64_t>(value)));
            return;
        }
        case IntrinsicId::Assert:
            if (!args[0].as_bool()) {
                panic("assertion failed", span);
            }
            stack_.push_back(Value::unit());
            return;
        case IntrinsicId::Panic:
            panic("explicit panic", span);
        case IntrinsicId::Spawn: {
            multithreaded_ = true;
            ThreadState thread;
            thread.id = static_cast<miri::ThreadId>(threads_.size() + 1);
            thread.entry_fn = args[0].as_fn().fn_index;
            thread.vc = current_vc();
            thread.vc.increment(thread.id);
            current_vc().increment(current_thread_);
            threads_.push_back(std::move(thread));
            stack_.push_back(Value::scalar(threads_.size()));
            return;
        }
        case IntrinsicId::Join: {
            const std::uint64_t handle = arg_bits(0);
            if (handle == 0 || handle > threads_.size()) {
                throw UbException{Finding{UbCategory::Concurrency,
                                          "joining an invalid thread handle",
                                          span}};
            }
            ThreadState& thread = threads_[handle - 1];
            if (thread.joined) {
                throw UbException{
                    Finding{UbCategory::Concurrency,
                            "joining a thread that was already joined", span}};
            }
            if (!thread.executed) {
                const std::int32_t saved_pc = pc_;
                run_thread(thread, span);
                pc_ = saved_pc;
            }
            thread.joined = true;
            current_vc().merge(thread.vc);
            current_vc().increment(current_thread_);
            stack_.push_back(Value::unit());
            return;
        }
        case IntrinsicId::MutexNew:
            mutexes_.emplace_back();
            stack_.push_back(Value::scalar(mutexes_.size()));
            return;
        case IntrinsicId::MutexLock:
        case IntrinsicId::MutexUnlock: {
            const std::uint64_t handle = arg_bits(0);
            if (handle == 0 || handle > mutexes_.size()) {
                throw UbException{Finding{UbCategory::Concurrency,
                                          "invalid mutex handle", span}};
            }
            MutexState& mutex = mutexes_[handle - 1];
            if (static_cast<IntrinsicId>(in.a) == IntrinsicId::MutexLock) {
                if (mutex.held_by.has_value()) {
                    throw UbException{Finding{
                        UbCategory::Concurrency,
                        *mutex.held_by == current_thread_
                            ? "deadlock: thread re-locking a mutex it already holds"
                            : "deadlock: locking a mutex held by a finished thread",
                        span}};
                }
                mutex.held_by = current_thread_;
                current_vc().merge(mutex.vc);  // acquire
            } else {
                if (!mutex.held_by.has_value() ||
                    *mutex.held_by != current_thread_) {
                    throw UbException{
                        Finding{UbCategory::Concurrency,
                                "unlocking a mutex not held by this thread",
                                span}};
                }
                mutex.held_by.reset();
                mutex.vc.merge(current_vc());  // release
                current_vc().increment(current_thread_);
            }
            stack_.push_back(Value::unit());
            return;
        }
        case IntrinsicId::AtomicLoad:
        case IntrinsicId::AtomicStore:
        case IntrinsicId::AtomicFetchAdd: {
            const Pointer p = args[0].as_ptr();
            const Type i64_type = Type::i64();
            const IntrinsicId id = static_cast<IntrinsicId>(in.a);
            const bool is_load = id == IntrinsicId::AtomicLoad;
            const bool is_rmw = id == IntrinsicId::AtomicFetchAdd;
            const std::pair<AllocId, std::uint64_t> key{p.alloc, p.addr};
            VectorClock& loc_vc = atomic_vcs_[key];
            current_vc().merge(loc_vc);  // acquire
            Value result = Value::unit();
            if (is_load) {
                result =
                    mem_.load(p, i64_type, access_ctx(span, /*atomic=*/true));
            } else if (is_rmw) {
                const Value old =
                    mem_.load(p, i64_type, access_ctx(span, /*atomic=*/true));
                const std::uint64_t updated = old.bits() + args[1].bits();
                mem_.store(p, i64_type, Value::scalar(updated),
                           access_ctx(span, /*atomic=*/true));
                result = old;
            } else {
                mem_.store(p, i64_type, args[1],
                           access_ctx(span, /*atomic=*/true));
            }
            if (!is_load) {
                loc_vc.merge(current_vc());  // release
                current_vc().increment(current_thread_);
            }
            stack_.push_back(result);
            return;
        }
        case IntrinsicId::Unknown:
            break;
    }
    throw std::logic_error("unhandled intrinsic '" + name_of(in) + "'");
}

}  // namespace rustbrain::vm
