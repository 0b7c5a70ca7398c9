// Bytecode dispatch loop. Every handler reaches the machine core
// (miri::Machine, miri/scalar.hpp) at the program point where the matching
// miri::Interpreter code path does — same memory-model calls, same step()
// points — so the tiers stay byte-identical.
//
// Dispatch is threaded through the VM_CASE / VM_NEXT macros: each handler
// ends with a computed goto straight to the next opcode's handler (no
// shared branch for the predictor to mispredict). Labels as values are a
// GCC/Clang extension, the only compilers the build's warning flags
// support. The label table in dispatch() must list every Op in exact enum
// order. A computed goto does not run the destructors of the handler's
// locals, so no handler keeps a local that owns memory (an array Value):
// it works on the value stack in place, by reference or through
// temporaries that die with their full expression.
//
// A fault is recorded, not thrown (DESIGN.md §19): dispatch returns as
// soon as it sees one at a statement's Step, a backward Jump, a call or an
// intrinsic (a join runs a thread body in a nested dispatch), and every
// native caller of dispatch checks again before using its result. Between
// the fault and that check, handlers run on the neutral values the machine
// core returns, which keep the value stack's shape.
#include "vm/vm.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rustbrain::vm {

using lang::Type;
using miri::AllocId;
using miri::AllocKind;
using miri::FnPtrVal;
using miri::kNoAlloc;
using miri::kNoTag;
using miri::Pointer;
using miri::Value;

namespace {
/// The missing-argument value DeclParam reads by reference.
const Value kUnit;
}  // namespace

Vm::Vm(const lang::Program& program, const VmProgram& code,
       std::vector<std::int64_t> inputs, miri::InterpLimits limits)
    : code_(code), m_(program, std::move(inputs), limits) {
    static_allocs_.assign(program.statics.size(), kNoAlloc);
    stack_.reserve(256);
    slots_.reserve(256);
    frames_.reserve(64);
}

// ---------------------------------------------------------------------------
// Loop fixed points (DESIGN.md §13)
// ---------------------------------------------------------------------------

void Vm::back_edge(std::int32_t target, std::size_t frame_floor) {
    if (m_.multithreaded) {
        // Thread bodies run below native frames the snapshot does not
        // hold (DESIGN.md §13): never skip once a thread exists.
        snapshot_.reset();
        watch_at_ = std::numeric_limits<std::uint64_t>::max();
        return;
    }
    if (snapshot_ == nullptr) {
        const std::size_t bytes = state_bytes();
        if (bytes > m_.limits.max_steps - m_.steps) {
            watch_later(bytes);  // copying would cost more than running
            return;
        }
        snapshot_ = std::make_unique<Snapshot>(
            Snapshot{target, frame_floor, m_.steps, m_.output.size(), bytes,
                     live_state()});
        return;
    }
    const Snapshot& snap = *snapshot_;
    if (target != snap.target || frame_floor != snap.frame_floor) {
        // Another loop's back edge: wait for ours, but not forever.
        if (m_.steps - snap.steps >
            std::max<std::uint64_t>(watch_interval_, snap.bytes)) {
            watch_later(snap.bytes);
        }
        return;
    }
    if (snap.output_size != m_.output.size() || !(snap.state == live_state())) {
        watch_later(snap.bytes);
        return;
    }
    // One iteration took the machine from this state back to itself, so
    // every later one repeats it, each costing delta steps: add as many
    // whole iterations as fit under the limit, then interpret on.
    const std::uint64_t delta = m_.steps - snap.steps;
    const std::uint64_t skip = (m_.limits.max_steps - m_.steps) / delta * delta;
    m_.steps += skip;
    skipped_steps_ += skip;
    snapshot_.reset();
    watch_at_ = std::numeric_limits<std::uint64_t>::max();
}

void Vm::watch_later(std::size_t bytes) {
    snapshot_.reset();
    watch_at_ = m_.steps + std::max<std::uint64_t>(watch_interval_, bytes);
    watch_interval_ *= 2;
}

std::size_t Vm::state_bytes() const {
    return m_.mem.footprint_bytes() +
           stack_.size() * sizeof(Value) +
           slots_.size() * sizeof(LocalState) + frames_.size() * sizeof(Frame) +
           static_allocs_.size() * sizeof(AllocId) +
           m_.threads.size() * sizeof(miri::ThreadState) +
           m_.mutexes.size() * sizeof(miri::MutexState) +
           m_.atomic_vcs.size() * 64;
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

miri::RunResult Vm::run() {
    return m_.run([this] {
        setup_statics();
        if (m_.faulted()) return;
        const std::int32_t main_fn = m_.main_fn();
        if (main_fn < 0) return;
        run_function(main_fn,
                     code_.functions[static_cast<std::size_t>(main_fn)].span);
    });
}

void Vm::setup_statics() {
    for (std::size_t i = 0; i < m_.program.statics.size(); ++i) {
        const auto& item = m_.program.statics[i];
        const AllocId alloc =
            m_.mem.allocate(item.type.size_bytes(), item.type.align_bytes(),
                            AllocKind::Static, item.name, item.span);
        static_allocs_[i] = alloc;
        if (m_.faulted()) return;
        pc_ = code_.static_entries[i];
        const Value init = dispatch(frames_.size());
        if (m_.faulted()) return;
        m_.mem.store(m_.mem.base_pointer(alloc), item.type, init,
                     m_.access_ctx(item.span));
    }
}

miri::Value Vm::run_function(std::int32_t fn_index, support::SourceSpan span) {
    const std::size_t frame_floor = frames_.size();
    if (!enter_function(fn_index, 0, /*ret_pc=*/-1, span)) return Value::unit();
    return dispatch(frame_floor);
}

bool Vm::enter_function(std::int32_t fn_index, std::uint32_t nargs,
                        std::int32_t ret_pc, support::SourceSpan span) {
    if (!m_.enter_call(fn_index, span)) return false;
    const VmFunction& fn = code_.functions[static_cast<std::size_t>(fn_index)];
    Frame frame;
    frame.fn = fn_index;
    frame.ret_pc = ret_pc;
    frame.args_base = static_cast<std::uint32_t>(stack_.size() - nargs);
    frame.nargs = nargs;
    frame.slot_base = static_cast<std::uint32_t>(slots_.size());
    frames_.push_back(frame);
    slots_.resize(slots_.size() + fn.slot_count);
    pc_ = fn.entry;
    return true;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

#define VM_CASE(name) lbl_##name
#define VM_NEXT()                             \
    goto* kLabels[static_cast<std::size_t>(   \
        code[static_cast<std::size_t>(pc)].op)]

#define VM_FETCH const Instr& in = code[static_cast<std::size_t>(pc)]

// The run has faulted: leave dispatch. Every native caller checks again.
#define VM_STOP_IF_FAULTED()                        \
    if (__builtin_expect(m_.faulted(), 0)) return Value::unit()

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
        &&lbl_LoadStatic,
        &&lbl_PlaceLocal,  &&lbl_PlaceStatic,
        &&lbl_AsPtr,       &&lbl_IndexPlace,   &&lbl_LoadThrough,
        &&lbl_StorePlace,  &&lbl_RetagRef,     &&lbl_DeclLocal,
        &&lbl_DeclParam,   &&lbl_DropArgs,     &&lbl_KillSlot,
        &&lbl_KillSlotTail,&&lbl_Neg,          &&lbl_NotBool,
        &&lbl_NotBits,     &&lbl_Binary,       &&lbl_Cast,
        &&lbl_MakeArray,   &&lbl_MakeRepeat,   &&lbl_CallDirect,
        &&lbl_CallLocalPtr,&&lbl_CallPtr,      &&lbl_TailCall,
        &&lbl_Intrinsic,   &&lbl_Ret,          &&lbl_Halt,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<std::size_t>(Op::Halt) + 1,
                  "label table must cover every Op");
    VM_NEXT();

    VM_CASE(Step): {
        VM_FETCH;
        m_.step(span_of(in));
        VM_STOP_IF_FAULTED();
        ++pc;
        VM_NEXT();
    }
    VM_CASE(Jump): {
        VM_FETCH;
        // Only `while` jumps backward: each iteration checks for a fault,
        // and past the watch threshold its back edge checks for a fixed
        // point (DESIGN.md §13).
        if (in.a < pc) {
            VM_STOP_IF_FAULTED();
            if (__builtin_expect(m_.steps >= watch_at_, 0)) {
                back_edge(in.a, frame_floor);
            }
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
        m_.step(span_of(in));
        stack_.push_back(Value::scalar(in.imm));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PushBool): {
        VM_FETCH;
        m_.step(span_of(in));
        stack_.push_back(Value::boolean(in.a != 0));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(PushFn): {
        VM_FETCH;
        m_.step(span_of(in));
        stack_.push_back(Value::function(FnPtrVal{in.a}));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(LoadLocal): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        m_.step(span);
        const LocalState& slot =
            slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc == kNoAlloc) {
            throw std::logic_error("eval_place: unresolved name '" +
                                   name_of(in) + "'");
        }
        stack_.push_back(m_.mem.load(m_.mem.base_pointer(slot.alloc),
                                     *slot.type, m_.access_ctx(span)));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(LoadStatic): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        m_.step(span);
        const AllocId alloc = static_allocs_[static_cast<std::size_t>(in.a)];
        if (alloc == kNoAlloc) {
            throw std::logic_error("unresolved name '" + name_of(in) + "'");
        }
        stack_.push_back(m_.mem.load(m_.mem.base_pointer(alloc), type_of(in),
                                     m_.access_ctx(span)));
        ++pc;
        VM_NEXT();
    }

    VM_CASE(PlaceLocal): {
        VM_FETCH;
        const LocalState& slot =
            slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)];
        if (slot.alloc == kNoAlloc) {
            throw std::logic_error("eval_place: unresolved name '" +
                                   name_of(in) + "'");
        }
        stack_.push_back(Value::pointer(m_.mem.base_pointer(slot.alloc)));
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
        stack_.push_back(Value::pointer(m_.mem.base_pointer(alloc)));
        ++pc;
        VM_NEXT();
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
        if (miri::check_index(m_.faults, i, in.imm, span_of(in))) {
            element_ptr.addr += i * static_cast<std::uint64_t>(in.a);
        } else {
            element_ptr = Pointer{};
        }
        stack_.push_back(Value::pointer(element_ptr));
        ++pc;
        VM_NEXT();
    }

    VM_CASE(LoadThrough): {
        VM_FETCH;
        const Pointer p = stack_.back().as_ptr();
        stack_.pop_back();
        stack_.push_back(
            m_.mem.load(p, type_of(in), m_.access_ctx(span_of(in))));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(StorePlace): {
        VM_FETCH;
        const Pointer p = stack_.back().as_ptr();
        stack_.pop_back();
        m_.mem.store(p, type_of(in), stack_.back(),
                     m_.access_ctx(span_of(in)));
        stack_.pop_back();
        ++pc;
        VM_NEXT();
    }
    VM_CASE(RetagRef): {
        VM_FETCH;
        const Pointer p = stack_.back().as_ptr();
        stack_.pop_back();
        stack_.push_back(Value::pointer(
            m_.mem.retag_ref(p, in.imm, in.a != 0, span_of(in))));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(DeclLocal): {
        VM_FETCH;
        const Type& type = type_of(in);
        const support::SourceSpan& span = span_of(in);
        const AllocId alloc =
            m_.mem.allocate(type.size_bytes(), type.align_bytes(),
                            AllocKind::Stack, name_of(in), span);
        // A refused allocation has faulted the run.
        if (alloc == kNoAlloc) return Value::unit();
        m_.mem.store(m_.mem.base_pointer(alloc), type, stack_.back(),
                     m_.access_ctx(span));
        stack_.pop_back();
        slots_[frames_.back().slot_base + static_cast<std::uint32_t>(in.a)] = {
            alloc, &type};
        ++pc;
        VM_NEXT();
    }
    VM_CASE(DeclParam): {
        VM_FETCH;
        const Type& type = type_of(in);
        const support::SourceSpan& span = span_of(in);
        const Frame& frame = frames_.back();
        const Value& value =
            static_cast<std::uint32_t>(in.b) < frame.nargs
                ? stack_[frame.args_base + static_cast<std::uint32_t>(in.b)]
                : kUnit;
        const AllocId alloc =
            m_.mem.allocate(type.size_bytes(), type.align_bytes(),
                            AllocKind::Stack, name_of(in), span);
        if (alloc == kNoAlloc) return Value::unit();
        m_.mem.store(m_.mem.base_pointer(alloc), type, value,
                     m_.access_ctx(span));
        slots_[frame.slot_base + static_cast<std::uint32_t>(in.a)] = {alloc,
                                                                      &type};
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
            m_.mem.kill(slot.alloc);
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
            m_.mem.kill_for_tail_call(slot.alloc);
            slot = {};
        }
        ++pc;
        VM_NEXT();
    }

    VM_CASE(Neg): {
        VM_FETCH;
        stack_.back() =
            miri::negate(m_.faults, stack_.back(), type_of(in), span_of(in));
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
        stack_.back() = miri::bitwise_not(stack_.back(), type_of(in));
        ++pc;
        VM_NEXT();
    }
    VM_CASE(Binary): {
        VM_FETCH;
        const Value rhs = std::move(stack_.back());
        stack_.pop_back();
        Value& top = stack_.back();  // lhs, combined in place
        top = miri::binary_op(m_.faults, static_cast<lang::BinaryOp>(in.a),
                              type_of(in), operand_type_of(in), span_of(in),
                              top, rhs);
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
        Value& top = stack_.back();  // the element, replaced by the array
        top = m_.array_repeat(top, in.imm, type_of(in).size_bytes(),
                              span_of(in));
        ++pc;
        VM_NEXT();
    }

    VM_CASE(CallDirect): {
        VM_FETCH;
        if (!enter_function(in.a, static_cast<std::uint32_t>(in.b), pc + 1,
                            span_of(in))) {
            return Value::unit();
        }
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
        const Value callee = m_.mem.load(m_.mem.base_pointer(slot.alloc),
                                         *slot.type, m_.access_ctx(span));
        const std::int32_t target = m_.resolve_fn_target(
            callee.as_fn(), *slot.type, span, /*is_become=*/false);
        if (!enter_function(target, static_cast<std::uint32_t>(in.b), pc + 1,
                            span)) {
            return Value::unit();
        }
        pc = pc_;
        VM_NEXT();
    }
    VM_CASE(CallPtr): {
        VM_FETCH;
        const support::SourceSpan& span = span_of(in);
        const std::size_t callee_at =
            stack_.size() - static_cast<std::size_t>(in.b) - 1;
        const std::int32_t target = m_.resolve_fn_target(
            stack_[callee_at].as_fn(), type_of(in), span, /*is_become=*/false);
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(callee_at));
        if (!enter_function(target, static_cast<std::uint32_t>(in.b), pc + 1,
                            span)) {
            return Value::unit();
        }
        pc = pc_;
        VM_NEXT();
    }
    VM_CASE(TailCall): {
        VM_FETCH;
        const std::size_t callee_at =
            stack_.size() - static_cast<std::size_t>(in.b) - 1;
        const std::int32_t target =
            m_.resolve_fn_target(stack_[callee_at].as_fn(), type_of(in),
                              span_of(in), /*is_become=*/true);
        VM_STOP_IF_FAULTED();
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(callee_at));
        // Reuse the frame in place: resize the slot window for the target,
        // keep ret_pc, leave the call depth untouched.
        Frame& frame = frames_.back();
        const VmFunction& fn = code_.functions[static_cast<std::size_t>(target)];
        slots_.resize(frame.slot_base);
        slots_.resize(frame.slot_base + fn.slot_count);
        frame.fn = target;
        frame.nargs = static_cast<std::uint32_t>(in.b);
        frame.args_base =
            static_cast<std::uint32_t>(stack_.size() - frame.nargs);
        pc = fn.entry;
        VM_NEXT();
    }
    VM_CASE(Intrinsic): {
        VM_FETCH;
        pc_ = pc;
        do_intrinsic(in);
        VM_STOP_IF_FAULTED();
        pc = pc_;
        ++pc;
        VM_NEXT();
    }

    VM_CASE(Ret): {
        const Frame frame = frames_.back();
        frames_.pop_back();
        slots_.resize(frame.slot_base);
        --m_.call_depth;
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

    throw std::logic_error("vm dispatch: fell out of the opcode table");
}

#undef VM_CASE
#undef VM_NEXT
#undef VM_FETCH
#undef VM_STOP_IF_FAULTED

// ---------------------------------------------------------------------------
// Casts and intrinsics
// ---------------------------------------------------------------------------

miri::Value Vm::eval_cast(const Instr& in, const Value& operand) {
    switch (static_cast<miri::CastKind>(in.a)) {
        case miri::CastKind::IntFromInt:
            return miri::int_cast(operand, in.b != 0,
                                  static_cast<std::uint64_t>(in.small),
                                  type_of(in));
        case miri::CastKind::IntToRawPtr:
            return Value::pointer(Pointer{operand.bits(), kNoAlloc, kNoTag});
        case miri::CastKind::PtrToInt:
        case miri::CastKind::FnToInt:
            return miri::arith_result(operand.bits(), type_of(in));
        case miri::CastKind::RefToRaw:
            return Value::pointer(m_.mem.retag_raw(operand.as_ptr(), in.imm,
                                                   in.small != 0, span_of(in)));
        case miri::CastKind::IntToFn:
            return Value::function(FnPtrVal{miri::fn_addr_to_index(
                operand.bits(), m_.program.functions.size())});
        case miri::CastKind::RawToRaw:  // compiled to nothing
        case miri::CastKind::FnToFn:
        case miri::CastKind::Unsupported:
            break;
    }
    throw std::logic_error("eval_cast: unexpected cast " +
                           operand_type_of(in).to_string() + " as " +
                           type_of(in).to_string());
}

void Vm::do_intrinsic(const Instr& in) {
    // Arguments are already on the stack; pop them before the call, as
    // the tree walk has consumed them before it dispatches.
    const std::size_t nargs = static_cast<std::size_t>(in.b);
    std::vector<Value> args(stack_.end() - static_cast<std::ptrdiff_t>(nargs),
                            stack_.end());
    stack_.resize(stack_.size() - nargs);
    const miri::IntrinsicFacts facts{in.imm, in.small, in.flag != 0};
    stack_.push_back(m_.intrinsic(
        static_cast<lang::IntrinsicId>(in.a), args, facts, span_of(in),
        [this](std::int32_t entry_fn, support::SourceSpan span) {
            // The thread body's dispatch moves pc_; put it back for the
            // Intrinsic handler.
            const std::int32_t saved_pc = pc_;
            run_function(entry_fn, span);
            pc_ = saved_pc;
        }));
}

}  // namespace rustbrain::vm
