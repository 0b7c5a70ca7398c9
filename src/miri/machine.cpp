#include "miri/machine.hpp"

#include <stdexcept>

namespace rustbrain::miri {

using lang::IntrinsicId;

// A new member changes the struct size: list it in live_state() (or say
// there why it is left out), then update the size here (x86-64 libstdc++
// layout).
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(Machine) == 432,
              "Machine::live_state() must cover every member a run can change");
#endif

IntrinsicFacts intrinsic_facts(IntrinsicId id, const lang::CallExpr& call) {
    IntrinsicFacts facts;
    if (id == IntrinsicId::Offset && call.args.size() > 1) {
        facts.pointee_size = call.args[0]->type.element().size_bytes();
        facts.int_width =
            static_cast<std::uint8_t>(call.args[1]->type.size_bytes());
    } else if (id == IntrinsicId::PrintInt && !call.args.empty()) {
        facts.int_width =
            static_cast<std::uint8_t>(call.args[0]->type.size_bytes());
        facts.is_signed = call.args[0]->type.is_signed_integer();
    }
    return facts;
}

Machine::Machine(const lang::Program& program_in,
                 std::vector<std::int64_t> inputs_in, InterpLimits limits_in)
    : program(program_in),
      inputs(std::move(inputs_in)),
      limits(limits_in),
      mem(faults) {
    faults.watch(&steps, &output);
    // One record per static and per frame slot of every function before
    // the first allocation, so a run's lists do not grow 1, 2, 4, ...
    mem.reserve_allocations(program.statics.size() + frame_slots(program));
}

std::size_t frame_slots(const lang::Program& program) {
    std::size_t slots = 0;
    for (const lang::FnItem& fn : program.functions) slots += fn.slot_count;
    return slots;
}

std::int32_t Machine::main_fn() {
    const lang::FnItem* main = program.find_function("main");
    if (main == nullptr) {
        faults.raise(UbCategory::CompileError, "program has no 'main' function",
                     {});
        return -1;
    }
    return static_cast<std::int32_t>(main - program.functions.data());
}

bool Machine::enter_call(std::int32_t fn_index, const support::SourceSpan& span) {
    if (faulted()) return false;
    if (fn_index < 0 ||
        static_cast<std::size_t>(fn_index) >= program.functions.size()) {
        faults.raise(UbCategory::FuncCall,
                     "calling a pointer that is not a function", span);
        return false;
    }
    if (++call_depth > limits.max_call_depth) {
        --call_depth;
        panic(faults,
              "stack overflow: call depth exceeded " +
                  std::to_string(limits.max_call_depth),
              span);
        return false;
    }
    return true;
}

std::int32_t Machine::resolve_fn_target(const FnPtrVal& fn,
                                        const lang::Type& static_type,
                                        support::SourceSpan span,
                                        bool is_become) {
    if (!fn.valid() ||
        static_cast<std::size_t>(fn.fn_index) >= program.functions.size()) {
        faults.raise(is_become ? UbCategory::TailCall : UbCategory::FuncCall,
                     is_become
                         ? "tail call through a pointer that is not a function"
                         : "calling a pointer that is not a function",
                     span);
        return FnPtrVal::kInvalidFn;
    }
    const lang::FnItem& target =
        program.functions[static_cast<std::size_t>(fn.fn_index)];
    if (static_type.is_fn_ptr() && !target.has_fn_type(static_type)) {
        faults.raise(
            is_become ? UbCategory::TailCall : UbCategory::FuncPointer,
            std::string(is_become ? "tail call" : "call") +
                " through a function pointer with the wrong signature: pointer says " +
                static_type.to_string() + " but '" + target.name + "' is " +
                target.fn_type_spelling(),
            span);
        return FnPtrVal::kInvalidFn;
    }
    return fn.fn_index;
}

Value Machine::array_repeat(const Value& element, std::uint64_t count,
                            std::uint64_t element_size,
                            const support::SourceSpan& span) {
    if (!mem.fits_in_cap(count, element_size, span)) return Value::array({});
    return Value::array(std::vector<Value>(count, element));
}

Value Machine::intrinsic(IntrinsicId id, const std::vector<Value>& args,
                         const IntrinsicFacts& facts, support::SourceSpan span,
                         const ThreadBody& run_body) {
    auto arg_bits = [&](std::size_t i) {
        return i < args.size() ? args[i].bits() : 0;
    };
    switch (id) {
        case IntrinsicId::Alloc: {
            const AllocId alloc = mem.allocate(arg_bits(0), arg_bits(1),
                                               AllocKind::Heap, "heap", span);
            return Value::pointer(mem.base_pointer(alloc));
        }
        case IntrinsicId::Dealloc:
            mem.deallocate(args[0].as_ptr(), arg_bits(1), arg_bits(2), span);
            return Value::unit();
        case IntrinsicId::Offset:
            return Value::pointer(mem.offset_pointer(
                args[0].as_ptr(), args[1].as_signed(facts.int_width), span,
                facts.pointee_size));
        case IntrinsicId::PrintInt:
            output.push_back(facts.is_signed
                                 ? std::to_string(args[0].as_signed(facts.int_width))
                                 : std::to_string(args[0].bits()));
            return Value::unit();
        case IntrinsicId::PrintBool:
            output.push_back(args[0].as_bool() ? "true" : "false");
            return Value::unit();
        case IntrinsicId::Input: {
            const std::uint64_t index = arg_bits(0);
            return Value::scalar(static_cast<std::uint64_t>(
                index < inputs.size() ? inputs[index] : 0));
        }
        case IntrinsicId::Assert:
            if (!args[0].as_bool()) panic(faults, "assertion failed", span);
            return Value::unit();
        case IntrinsicId::Panic:
            panic(faults, "explicit panic", span);
            return Value::unit();
        case IntrinsicId::Spawn: {
            multithreaded = true;
            ThreadState thread;
            thread.id = static_cast<ThreadId>(threads.size() + 1);
            thread.entry_fn = args[0].as_fn().fn_index;
            // Happens-before: everything the parent did so far is visible.
            thread.vc = current_vc();
            thread.vc.increment(thread.id);
            current_vc().increment(current_thread);
            threads.push_back(std::move(thread));
            return Value::scalar(threads.size());
        }
        case IntrinsicId::Join: {
            const std::uint64_t handle = arg_bits(0);
            if (handle == 0 || handle > threads.size()) {
                faults.raise(UbCategory::Concurrency,
                             "joining an invalid thread handle", span);
                return Value::unit();
            }
            // By index: the body may spawn threads and grow `threads`.
            const std::size_t index = handle - 1;
            if (threads[index].joined) {
                faults.raise(UbCategory::Concurrency,
                             "joining a thread that was already joined", span);
                return Value::unit();
            }
            if (!threads[index].executed) {
                const ThreadId saved_thread = current_thread;
                const std::uint32_t saved_depth = call_depth;
                current_thread = threads[index].id;
                call_depth = 0;
                run_body(threads[index].entry_fn, span);
                call_depth = saved_depth;
                current_thread = saved_thread;
                threads[index].executed = true;
            }
            threads[index].joined = true;
            current_vc().merge(threads[index].vc);
            current_vc().increment(current_thread);
            return Value::unit();
        }
        case IntrinsicId::MutexNew:
            mutexes.emplace_back();
            return Value::scalar(mutexes.size());
        case IntrinsicId::MutexLock:
        case IntrinsicId::MutexUnlock: {
            const std::uint64_t handle = arg_bits(0);
            if (handle == 0 || handle > mutexes.size()) {
                faults.raise(UbCategory::Concurrency, "invalid mutex handle",
                             span);
                return Value::unit();
            }
            MutexState& mutex = mutexes[handle - 1];
            if (id == IntrinsicId::MutexLock) {
                if (mutex.held_by.has_value()) {
                    faults.raise(
                        UbCategory::Concurrency,
                        *mutex.held_by == current_thread
                            ? "deadlock: thread re-locking a mutex it already holds"
                            : "deadlock: locking a mutex held by a finished thread",
                        span);
                    return Value::unit();
                }
                mutex.held_by = current_thread;
                current_vc().merge(mutex.vc);  // acquire
            } else {
                if (!mutex.held_by.has_value() ||
                    *mutex.held_by != current_thread) {
                    faults.raise(UbCategory::Concurrency,
                                 "unlocking a mutex not held by this thread",
                                 span);
                    return Value::unit();
                }
                mutex.held_by.reset();
                mutex.vc.merge(current_vc());  // release
                current_vc().increment(current_thread);
            }
            return Value::unit();
        }
        case IntrinsicId::AtomicLoad:
        case IntrinsicId::AtomicStore:
        case IntrinsicId::AtomicFetchAdd: {
            const Pointer p = args[0].as_ptr();
            const lang::Type i64_type = lang::Type::i64();
            const AccessCtx ctx = access_ctx(span, /*atomic=*/true);
            // Synchronize through the location's clock.
            VectorClock& loc_vc = atomic_vcs[{p.alloc, p.addr}];
            current_vc().merge(loc_vc);  // acquire
            if (id == IntrinsicId::AtomicLoad) return mem.load(p, i64_type, ctx);
            Value result = Value::unit();
            if (id == IntrinsicId::AtomicFetchAdd) {
                result = mem.load(p, i64_type, ctx);
                mem.store(p, i64_type, Value::scalar(result.bits() + args[1].bits()),
                          ctx);
            } else {
                mem.store(p, i64_type, args[1], ctx);
            }
            loc_vc.merge(current_vc());  // release
            current_vc().increment(current_thread);
            return result;
        }
        case IntrinsicId::Unknown:
            break;
    }
    throw std::logic_error("unhandled intrinsic");
}

void Machine::teardown() {
    for (const ThreadState& thread : threads) {
        if (!thread.joined) {
            faults.raise(
                UbCategory::Concurrency,
                "thread leaked: spawned thread was never joined before main exited",
                {});
            return;
        }
    }
    for (std::size_t i = 0; i < mutexes.size(); ++i) {
        if (mutexes[i].held_by.has_value()) {
            faults.raise(UbCategory::Concurrency,
                         "mutex " + std::to_string(i + 1) +
                             " still held at main exit",
                         {});
            return;
        }
    }
    if (auto leak = mem.check_leaks()) {
        faults.raise(leak->category, std::move(leak->message), leak->span);
    }
}

}  // namespace rustbrain::miri
