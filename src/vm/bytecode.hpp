// Flat bytecode for MiriLite.
//
// vm::compile() flattens a type-checked program into a dense array of
// fixed-width instructions, one chunk per function body and per static
// initializer. It resolves no name: each local, static and callee is the
// Binding the type checker wrote on the node (DESIGN.md §4), stored inline
// as a slot or an index. Jump targets are instruction indices, so control
// flow is `pc = target` instead of recursive AST descent, and every
// operand the tree walk recomputed per visit (statically known place types,
// truncated literals, overflow widths) is resolved once at compile time.
//
// The contract is *byte-identity* with miri::Interpreter: the compiler emits
// one Step instruction (or folds one into the leading opcode) exactly where
// the tree walk calls step(), preserves its evaluation and allocation
// orders, and the VM calls the same machine core (miri/machine.hpp,
// miri/scalar.hpp) — so findings, messages, spans, outputs, and step counts
// reproduce rule for rule. A VmProgram borrows type and name storage from
// the exact Program it was compiled from and is only meaningful next to it
// (verify::Oracle owns such pairs immutably).
//
// Instructions are packed to 32 bytes (half the original 56): spans, type
// pointers, and aux pointers are interned into side tables on the VmProgram
// and instructions carry 32-bit indices. Index 0 of each table is the
// "absent" entry ({} span / null pointer), so zero-initialized fields keep
// their old meaning.
//
// There is one bytecode form: the VM runs vm::compile output as it stands
// (DESIGN.md §11).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/lower.hpp"  // LoweredProgram, for the two-argument compile

namespace rustbrain::vm {

enum class Op : std::uint8_t {
    // Bookkeeping -------------------------------------------------------
    Step,        // step(span): statement entry / while-iteration / expr entry
    Jump,        // pc = a
    JumpIfFalse, // pop cond; if !cond pc = a
    AndJump,     // if !top: pc = a (keep top) else pop   (short-circuit &&)
    OrJump,      // if top:  pc = a (keep top) else pop   (short-circuit ||)
    BoolNorm,    // top = boolean(top.as_bool())
    Pop,         // discard top (expression statements)

    // Pushes (leading step folded in) ----------------------------------
    PushUnit,    // no step: used for implicit unit results
    PushInt,     // step; push scalar(imm) — literal pre-truncated to type
    PushBool,    // step; push boolean(a)
    PushFn,      // step; push function(a)
    LoadLocal,   // step; slot a live ? push load : logic_error (name in aux)
    LoadStatic,  // step; static a live ? push load : logic_error

    // Places (no step; mirror eval_place) ------------------------------
    PlaceLocal,      // slot a live ? push base ptr : logic_error
    PlaceStatic,     // static a live ? push base ptr : logic_error
    AsPtr,           // top.as_ptr() — force the tree walk's conversion point
    IndexPlace,      // pop index, pop base; bounds-check (len=imm, elem=a)

    // Memory ------------------------------------------------------------
    LoadThrough, // pop ptr; push load(ptr, *type) at span
    StorePlace,  // pop place ptr, pop value; store at span
    RetagRef,    // pop place ptr; retag_ref(size=imm, is_mut=a); push
    DeclLocal,   // pop value; allocate+store slot a (let) — name aux, type
    DeclParam,   // declare slot a from caller arg b (or unit) at fn span
    DropArgs,    // shrink value stack to the frame's args_base
    KillSlot,    // scope exit: if slot a live, mem.kill + clear
    KillSlotTail,// become: kill_for_tail_call + clear

    // Arithmetic / casts -------------------------------------------------
    Neg,         // type = operand and result
    NotBool,
    NotBits,     // type = result
    Binary,      // a = lang::BinaryOp; type = result, aux = operand Type*
    Cast,        // a = miri::CastKind: IntFromInt b = source signed,
                 //   small = source size; PtrToInt/FnToInt/IntFromInt
                 //   type = target; RefToRaw small = writable, imm =
                 //   pointee size; Unsupported type = target, aux = source
    MakeArray,   // pop a elements; push array
    MakeRepeat,  // pop element; push array of imm copies of element type
                 //   `type`, checked against the memory cap at span

    // Calls --------------------------------------------------------------
    CallDirect,   // a = fn index, b = nargs
    CallLocalPtr, // a = slot, b = nargs, aux = name
    CallPtr,      // b = nargs; callee value sits below the args
    TailCall,     // b = nargs; become — frame reused in place
    Intrinsic,    // a = lang::IntrinsicId, b = nargs; miri::IntrinsicFacts
                  //   in imm = pointee size, small = int width, flag = signed
    Ret,          // pop frame; result stays on the value stack
    Halt,         // end of a static-initializer chunk
};

/// One fixed-width instruction, packed to 32 bytes (a 56-byte layout with
/// inline span/type/aux cost one extra cache line per pair of instructions).
/// `span`/`type`/`aux` index the VmProgram side tables; index 0 is the
/// absent entry, so zero-init preserves the unpacked semantics.
struct Instr {
    Op op = Op::Step;
    std::uint8_t small = 0;   // narrow operand (old `c`): sizes ≤ 8, flags
    std::uint8_t flag = 0;    // second narrow operand: Intrinsic's signedness
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::uint32_t span = 0;   // index into VmProgram::spans
    std::uint32_t type = 0;   // index into VmProgram::types
    std::uint32_t aux = 0;    // index into VmProgram::auxes
    std::uint64_t imm = 0;
};
static_assert(sizeof(Instr) == 32, "Instr must stay one half cache line");

struct VmFunction {
    std::int32_t entry = 0;
    std::uint32_t slot_count = 0;
    support::SourceSpan span;  // depth-check / param-declaration span
};

struct VmProgram {
    std::vector<Instr> code;
    std::vector<VmFunction> functions;
    /// Entry pc per static initializer chunk (each ends with Halt).
    std::vector<std::int32_t> static_entries;
    /// Index of `main`, -1 when absent (the VM then reports the same
    /// CompileError finding as the tree walk).
    std::int32_t main_fn = -1;

    /// Interned side tables ([0] is the absent entry). `types` holds one
    /// handle per distinct type, valid while the program's type pool lives;
    /// `auxes` alias storage owned by the AST.
    std::vector<support::SourceSpan> spans{support::SourceSpan{}};
    std::vector<lang::Type> types{lang::Type()};
    std::vector<const void*> auxes{nullptr};
};

/// Flatten a program that passed lang::type_check into bytecode.
[[nodiscard]] VmProgram compile(const lang::Program& program);
/// The same; the lowering is ignored. Kept so two-argument callers compile.
[[nodiscard]] VmProgram compile(const lang::Program& program,
                                const miri::LoweredProgram& lowering);

/// Process-wide counter proving compilation laziness (the tree tier, and
/// the vm tier's runs that stay under verify::kVmAfterSteps, must never pay
/// for bytecode). Monotonic; tests diff before/after.
struct CompileStats {
    static std::atomic<std::uint64_t> bytecode_compiles;
};

}  // namespace rustbrain::vm
