// Post-compile optimization pass: superinstruction fusion + register
// promotion. See peephole.hpp for the contract and DESIGN.md §11 for the
// legality argument. Everything here is a pure bytecode→bytecode transform;
// the VM handlers for the fused ops replay their constituents exactly, so
// the pass only has to prove that (a) control never enters the middle of a
// fused window and (b) a promoted slot's memory is never observed.
#include "vm/peephole.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace rustbrain::vm {

namespace {

bool is_compare(lang::BinaryOp op) {
    using lang::BinaryOp;
    return op == BinaryOp::Eq || op == BinaryOp::Ne || op == BinaryOp::Lt ||
           op == BinaryOp::Le || op == BinaryOp::Gt || op == BinaryOp::Ge;
}

/// Every pc that control can reach other than by falling through from
/// pc - 1: branch targets, function and static entries, and call-return
/// pcs. A fusion window whose *interior* contains one of these must be
/// left alone (entering mid-window would skip part of the replay).
std::vector<bool> collect_targets(const VmProgram& in) {
    std::vector<bool> target(in.code.size() + 1, false);
    auto mark = [&](std::int32_t pc) {
        if (pc >= 0 && static_cast<std::size_t>(pc) < target.size()) {
            target[static_cast<std::size_t>(pc)] = true;
        }
    };
    for (std::size_t pc = 0; pc < in.code.size(); ++pc) {
        const Instr& ins = in.code[pc];
        switch (ins.op) {
            case Op::Jump:
            case Op::JumpIfFalse:
            case Op::AndJump:
            case Op::OrJump:
            case Op::CompareBranch:
                mark(ins.a);
                break;
            case Op::LocalsBranch:
                mark(in.fused[static_cast<std::size_t>(ins.imm)].branch_target);
                break;
            case Op::LocalImmBranch:
                mark(in.fused[static_cast<std::size_t>(ins.b)].branch_target);
                break;
            case Op::CallDirect:
            case Op::CallLocalPtr:
            case Op::CallPtr:
                mark(static_cast<std::int32_t>(pc) + 1);  // Ret lands here
                break;
            default:
                break;
        }
    }
    for (const VmFunction& fn : in.functions) mark(fn.entry);
    for (std::int32_t entry : in.static_entries) mark(entry);
    return target;
}

/// Fusion decisions for the window starting at `pc` (first stage): how many
/// input instructions it covers (0 = no fusion). Longest window first, so
/// the 4-wide arithmetic patterns win over a 2-wide CompareBranch
/// overlapping their tail.
std::size_t match_window(const VmProgram& in, std::size_t pc,
                         const std::vector<bool>& target) {
    const std::vector<Instr>& code = in.code;
    const std::size_t n = code.size();
    auto interior_clear = [&](std::size_t width) {
        for (std::size_t i = 1; i < width; ++i) {
            if (target[pc + i]) return false;
        }
        return true;
    };
    if (pc + 4 <= n && code[pc].op == Op::Step &&
        code[pc + 1].op == Op::LoadLocal && code[pc + 3].op == Op::Binary &&
        (code[pc + 2].op == Op::LoadLocal || code[pc + 2].op == Op::PushInt) &&
        interior_clear(4)) {
        return 4;
    }
    if (pc + 2 <= n && code[pc].op == Op::PlaceLocal &&
        code[pc + 1].op == Op::StorePlace && interior_clear(2)) {
        return 2;
    }
    if (pc + 2 <= n && code[pc].op == Op::Binary &&
        is_compare(static_cast<lang::BinaryOp>(code[pc].a)) &&
        code[pc + 1].op == Op::JumpIfFalse && interior_clear(2)) {
        return 2;
    }
    return 0;
}

Instr fuse_window(const VmProgram& in, std::size_t pc, std::size_t width,
                  VmProgram& out) {
    const std::vector<Instr>& code = in.code;
    if (width == 4) {
        const Instr& step = code[pc];
        const Instr& lhs = code[pc + 1];
        const Instr& rhs = code[pc + 2];
        const Instr& bin = code[pc + 3];
        FusedDetail detail;
        detail.step_span = step.span;
        detail.lhs_span = lhs.span;
        detail.rhs_span = rhs.span;
        detail.lhs_name = lhs.aux;
        const std::uint32_t fused_index =
            static_cast<std::uint32_t>(out.fused.size());
        Instr fused;
        fused.small = static_cast<std::uint8_t>(bin.a);
        fused.span = bin.span;
        fused.type = bin.type;
        fused.aux = bin.aux;
        fused.a = lhs.a;
        if (rhs.op == Op::LoadLocal) {
            fused.op = Op::BinaryLocals;
            fused.b = rhs.a;
            fused.imm = fused_index;
            detail.rhs_name = rhs.aux;
        } else {
            fused.op = Op::BinaryLocalImm;
            fused.b = static_cast<std::int32_t>(fused_index);
            fused.imm = rhs.imm;  // the folded PushInt's pre-truncated literal
        }
        out.fused.push_back(detail);
        return fused;
    }
    if (code[pc].op == Op::PlaceLocal) {
        const Instr& place = code[pc];
        const Instr& store = code[pc + 1];
        Instr fused;
        fused.op = Op::StoreLocal;
        fused.a = place.a;
        fused.aux = place.aux;
        fused.span = store.span;
        fused.type = store.type;
        return fused;
    }
    const Instr& bin = code[pc];
    const Instr& jump = code[pc + 1];
    Instr fused;
    fused.op = Op::CompareBranch;
    fused.small = static_cast<std::uint8_t>(bin.a);
    fused.a = jump.a;  // old-space target, remapped below
    fused.span = bin.span;
    fused.type = bin.type;
    fused.aux = bin.aux;
    return fused;
}

/// Second-stage windows, over first-stage output: runs of consecutive
/// Steps (nested binary expressions emit their entry Steps back to back),
/// [BinaryLocalImm, Binary] accumulation links (left-leaning chains
/// like `acc + a * 2 + b * 3` leave one per term), and [PushInt, Binary]
/// tails (`expr % K` with a complex lhs evades the 4-wide stage-1 window).
constexpr std::size_t kMaxStepRun = 16;

std::size_t match_window2(const VmProgram& in, std::size_t pc,
                          const std::vector<bool>& target) {
    const std::vector<Instr>& code = in.code;
    const std::size_t n = code.size();
    if (code[pc].op == Op::Step) {
        std::size_t run = 1;
        while (run < kMaxStepRun && pc + run < n &&
               code[pc + run].op == Op::Step && !target[pc + run]) {
            ++run;
        }
        return run >= 2 ? run : 0;
    }
    if (pc + 2 <= n && code[pc].op == Op::BinaryLocalImm &&
        code[pc + 1].op == Op::Binary && !target[pc + 1]) {
        return 2;
    }
    if (pc + 2 <= n && code[pc].op == Op::PushInt &&
        code[pc + 1].op == Op::Binary && !target[pc + 1]) {
        return 2;
    }
    if (pc + 2 <= n &&
        (code[pc].op == Op::BinaryLocals ||
         code[pc].op == Op::BinaryLocalImm) &&
        code[pc + 1].op == Op::JumpIfFalse &&
        is_compare(static_cast<lang::BinaryOp>(code[pc].small)) &&
        !target[pc + 1]) {
        return 2;
    }
    return 0;
}

Instr fuse_window2(const VmProgram& in, std::size_t pc, std::size_t width,
                   VmProgram& out) {
    const std::vector<Instr>& code = in.code;
    if (code[pc].op == Op::Step) {
        Instr fused;
        fused.op = Op::StepN;
        fused.a = static_cast<std::int32_t>(width);
        fused.b = static_cast<std::int32_t>(out.step_runs.size());
        for (std::size_t i = 0; i < width; ++i) {
            out.step_runs.push_back(code[pc + i].span);
        }
        return fused;
    }
    if (code[pc + 1].op == Op::JumpIfFalse) {
        // Loop heads: keep the fused-compare encoding, swap the push of the
        // bool for the branch. Target stays in old pc space; the caller's
        // remap rewrites it through the FusedDetail.
        Instr fused = code[pc];
        const std::size_t detail =
            fused.op == Op::BinaryLocals ? static_cast<std::size_t>(fused.imm)
                                         : static_cast<std::size_t>(fused.b);
        fused.op = fused.op == Op::BinaryLocals ? Op::LocalsBranch
                                                : Op::LocalImmBranch;
        out.fused[detail].branch_target = code[pc + 1].a;
        return fused;
    }
    if (code[pc].op == Op::BinaryLocalImm) {
        Instr fused = code[pc];  // keep the BinaryLocalImm encoding verbatim
        fused.op = Op::BinaryAccImm;
        const Instr& outer = code[pc + 1];
        FusedDetail& d = out.fused[static_cast<std::size_t>(fused.b)];
        d.outer_op = static_cast<std::uint8_t>(outer.a);
        d.outer_span = outer.span;
        d.outer_type = outer.type;
        d.outer_aux = outer.aux;
        return fused;
    }
    const Instr& lit = code[pc];
    const Instr& bin = code[pc + 1];
    Instr fused;
    fused.op = Op::BinaryStackImm;
    fused.small = static_cast<std::uint8_t>(bin.a);
    fused.a = static_cast<std::int32_t>(lit.span);  // replay PushInt's step
    fused.imm = lit.imm;  // pre-truncated literal
    fused.span = bin.span;
    fused.type = bin.type;
    fused.aux = bin.aux;
    return fused;
}

/// One rewrite pass: greedy left-to-right window fusion plus the old→new
/// pc remap of every branch target and entry point.
VmProgram run_pass(const VmProgram& input,
                   std::size_t (*match)(const VmProgram&, std::size_t,
                                        const std::vector<bool>&),
                   Instr (*fuse)(const VmProgram&, std::size_t, std::size_t,
                                 VmProgram&)) {
    VmProgram out;
    out.functions = input.functions;
    out.static_entries = input.static_entries;
    out.main_fn = input.main_fn;
    out.spans = input.spans;
    out.types = input.types;
    out.auxes = input.auxes;
    out.fused = input.fused;
    out.step_runs = input.step_runs;
    out.code.reserve(input.code.size());

    // Interior pcs get no mapping — collect_targets() proved control never
    // lands on them, and the remap below asserts it.
    const std::vector<bool> target = collect_targets(input);
    std::vector<std::int32_t> new_pc(input.code.size() + 1, -1);
    std::size_t pc = 0;
    while (pc < input.code.size()) {
        new_pc[pc] = static_cast<std::int32_t>(out.code.size());
        const std::size_t width = match(input, pc, target);
        if (width == 0) {
            out.code.push_back(input.code[pc]);
            ++pc;
        } else {
            out.code.push_back(fuse(input, pc, width, out));
            pc += width;
        }
    }
    new_pc[input.code.size()] = static_cast<std::int32_t>(out.code.size());

    auto remap = [&](std::int32_t old) {
        const std::int32_t mapped = new_pc[static_cast<std::size_t>(old)];
        if (mapped < 0) {
            throw std::logic_error(
                "vm::optimize: jump into the interior of a fused window");
        }
        return mapped;
    };
    for (Instr& ins : out.code) {
        switch (ins.op) {
            case Op::Jump:
            case Op::JumpIfFalse:
            case Op::AndJump:
            case Op::OrJump:
            case Op::CompareBranch:
                ins.a = remap(ins.a);
                break;
            case Op::LocalsBranch: {
                std::int32_t& t =
                    out.fused[static_cast<std::size_t>(ins.imm)].branch_target;
                t = remap(t);
                break;
            }
            case Op::LocalImmBranch: {
                std::int32_t& t =
                    out.fused[static_cast<std::size_t>(ins.b)].branch_target;
                t = remap(t);
                break;
            }
            default:
                break;
        }
    }
    for (VmFunction& fn : out.functions) fn.entry = remap(fn.entry);
    for (std::int32_t& entry : out.static_entries) entry = remap(entry);
    return out;
}

/// Per-slot occurrence summary for one function's code range.
struct SlotSummary {
    bool declared = false;
    bool escapes = false;      // PlaceLocal / CallLocalPtr: address observed
    bool integer_only = true;  // every declaration declares an integer type
};

/// True when `in.a` (and for BinaryLocals `in.b`) is a frame-slot index.
/// Everything else interprets `a` differently (binop, fn index, cast kind,
/// static index, …) and must not feed the analysis.
bool is_slot_ref(Op op) {
    switch (op) {
        case Op::LoadLocal:
        case Op::PlaceLocal:
        case Op::DeclLocal:
        case Op::DeclParam:
        case Op::KillSlot:
        case Op::KillSlotTail:
        case Op::CallLocalPtr:
        case Op::StoreLocal:
        case Op::BinaryLocals:
        case Op::BinaryLocalImm:
        case Op::BinaryAccImm:
        case Op::LocalsBranch:
        case Op::LocalImmBranch:
            return true;
        default:
            return false;
    }
}

/// Register promotion over one function's [begin, end) code range.
/// A slot is promoted when its address is never taken (no PlaceLocal /
/// CallLocalPtr), every declaration declares a plain integer, and it is
/// declared in-range at all. Bools stay memory-resident: a bool load
/// re-validates the stored byte (bits > 1 is UB), and a register cannot
/// reproduce that check without duplicating MemoryModel logic.
void promote_function(VmProgram& out, VmFunction& fn, std::size_t begin,
                      std::size_t end) {
    if (fn.slot_count == 0) return;
    std::vector<SlotSummary> slots(fn.slot_count);
    auto summary = [&](std::int32_t slot) -> SlotSummary* {
        if (slot < 0 || static_cast<std::uint32_t>(slot) >= fn.slot_count) {
            return nullptr;
        }
        return &slots[static_cast<std::uint32_t>(slot)];
    };
    for (std::size_t pc = begin; pc < end; ++pc) {
        const Instr& ins = out.code[pc];
        if (!is_slot_ref(ins.op)) continue;
        SlotSummary* s = summary(ins.a);
        if (s == nullptr) continue;
        switch (ins.op) {
            case Op::PlaceLocal:
            case Op::CallLocalPtr:
                s->escapes = true;
                break;
            case Op::DeclLocal:
            case Op::DeclParam: {
                s->declared = true;
                if (ins.type == 0 || !out.types[ins.type].is_integer()) {
                    s->integer_only = false;
                }
                break;
            }
            default:
                // Loads, stores, and kills are whole-value accesses: they
                // neither take the slot's address nor constrain its type.
                break;
        }
    }

    std::vector<std::int32_t> reg_of(fn.slot_count, -1);
    std::uint32_t next_reg = 0;
    for (std::uint32_t i = 0; i < fn.slot_count; ++i) {
        if (slots[i].declared && !slots[i].escapes && slots[i].integer_only) {
            reg_of[i] = static_cast<std::int32_t>(next_reg++);
        }
    }
    fn.reg_count = next_reg;
    if (next_reg == 0) return;

    auto reg_for = [&](std::int32_t slot) -> std::int32_t {
        if (slot < 0 || static_cast<std::uint32_t>(slot) >= fn.slot_count) {
            return -1;
        }
        return reg_of[static_cast<std::uint32_t>(slot)];
    };
    for (std::size_t pc = begin; pc < end; ++pc) {
        Instr& ins = out.code[pc];
        switch (ins.op) {
            case Op::DeclLocal:
            case Op::DeclParam:
            case Op::LoadLocal:
            case Op::StoreLocal: {
                const std::int32_t reg = reg_for(ins.a);
                if (reg >= 0) ins.ex = static_cast<std::uint16_t>(reg + 1);
                break;
            }
            case Op::BinaryLocals:
            case Op::LocalsBranch: {
                FusedDetail& d = out.fused[static_cast<std::size_t>(ins.imm)];
                d.lhs_reg = reg_for(ins.a);
                d.rhs_reg = reg_for(ins.b);
                break;
            }
            case Op::BinaryLocalImm:
            case Op::BinaryAccImm:
            case Op::LocalImmBranch: {
                FusedDetail& d =
                    out.fused[static_cast<std::size_t>(ins.b)];
                d.lhs_reg = reg_for(ins.a);
                break;
            }
            default:
                break;
        }
    }
}

}  // namespace

VmProgram optimize(const VmProgram& input) {
    CompileStats::optimize_passes.fetch_add(1, std::memory_order_relaxed);

    // Two fusion stages (the second fuses across the first's output), then
    // register promotion over the final code.
    VmProgram out = run_pass(run_pass(input, match_window, fuse_window),
                             match_window2, fuse_window2);

    // Register promotion, function by function. A function's code
    // is the contiguous range from its entry to the next entry (functions
    // and static chunks are emitted back to back, in entry order).
    std::vector<std::int32_t> boundaries;
    boundaries.reserve(out.functions.size() + out.static_entries.size() + 1);
    for (const VmFunction& fn : out.functions) boundaries.push_back(fn.entry);
    for (std::int32_t entry : out.static_entries) boundaries.push_back(entry);
    boundaries.push_back(static_cast<std::int32_t>(out.code.size()));
    for (VmFunction& fn : out.functions) {
        std::int32_t end = static_cast<std::int32_t>(out.code.size());
        for (std::int32_t b : boundaries) {
            if (b > fn.entry && b < end) end = b;
        }
        promote_function(out, fn, static_cast<std::size_t>(fn.entry),
                         static_cast<std::size_t>(end));
    }
    return out;
}

}  // namespace rustbrain::vm
