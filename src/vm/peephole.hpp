// Post-compile optimization pass over VmProgram: superinstruction fusion
// and register promotion of unaliased scalar locals. See bytecode.hpp for
// the fused-op encodings and DESIGN.md §11 for what the byte-identity
// contract permits the pass to do.
#pragma once

#include "vm/bytecode.hpp"

namespace rustbrain::vm {

/// Derive an optimized program from `input` (which must have come straight
/// from vm::compile):
///
///  1. Fuse the dominant instruction windows into superinstructions —
///     [Step, LoadLocal, LoadLocal, Binary] → BinaryLocals,
///     [Step, LoadLocal, PushInt, Binary] → BinaryLocalImm,
///     [PlaceLocal, StorePlace] → StoreLocal,
///     [Binary(cmp), JumpIfFalse] → CompareBranch —
///     longest window first, skipping any window whose interior contains a
///     jump target, then remap all jump targets / entries to the new pcs.
///     Each superinstruction replays its constituents' step() bookkeeping
///     exactly, so step counts (and the steps snapshot a mid-window UB
///     throw observes) are unchanged.
///  2. Promote unaliased scalar locals to a per-frame register file: an
///     integer- or bool-typed slot whose every occurrence is a
///     declaration, whole-value load/store, or kill (never PlaceLocal /
///     CallLocalPtr, i.e. its address is never taken) skips the
///     MemoryModel load/store round trip. Declarations still perform a
///     shadow allocation so the address / AllocId / borrow-tag /
///     bytes_allocated streams — observable through ptr-to-int casts and
///     later allocations — stay byte-identical.
///
/// The result borrows the same Program-owned storage as `input` and
/// nothing from `input` itself, so `input` may be dropped afterwards
/// (verify::CompiledProgram keeps only the optimized program).
[[nodiscard]] VmProgram optimize(const VmProgram& input);

}  // namespace rustbrain::vm
