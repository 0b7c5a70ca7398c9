// Slot lowering — compile-time name resolution for the bytecode compiler
// (vm::compile) and the static screener.
//
// The tree-walk interpreter resolves every name at runtime: locals by a
// reverse scan over the frame's scope stack (string compares), statics
// through a std::map<std::string, AllocId>, and function references through
// Program::find_function. This pass resolves all of it once, at compile
// time, into dense indices:
//
//   * every `let` and parameter gets a unique frame slot (shadowing gets a
//     fresh slot; visibility follows the same lexical rules the type
//     checker enforces),
//   * every VarRef is classified Local(slot) / Static(index) /
//     Function(index),
//   * every direct call is classified Intrinsic / LocalFnPtr(slot) /
//     Direct(fn index),
//
// so the VM and the screener read std::vector slots instead of scanning
// maps.
//
// The tables are *side tables* keyed by AST NodeId (dense after
// Program::renumber(), which lower_program performs). The AST itself is
// never annotated, so a LoweredProgram is only meaningful when paired with
// the exact Program it was built from — verify::Oracle owns such pairs
// immutably. Programs mutated after lowering (repair patches, AST edits)
// simply aren't paired with a LoweredProgram; there is no stale-annotation
// hazard.
//
// Resolution deliberately mirrors the *interpreter's* runtime lookup order
// (which the type checker shares): intrinsics shadow everything in call
// position; then locals, then statics, then function items. Static
// initializers see themselves and statics declared before them (never later
// ones), exactly like the interpreter's in-order setup_statics.
#pragma once

#include <cstdint>
#include <vector>

#include "lang/ast.hpp"

namespace rustbrain::miri {

struct VarResolution {
    enum class Kind : std::uint8_t {
        Unresolved,  // the VM throws the same logic_error as the tree walk
        Local,       // index = frame slot
        Static,      // index = position in Program::statics
        Function,    // index = position in Program::functions
    };
    Kind kind = Kind::Unresolved;
    std::int32_t index = -1;
};

struct CallResolution {
    enum class Kind : std::uint8_t {
        Unresolved,  // unknown callee — the VM throws like the tree walk
        Intrinsic,   // dispatched by name (cold table, not a hot lookup)
        LocalFnPtr,  // index = frame slot holding the fn-pointer value
        Direct,      // index = position in Program::functions
    };
    Kind kind = Kind::Unresolved;
    std::int32_t index = -1;
};

struct LoweredProgram {
    /// Indexed by NodeId (ids are 1-based; slot 0 is unused).
    std::vector<VarResolution> var_refs;
    std::vector<std::int32_t> let_slots;
    std::vector<CallResolution> calls;
    /// Frame slot count per function (parameters occupy slots 0..n-1).
    std::vector<std::uint32_t> fn_slot_counts;
};

/// Lower a type-checked program. Renumbers the AST (deterministic pre-order,
/// the same numbering try_parse already produced) and builds the resolution
/// tables; the tree shape is never changed.
[[nodiscard]] LoweredProgram lower_program(lang::Program& program);

}  // namespace rustbrain::miri
