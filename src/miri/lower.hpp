// The retired slot-lowering pass, kept as a shim so callers written against
// it still compile. Names are bound once, by lang::type_check, on the tree
// itself (DESIGN.md §4): every tier reads those Bindings, and nothing is
// left to lower. A LoweredProgram carries nothing, and every function that
// still takes one ignores it.
#pragma once

#include "lang/ast.hpp"

namespace rustbrain::miri {

struct LoweredProgram {};

/// Returns an empty LoweredProgram; `program` is left as it is.
[[nodiscard]] LoweredProgram lower_program(lang::Program& program);

}  // namespace rustbrain::miri
