// vm::optimize, kept as a shim so callers written against it (rbbench's
// replay) still compile. There is one bytecode form: the VM runs
// vm::compile output as it stands (DESIGN.md §11).
#pragma once

#include "vm/bytecode.hpp"

namespace rustbrain::vm {

/// Returns a copy of `input`, unchanged.
[[nodiscard]] inline VmProgram optimize(const VmProgram& input) { return input; }

}  // namespace rustbrain::vm
