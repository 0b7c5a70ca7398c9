#include "miri/lower.hpp"

namespace rustbrain::miri {

LoweredProgram lower_program(lang::Program& /*program*/) { return {}; }

}  // namespace rustbrain::miri
