// Layer replay: the programs TimingOracle saw interpreted are re-timed
// through the library's public per-layer functions — lang::try_parse,
// lang::type_check, miri::lower_program, vm::compile, vm::optimize,
// screen::screen_program — and through every interpreter tier (tree walk,
// slot-lowered walk, bytecode VM, optimized VM). The tier ladder thus comes
// from real workload programs, and every tier's reports are compared, so a
// tier divergence counts as an error.
#pragma once

#include <cstddef>
#include <vector>

#include "seams.hpp"

namespace rbbench {

struct ReplayTimes {
    std::size_t programs = 0;  // (source, inputs) pairs replayed
    std::size_t sources = 0;   // distinct program sources among them
    std::size_t mismatches = 0;  // tier reports that differ from the tree walk
    double parse_ms = 0.0;
    double typecheck_ms = 0.0;
    double lower_ms = 0.0;
    double compile_ms = 0.0;
    double optimize_ms = 0.0;
    double screen_ms = 0.0;
    double tree_ms = 0.0;
    double slot_ms = 0.0;
    double vm_ms = 0.0;
    double vm_opt_ms = 0.0;
};

/// Every program captured on any recorder, deduplicated by (source, inputs).
std::vector<CapturedProgram> captured_programs();

/// Replays `programs` `rounds` times; each time is the median round.
ReplayTimes replay_layers(const std::vector<CapturedProgram>& programs,
                          int rounds);

}  // namespace rbbench
