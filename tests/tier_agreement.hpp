// Shared by the suites that hold an execution path to the tree walk: a
// byte-level MiriReport comparison, the VM's runs folded into a report,
// and the name-resolution / control-flow shapes both suites sweep.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "miri/mirilite.hpp"
#include "vm/bytecode.hpp"
#include "vm/vm.hpp"

namespace rustbrain::miri::agreement {

using Inputs = std::vector<std::vector<std::int64_t>>;

/// Findings (category, message, span), outputs and step counts.
inline void expect_reports_equal(const MiriReport& want, const MiriReport& got,
                                 const std::string& label) {
    ASSERT_EQ(want.findings.size(), got.findings.size()) << label;
    for (std::size_t i = 0; i < want.findings.size(); ++i) {
        EXPECT_EQ(want.findings[i].category, got.findings[i].category)
            << label;
        EXPECT_EQ(want.findings[i].message, got.findings[i].message) << label;
        EXPECT_EQ(want.findings[i].span.begin, got.findings[i].span.begin)
            << label;
        EXPECT_EQ(want.findings[i].span.end, got.findings[i].span.end)
            << label;
        EXPECT_EQ(want.findings[i].span.line, got.findings[i].span.line)
            << label;
        EXPECT_EQ(want.findings[i].span.column, got.findings[i].span.column)
            << label;
    }
    EXPECT_EQ(want.outputs, got.outputs) << label;
    EXPECT_EQ(want.total_steps, got.total_steps) << label;
}

/// `code` run on vm::Vm once per input vector, folded into a report the
/// way MiriLite::test folds its runs.
inline MiriReport vm_report(const lang::Program& program,
                            const vm::VmProgram& code, const Inputs& input_sets,
                            const InterpLimits& limits) {
    MiriReport report;
    std::set<std::string> seen;
    for (const auto& inputs : input_sets.empty() ? Inputs{{}} : input_sets) {
        RunResult result = vm::Vm(program, code, inputs, limits).run();
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding && seen.insert(result.finding->key()).second) {
            report.findings.push_back(*result.finding);
        }
    }
    return report;
}

// Name-resolution / control-flow shapes. kInputs runs over
// {{3, 4}, {10, 20}}; the others take no inputs.

inline constexpr const char* kShadowing = R"(fn main() {
    let x = 1;
    let x = x + 10;
    print_int(x);
    {
        let x = 100;
        print_int(x);
    }
    print_int(x);
}
)";

inline constexpr const char* kLoopRedeclaration = R"(fn main() {
    let mut i = 0;
    while i < 3 {
        let x = i * 2;
        print_int(x);
        i = i + 1;
    }
}
)";

inline constexpr const char* kStaticsAndLocals = R"(static G: i32 = 7;
fn main() {
    print_int(G as i64);
    let G = 40;
    print_int(G);
}
)";

inline constexpr const char* kMutableStatic = R"(static mut COUNTER: i64 = 0;
fn bump() {
    unsafe {
        COUNTER = COUNTER + 1;
    }
}
fn main() {
    bump();
    bump();
    unsafe {
        print_int(COUNTER);
    }
}
)";

inline constexpr const char* kFunctionPointers = R"(fn double(x: i64) -> i64 {
    return x * 2;
}
fn main() {
    let f = double;
    print_int(f(21));
}
)";

inline constexpr const char* kBecomeTailCalls = R"(fn countdown(n: i64) {
    if n == 0 {
        print_int(0);
        return;
    }
    become countdown(n - 1);
}
fn main() {
    countdown(5000);
}
)";

inline constexpr const char* kSpawnedThreads = R"(static mut SHARED: i64 = 0;
fn worker() {
    unsafe {
        SHARED = 5;
    }
}
fn main() {
    let handle = spawn(worker);
    join(handle);
    unsafe {
        print_int(SHARED);
    }
}
)";

inline constexpr const char* kInputs = R"(fn main() {
    print_int(input(0) + input(1));
}
)";

}  // namespace rustbrain::miri::agreement
