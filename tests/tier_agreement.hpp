// Shared by the suites that hold an execution path to the tree walk: a
// byte-level MiriReport comparison, the VM's runs folded into a report,
// the three-way tier check, and the program shapes the suites sweep.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "miri/mirilite.hpp"
#include "verify/oracle.hpp"
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
/// way MiriLite::test folds its runs. Adds the runs' fixed-point skips to
/// `*skipped` when given.
inline MiriReport vm_report(const lang::Program& program,
                            const vm::VmProgram& code, const Inputs& input_sets,
                            const InterpLimits& limits,
                            std::uint64_t* skipped = nullptr) {
    MiriReport report;
    std::set<std::string> seen;
    for (const auto& inputs : input_sets.empty() ? Inputs{{}} : input_sets) {
        vm::Vm machine(program, code, inputs, limits);
        RunResult result = machine.run();
        if (skipped != nullptr) *skipped += machine.skipped_steps();
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding && seen.insert(result.finding->key()).second) {
            report.findings.push_back(*result.finding);
        }
    }
    return report;
}

/// The tree walk's report, and the steps the VM skipped (vm::Vm's loop
/// fixed points).
struct TierRun {
    MiriReport reference;
    std::uint64_t skipped = 0;
};

/// Run `source` through the tree-walk MiriLite, an uncached default
/// Oracle, and vm::Vm driven directly on every run; require byte-equal
/// reports.
inline TierRun expect_tiers_agree(const std::string& source,
                                  const Inputs& inputs,
                                  InterpLimits limits = {}) {
    TierRun run;
    run.reference = MiriLite(limits).test_source(source, inputs);
    const MiriReport& reference = run.reference;

    verify::OracleOptions options;
    options.limits = limits;
    options.caching = false;
    const verify::Oracle oracle(options);
    expect_reports_equal(reference, oracle.test_source(source, inputs),
                         "default\n" + source);

    const auto compiled = oracle.compile(source);
    if (!compiled->ok()) return run;  // front-end errors never run a VM
    expect_reports_equal(reference,
                         vm_report(compiled->program, compiled->bytecode(),
                                   inputs, limits, &run.skipped),
                         "vm\n" + source);
    return run;
}

// The six candidates of the seed-42, 560-case forge whose runs reach the
// 2M-step limit: each `while` guard never changes, so after its first
// iteration every iteration rewrites identical state. Three drop the
// increment; three write `+ 0`, one of them in a pad loop before a
// function-pointer cast.
struct TailCase {
    const char* source;
    Inputs inputs;
};

inline const std::vector<TailCase> kStepLimitTails = {
    {R"(fn main() {
    let pad_slack_1: i64 = (25 * 3) + 3;
    {
        unsafe {
            let arena = alloc(6 * 8, 8);
            let base = arena as *mut i64;
            let mut i: i64 = 0;
            while i < 6 {
                *offset(base, i as isize) = i;
            }
            print_int(*offset(base, 1));
            dealloc(arena, 6 * 8, 8);
        }
    }
    let pad_idle_0: i64 = 50;
}
)",
     {{}}},
    {R"(fn score(a: i64, b: i64) -> i64 {
    return (a * 9) + b;
}

fn main() {
    let mut pad_scratch_2: i64 = 0;
    while pad_scratch_2 < 7 {
        pad_scratch_2 = pad_scratch_2 + 0;
    }
    {
        unsafe {
            let addr = score as usize;
            let f = addr as fn(i64) -> i64;
            print_int(f(10));
        }
    }
    let mut pad_stash_0: i64 = 0;
    while pad_stash_0 < 8 {
        pad_stash_0 = pad_stash_0 + 1;
    }
    let mut pad_scratch_1: i64 = 0;
    while pad_scratch_1 < 6 {
        pad_scratch_1 = pad_scratch_1 + 1;
    }
}

fn unused_blend(x: i64) -> i64 {
    return (x * 2) + 88;
}
)",
     {{}}},
    {R"(fn main() {
    {
        unsafe {
            let p = alloc(3 * 8, 8);
            let base = p as *mut i64;
            let mut i: i64 = 0;
            while i < (3 - 1) {
                *offset(base, i as isize) = i * 2;
                i = i + 0;
            }
            let mut total: i64 = 0;
            i = 0;
            while i < 3 {
                total = total + *offset(base, i as isize);
                i = i + 1;
            }
            print_int(total);
            dealloc(p, 3 * 8, 8);
        }
    }
    let pad_idle_0: i64 = 62;
    let pad_slack_1: i64 = (56 * 3) + 3;
}
)",
     {{}}},
    {R"(fn main() {
    unsafe {
        let slab = alloc(3 * 8, 8);
        let base = slab as *mut i64;
        let mut i: i64 = 0;
        while i < 3 {
            *offset(base, i as isize) = i * 10;
        }
        let pick = input(0);
        print_int(*offset(base, pick as isize));
        dealloc(slab, 3 * 8, 8);
    }
    let pad_spare_0: i64 = (33 * 2) + 2;
    let mut pad_idle_1: i64 = 0;
    while pad_idle_1 < 9 {
        pad_idle_1 = pad_idle_1 + 1;
    }
    let pad_spare_2: i64 = 80;
}

fn unused_route(x: i64) -> i64 {
    return (x * 5) + 94;
}
)",
     {{0}, {2}}},
    {R"(fn main() {
    {
        unsafe {
            let region = alloc(8 * 8, 8);
            let base = region as *mut i64;
            let mut i: i64 = 0;
            while i < 8 {
                *offset(base, i as isize) = i * 6;
            }
            let pick = input(0);
            print_int(*offset(base, pick as isize));
            dealloc(region, 8 * 8, 8);
        }
    }
}
)",
     {{1}, {7}}},
    {R"(fn main() {
    let mut pad_spare_0: i64 = 0;
    while pad_spare_0 < 1 {
        pad_spare_0 = pad_spare_0 + 1;
    }
    unsafe {
        let arena = alloc(4 * 8, 8);
        let base = arena as *mut i64;
        let mut i: i64 = 0;
        while i <= 4 {
            *offset(base, i as isize) = i;
            i = i + 0;
        }
        print_int(*offset(base, 1));
        dealloc(arena, 4 * 8, 8);
    }
}

fn unused_probe(x: i64) -> i64 {
    return (x * 4) + 64;
}
)",
     {{}}},
};

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

// Names are bound by the type checker alone, so each shape below is one a
// type checker and a run once disagreed on.

/// A fn-pointer local shadows the function item `f` in call position:
/// prints 3. `f(5)` in the same program is a call argument count mismatch.
inline constexpr const char* kLocalFnPtrShadowsItem = R"(fn f(x: i64) -> i64 {
    return x;
}
fn g(x: i64, y: i64) -> i64 {
    return x + y;
}
fn main() {
    let f: fn(i64, i64) -> i64 = g;
    print_int(f(1, 2));
}
)";

inline constexpr const char* kLocalFnPtrArityMismatch = R"(fn f(x: i64) -> i64 {
    return x;
}
fn g(x: i64, y: i64) -> i64 {
    return x + y;
}
fn main() {
    let f: fn(i64, i64) -> i64 = g;
    print_int(f(5));
}
)";

/// Static initializers that name a later static, directly or through a
/// call: both are compile errors.
inline constexpr const char* kStaticNamesLaterStatic = R"(static A: [i64; 1] = [B];
static B: i64 = 1;
fn main() {
    print_int(A[0]);
}
)";

/// Indirect calls with arguments: the callee is evaluated before the
/// arguments, left to right. Every operand prints, so an order change shows
/// in the output. Prints 1 2 3 30, then 0 1 2 3 30.
inline constexpr const char* kIndirectCallWithArgs = R"(fn add(x: i64, y: i64) -> i64 {
    print_int(3);
    return x + y;
}
fn pick() -> fn(i64, i64) -> i64 {
    print_int(0);
    return add;
}
fn a() -> i64 {
    print_int(1);
    return 10;
}
fn b() -> i64 {
    print_int(2);
    return 20;
}
fn main() {
    let f = add;
    print_int((f)(a(), b()));
    print_int((pick())(a(), b()));
}
)";

/// A call through a fn-pointer table: the index, then the argument.
/// Prints 0 1 3 5.
inline constexpr const char* kFnTableCallWithArgs = R"(fn twice(x: i64) -> i64 {
    print_int(2);
    return x * 2;
}
fn succ(x: i64) -> i64 {
    print_int(3);
    return x + 1;
}
fn i() -> i64 {
    print_int(0);
    return 1;
}
fn x() -> i64 {
    print_int(1);
    return 4;
}
fn main() {
    let fs: [fn(i64) -> i64; 2] = [twice, succ];
    print_int(fs[i()](x()));
}
)";

inline constexpr const char* kStaticCallReadsLaterStatic = R"(static A: [i64; 1] = [f()];
static B: i64 = 1;
fn f() -> i64 {
    return B;
}
fn main() {
    print_int(A[0]);
}
)";

}  // namespace rustbrain::miri::agreement
