// Bytecode VM tier: vm::Vm must be observationally identical to BOTH
// reference interpreters — the tree walk and the slot-lowered walk — over
// the whole corpus (buggy and fixed), the name-resolution/become/thread
// shapes from miri_lower_test.cpp, and the InterpLimits edges swept at
// every boundary (step-limit exhaustion at each possible program point,
// call-depth overflow at the exact frame, mid-`become`, mid-recursion).
// "Identical" is byte-level: categories, messages, spans, outputs, and
// step counts.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus.hpp"
#include "miri/interp.hpp"
#include "miri/mirilite.hpp"
#include "verify/oracle.hpp"
#include "vm/vm.hpp"

namespace rustbrain::miri {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

void expect_reports_equal(const MiriReport& want, const MiriReport& got,
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

/// Run `source` through the tree-walk MiriLite and through uncached slot
/// and vm Oracles, and require byte-equal reports.
void expect_tiers_agree(const std::string& source, const Inputs& inputs,
                        InterpLimits limits = {}) {
    const MiriLite tree_walk(limits);
    const MiriReport reference = tree_walk.test_source(source, inputs);

    // Four-way: slot lowering, the VM on raw bytecode, and the VM on
    // vm::optimize output all replay the tree walk byte for byte.
    for (const verify::InterpTier tier :
         {verify::InterpTier::Slot, verify::InterpTier::Vm}) {
        verify::OracleOptions options;
        options.limits = limits;
        options.caching = false;
        options.interp = tier;
        const verify::Oracle oracle(options);
        expect_reports_equal(reference, oracle.test_source(source, inputs),
                             std::string(verify::to_string(tier)) + "\n" +
                                 source);
        if (tier != verify::InterpTier::Vm) continue;

        // The Oracle's vm tier always runs the optimized build, so the raw
        // bytecode is driven directly, folded into a report the same way.
        const auto compiled = oracle.compile(source);
        if (!compiled->ok()) continue;  // front-end errors never run a VM
        MiriReport raw;
        std::set<std::string> seen;
        for (const auto& run_inputs : inputs.empty() ? Inputs{{}} : inputs) {
            vm::Vm machine(compiled->program, compiled->bytecode(), run_inputs,
                           limits);
            RunResult result = machine.run();
            raw.total_steps += result.steps;
            raw.outputs.push_back(std::move(result.output));
            if (result.finding && seen.insert(result.finding->key()).second) {
                raw.findings.push_back(*result.finding);
            }
        }
        expect_reports_equal(reference, raw, "vm-raw\n" + source);
    }
}

TEST(MiriVmTest, TierNamesRoundTrip) {
    EXPECT_STREQ(verify::to_string(verify::InterpTier::Tree), "tree");
    EXPECT_STREQ(verify::to_string(verify::InterpTier::Slot), "slot");
    EXPECT_STREQ(verify::to_string(verify::InterpTier::Vm), "vm");
}

TEST(MiriVmTest, WholeCorpusAgreesBuggyAndFixed) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        expect_tiers_agree(ub_case.buggy_source, ub_case.inputs);
        expect_tiers_agree(ub_case.reference_fix, ub_case.inputs);
    }
}

// --- Name-resolution / control-flow shapes (miri_lower_test's set) ---------

TEST(MiriVmTest, ShadowingResolvesToTheInnermostBinding) {
    expect_tiers_agree(R"(fn main() {
    let x = 1;
    let x = x + 10;
    print_int(x);
    {
        let x = 100;
        print_int(x);
    }
    print_int(x);
}
)",
                       {});
}

TEST(MiriVmTest, LoopRedeclarationGetsAFreshAllocationEachIteration) {
    expect_tiers_agree(R"(fn main() {
    let mut i = 0;
    while i < 3 {
        let x = i * 2;
        print_int(x);
        i = i + 1;
    }
}
)",
                       {});
}

TEST(MiriVmTest, StaticsAndLocalsShareNamespaceWithLocalsWinning) {
    expect_tiers_agree(R"(static G: i32 = 7;
fn main() {
    print_int(G as i64);
    let G = 40;
    print_int(G);
}
)",
                       {});
}

TEST(MiriVmTest, MutableStaticAccess) {
    expect_tiers_agree(R"(static mut COUNTER: i64 = 0;
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
)",
                       {});
}

TEST(MiriVmTest, FunctionPointersThroughLocalsAndIndirectCalls) {
    expect_tiers_agree(R"(fn double(x: i64) -> i64 {
    return x * 2;
}
fn main() {
    let f = double;
    print_int(f(21));
}
)",
                       {});
}

TEST(MiriVmTest, BecomeTailCallsReleaseSlotsBeforeTheCallee) {
    expect_tiers_agree(R"(fn countdown(n: i64) {
    if n == 0 {
        print_int(0);
        return;
    }
    become countdown(n - 1);
}
fn main() {
    countdown(5000);
}
)",
                       {});
}

TEST(MiriVmTest, SpawnedThreadsUseSlotFrames) {
    expect_tiers_agree(R"(static mut SHARED: i64 = 0;
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
)",
                       {});
}

TEST(MiriVmTest, InputsFlowIdentically) {
    expect_tiers_agree(R"(fn main() {
    print_int(input(0) + input(1));
}
)",
                       {{3, 4}, {10, 20}});
}

// --- Expression / operator coverage ----------------------------------------

TEST(MiriVmTest, ShortCircuitOperatorsSkipTheRightHandSide) {
    expect_tiers_agree(R"(fn loud(x: bool) -> bool {
    print_bool(x);
    return x;
}
fn main() {
    if loud(false) && loud(true) {
        print_int(1);
    }
    if loud(true) || loud(false) {
        print_int(2);
    }
    let a = loud(true) && loud(true);
    print_bool(a);
}
)",
                       {});
}

TEST(MiriVmTest, ArrayIndexingAndOutOfBounds) {
    expect_tiers_agree(R"(fn main() {
    let a = [10, 20, 30];
    let b = [7; 4];
    let mut i = 0;
    while i < 3 {
        print_int(a[i]);
        i = i + 1;
    }
    print_int(b[3]);
    print_int(a[input(0)]);
}
)",
                       {{1}, {9}});
}

TEST(MiriVmTest, CastLadderAgrees) {
    expect_tiers_agree(R"(fn id(x: i64) -> i64 {
    return x;
}
fn main() {
    let a: i32 = -7;
    print_int(a as i64);
    print_int(a as u8 as i64);
    print_int((a as u16) as i64);
    let p = 64 as *mut i64;
    print_int(p as i64);
    let f = id;
    let addr = f as i64;
    let g = addr as fn(i64) -> i64;
    print_int(g(5));
    let v = 9;
    let r = &v;
    let q = r as *const i64;
    unsafe {
        print_int(*q);
    }
}
)",
                       {});
}

TEST(MiriVmTest, ArithmeticEdgesAgree) {
    // Overflow/div-by-zero panics, negation edge, shifts — all driven by
    // inputs so each run trips a different rule.
    const std::string source = R"(fn main() {
    let a: i64 = input(0);
    let b: i64 = input(1);
    print_int(a + b);
    print_int(a - b);
    print_int(a * b);
    print_int(a / b);
    print_int(a % b);
    print_int(-a);
    print_int(a << (b as u8 as i64));
    print_int(a >> 1);
    let small: u8 = input(0) as u8;
    print_int((small + 1) as i64);
}
)";
    expect_tiers_agree(source, {{6, 3},
                                {9223372036854775807, 1},
                                {5, 0},
                                {-9223372036854775807 - 1, -1},
                                {255, 2},
                                {1, 200}});
}

// --- InterpLimits parity (satellite: boundary sweeps on the VM path) -------

/// Mixed workload: statics setup, a while loop, direct calls, and a
/// `become` chain — so a step-limit sweep crosses every kind of program
/// point, including mid-become.
constexpr const char* kMixedWorkload = R"(static mut ACC: i64 = 3;
fn add(n: i64) -> i64 {
    unsafe {
        ACC = ACC + n;
        return ACC;
    }
}
fn spin(n: i64) {
    if n == 0 {
        return;
    }
    become spin(n - 1);
}
fn main() {
    let mut i = 0;
    while i < 3 {
        i = i + 1;
    }
    spin(4);
    print_int(add(2));
}
)";

TEST(MiriVmTest, StepLimitExhaustionAgreesAtEveryBoundary) {
    // Learn the unconstrained step count, then sweep max_steps through
    // every value up to just past it: each sweep point dies (or completes)
    // at a different instruction, and all three tiers must report the same
    // finding, span, and step count at each one.
    const MiriLite reference;
    const MiriReport full = reference.test_source(kMixedWorkload, {});
    ASSERT_TRUE(full.passed()) << full.summary();
    ASSERT_GT(full.total_steps, 0u);
    ASSERT_LT(full.total_steps, 400u);  // keep the sweep cheap
    for (std::uint64_t max_steps = 1; max_steps <= full.total_steps + 2;
         ++max_steps) {
        SCOPED_TRACE(max_steps);
        InterpLimits limits;
        limits.max_steps = max_steps;
        expect_tiers_agree(kMixedWorkload, {}, limits);
    }
}

constexpr const char* kDeepRecursion = R"(fn recurse(n: i64) -> i64 {
    if n == 0 {
        return 0;
    }
    return recurse(n - 1) + 1;
}
fn main() {
    print_int(recurse(10));
}
)";

TEST(MiriVmTest, CallDepthOverflowAgreesAtTheExactBoundary) {
    // Recursion depth 10 needs max_call_depth 12 (main + 11 recurse
    // frames); sweep the limit through the boundary so the overflow fires
    // mid-recursion at every possible frame.
    for (std::uint32_t depth = 1; depth <= 14; ++depth) {
        SCOPED_TRACE(depth);
        InterpLimits limits;
        limits.max_call_depth = depth;
        expect_tiers_agree(kDeepRecursion, {}, limits);
    }
}

TEST(MiriVmTest, BecomeChainsStayFlatUnderTightDepthLimits) {
    // A become chain of 1000 must fit in the same depth budget as a single
    // call on every tier; the sweep also exercises exhaustion mid-become
    // when the budget is too small even for the entry call.
    const std::string source = R"(fn spin(n: i64) {
    if n == 0 {
        print_int(n);
        return;
    }
    become spin(n - 1);
}
fn main() {
    spin(1000);
}
)";
    for (std::uint32_t depth = 1; depth <= 4; ++depth) {
        SCOPED_TRACE(depth);
        InterpLimits limits;
        limits.max_call_depth = depth;
        expect_tiers_agree(source, {}, limits);
    }
    InterpLimits two;
    two.max_call_depth = 2;
    verify::OracleOptions options;
    options.limits = two;
    options.caching = false;
    options.interp = verify::InterpTier::Vm;
    const verify::Oracle oracle(options);
    const MiriReport report = oracle.test_source(source, {});
    EXPECT_TRUE(report.passed()) << report.summary();
}

TEST(MiriVmTest, StepLimitMidBecomeAgrees) {
    // Pin the step limit inside the become chain specifically.
    const std::string source = R"(fn spin(n: i64) {
    if n == 0 {
        return;
    }
    become spin(n - 1);
}
fn main() {
    spin(100000);
}
)";
    for (const std::uint64_t max_steps : {50u, 51u, 52u, 53u, 500u}) {
        SCOPED_TRACE(max_steps);
        InterpLimits limits;
        limits.max_steps = max_steps;
        expect_tiers_agree(source, {}, limits);
    }
}

// --- Front-end and degenerate programs -------------------------------------

TEST(MiriVmTest, MissingMainReportsTheSameCompileError) {
    expect_tiers_agree("fn helper() {\n}\n", {});
}

TEST(MiriVmTest, FrontEndErrorsBypassTheVm) {
    expect_tiers_agree("fn main( {\n}\n", {});
    expect_tiers_agree("fn main() {\n    let x: bool = 3;\n}\n", {});
}

}  // namespace
}  // namespace rustbrain::miri
