// Bytecode VM: vm::Vm must be observationally identical to the reference
// tree walk over the whole corpus (buggy and fixed), the
// name-resolution/become/thread shapes in tier_agreement.hpp, and the
// InterpLimits edges swept at every boundary (step-limit exhaustion at each
// possible program point, call-depth overflow at the exact frame,
// mid-`become`, mid-recursion). So must the Oracle's default tier, which
// runs the tree walk and restarts runs past kVmAfterSteps on the VM.
// "Identical" is byte-level: categories, messages, spans, outputs, and
// step counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "miri/interp.hpp"
#include "miri/mirilite.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::miri {
namespace {

using agreement::expect_reports_equal;
using agreement::Inputs;
using agreement::vm_report;
using verify::kVmAfterSteps;

/// Run `source` through the tree-walk MiriLite, an uncached default
/// Oracle, and vm::Vm driven directly on the raw and the optimized
/// bytecode; require byte-equal reports.
void expect_tiers_agree(const std::string& source, const Inputs& inputs,
                        InterpLimits limits = {}) {
    const MiriLite tree_walk(limits);
    const MiriReport reference = tree_walk.test_source(source, inputs);

    verify::OracleOptions options;
    options.limits = limits;
    options.caching = false;
    const verify::Oracle oracle(options);
    expect_reports_equal(reference, oracle.test_source(source, inputs),
                         "default\n" + source);

    const auto compiled = oracle.compile(source);
    if (!compiled->ok()) return;  // front-end errors never run a VM
    expect_reports_equal(reference,
                         vm_report(compiled->program,
                                   vm::compile(compiled->program,
                                               compiled->lowering),
                                   inputs, limits),
                         "vm-raw\n" + source);
    expect_reports_equal(reference,
                         vm_report(compiled->program,
                                   compiled->optimized_bytecode(), inputs,
                                   limits),
                         "vm-opt\n" + source);
}

TEST(MiriVmTest, TierNamesRoundTrip) {
    EXPECT_STREQ(verify::to_string(verify::InterpTier::Tree), "tree");
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

// --- Name-resolution / control-flow shapes (tier_agreement.hpp) ----------

TEST(MiriVmTest, ShadowingResolvesToTheInnermostBinding) {
    expect_tiers_agree(agreement::kShadowing, {});
}

TEST(MiriVmTest, LoopRedeclarationGetsAFreshAllocationEachIteration) {
    expect_tiers_agree(agreement::kLoopRedeclaration, {});
}

TEST(MiriVmTest, StaticsAndLocalsShareNamespaceWithLocalsWinning) {
    expect_tiers_agree(agreement::kStaticsAndLocals, {});
}

TEST(MiriVmTest, MutableStaticAccess) {
    expect_tiers_agree(agreement::kMutableStatic, {});
}

TEST(MiriVmTest, FunctionPointersThroughLocalsAndIndirectCalls) {
    expect_tiers_agree(agreement::kFunctionPointers, {});
}

TEST(MiriVmTest, BecomeTailCallsReleaseSlotsBeforeTheCallee) {
    expect_tiers_agree(agreement::kBecomeTailCalls, {});
}

TEST(MiriVmTest, SpawnedThreadsUseSlotFrames) {
    expect_tiers_agree(agreement::kSpawnedThreads, {});
}

TEST(MiriVmTest, InputsFlowIdentically) {
    expect_tiers_agree(agreement::kInputs, {{3, 4}, {10, 20}});
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
    // at a different instruction, and every path must report the same
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

// --- The default tier's restart past kVmAfterSteps -------------------------

/// Two input-driven loops of coprime step costs: any large total is reachable.
constexpr const char* kTwoLoops = R"(fn main() {
    let n = input(0);
    let m = input(1);
    let mut i: i64 = 0;
    while i < n {
        i = i + 1;
    }
    let mut j: i64 = 0;
    while j < m {
        j = j - -1;
    }
    print_int(i + j);
}
)";

std::uint64_t reference_steps(const std::vector<std::int64_t>& inputs) {
    return MiriLite().test_source(kTwoLoops, {inputs}).total_steps;
}

/// Inputs for which kTwoLoops runs exactly `steps` steps.
std::vector<std::int64_t> inputs_for_steps(std::uint64_t steps) {
    const std::uint64_t base = reference_steps({0, 0});
    const std::uint64_t per_i = reference_steps({1, 0}) - base;
    const std::uint64_t per_j = reference_steps({0, 1}) - base;
    for (std::uint64_t m = 0; m < per_i; ++m) {
        const std::uint64_t rest = steps - base - m * per_j;
        if (rest % per_i == 0) {
            return {static_cast<std::int64_t>(rest / per_i),
                    static_cast<std::int64_t>(m)};
        }
    }
    ADD_FAILURE() << "no inputs reach " << steps << " steps";
    return {};
}

/// A default Oracle on a private store must match MiriLite byte for byte,
/// and build bytecode exactly `compiles` times doing so.
void expect_default_exact(const Inputs& inputs, InterpLimits limits,
                          std::uint64_t compiles) {
    verify::OracleOptions options;
    options.limits = limits;
    options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(options);
    const std::uint64_t before = vm::CompileStats::bytecode_compiles.load();
    const MiriReport got = oracle.test_source(kTwoLoops, inputs);
    EXPECT_EQ(vm::CompileStats::bytecode_compiles.load() - before, compiles);
    expect_reports_equal(MiriLite(limits).test_source(kTwoLoops, inputs), got,
                         "default");
}

TEST(MiriVmTest, DefaultTierRestartsOnlyRunsPastTheCapAndMatchesTheTreeWalk) {
    // Runs that end just under, exactly at, and just past the cap; only
    // the last two of these restart on the VM.
    for (const std::uint64_t steps :
         {kVmAfterSteps - 1, kVmAfterSteps, kVmAfterSteps + 1,
          kVmAfterSteps + 2, 3 * kVmAfterSteps}) {
        SCOPED_TRACE(steps);
        const std::vector<std::int64_t> inputs = inputs_for_steps(steps);
        ASSERT_EQ(reference_steps(inputs), steps);
        expect_default_exact({inputs}, {}, steps > kVmAfterSteps ? 1 : 0);
    }

    // A real limit at or under the cap is the whole run, never a restart;
    // past the cap it fires after the restart, at every offset of the loop
    // body, where the VM must stop at the span and count the tree walk does.
    for (std::uint64_t max_steps = kVmAfterSteps - 1;
         max_steps <= kVmAfterSteps + 8; ++max_steps) {
        SCOPED_TRACE(max_steps);
        InterpLimits limits;
        limits.max_steps = max_steps;
        expect_default_exact({{1'000'000, 0}}, limits,
                             max_steps > kVmAfterSteps ? 1 : 0);
    }

    // Several input sets, only one of them past the cap: one compile.
    expect_default_exact({{3, 4}, inputs_for_steps(2 * kVmAfterSteps), {0, 9}},
                         {}, 1);
}

}  // namespace
}  // namespace rustbrain::miri
