// Bytecode VM: vm::Vm must be observationally identical to the reference
// tree walk over the whole corpus (buggy and fixed), the
// name-resolution/become/thread shapes in tier_agreement.hpp, and the
// InterpLimits edges swept at every boundary (step-limit exhaustion at each
// possible program point, call-depth overflow at the exact frame,
// mid-`become`, mid-recursion). So must the Oracle's default tier, which
// runs the tree walk and restarts runs past kVmAfterSteps on the VM, and
// the VM's loop fixed-point skip: it fires on the forge's step-limit tails,
// never on loops that change state, and stops at the exact limit.
// "Identical" is byte-level: categories, messages, spans, outputs, and
// step counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "lang/parser.hpp"
#include "miri/interp.hpp"
#include "miri/mirilite.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/vm.hpp"

namespace rustbrain::miri {
namespace {

using agreement::expect_reports_equal;
using agreement::expect_tiers_agree;
using agreement::Inputs;
using agreement::TierRun;
using verify::kVmAfterSteps;

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
    let wide: u32 = input(0) as u32;
    print_int((wide * wide) as i64);
}
)";
    expect_tiers_agree(source, {{6, 3},
                                {9223372036854775807, 1},
                                {5, 0},
                                {-9223372036854775807 - 1, -1},
                                {255, 2},
                                {1, 200},
                                {4000000000, 1}});
}

TEST(MiriVmTest, OverflowingOffsetsAgree) {
    // The byte delta count * size and the address p + delta are checked
    // once, in MemoryModel::offset_pointer: the same located Provenance
    // finding on every tier.
    for (const char* source : {R"(fn main() {
    unsafe {
        let p = alloc(8, 8) as *mut i64;
        let q = offset(p, input(0));
        *q = 1;
        dealloc(p as *mut u8, 8, 8);
    }
}
)",
                               R"(fn main() {
    unsafe {
        let p = alloc(16, 8) as *mut i64;
        let q = offset(p, input(0));
        *q = 7;
        print_int(*q);
        dealloc(p as *mut u8, 16, 8);
    }
}
)",
                               R"(fn main() {
    unsafe {
        let p = alloc(8, 8);
        let q = offset(p, input(0));
        dealloc(p, 8, 8);
    }
}
)"}) {
        SCOPED_TRACE(source);
        const agreement::TierRun run = expect_tiers_agree(
            source, {{4611686018427387904}, {2305843009213693953},
                     {9223372036854775807}});
        ASSERT_FALSE(run.reference.findings.empty());
        for (const Finding& finding : run.reference.findings) {
            EXPECT_EQ(finding.category, UbCategory::Provenance);
            EXPECT_EQ(finding.message.rfind("pointer arithmetic out of bounds", 0),
                      0u)
                << finding.message;
        }
    }
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

/// expect_tiers_agree, plus an uncached Oracle on the tree tier.
TierRun expect_every_tier_agrees(const std::string& source) {
    TierRun run = expect_tiers_agree(source, {});
    verify::OracleOptions options;
    options.caching = false;
    options.interp = verify::InterpTier::Tree;
    expect_reports_equal(run.reference,
                         verify::Oracle(options).test_source(source, {}),
                         "tree\n" + source);
    return run;
}

TEST(MiriVmTest, FnPointerLocalShadowsAFunctionItemInCallPosition) {
    const TierRun run = expect_every_tier_agrees(agreement::kLocalFnPtrShadowsItem);
    EXPECT_TRUE(run.reference.passed()) << run.reference.summary();
    EXPECT_EQ(run.reference.outputs,
              std::vector<std::vector<std::string>>{{"3"}});

    const TierRun rejected =
        expect_every_tier_agrees(agreement::kLocalFnPtrArityMismatch);
    ASSERT_EQ(rejected.reference.findings.size(), 1u);
    EXPECT_EQ(rejected.reference.findings[0].category, UbCategory::CompileError);
    EXPECT_NE(rejected.reference.findings[0].message.find(
                  "call argument count mismatch for 'f'"),
              std::string::npos)
        << rejected.reference.findings[0].message;
}

TEST(MiriVmTest, StaticInitializersThatNameAStaticAreCompileErrors) {
    for (const char* source : {agreement::kStaticNamesLaterStatic,
                               agreement::kStaticCallReadsLaterStatic}) {
        const TierRun run = expect_every_tier_agrees(source);
        ASSERT_EQ(run.reference.findings.size(), 1u) << source;
        EXPECT_EQ(run.reference.findings[0].category, UbCategory::CompileError);
        EXPECT_NE(run.reference.findings[0].message.find(
                      "static initializer must be a literal"),
                  std::string::npos)
            << run.reference.findings[0].message;
    }
}

TEST(MiriVmTest, MissingMainReportsTheSameCompileError) {
    expect_tiers_agree("fn helper() {\n}\n", {});
}

TEST(MiriVmTest, FrontEndErrorsBypassTheVm) {
    expect_tiers_agree("fn main( {\n}\n", {});
    expect_tiers_agree("fn main() {\n    let x: bool = 3;\n}\n", {});
}

TEST(MiriVmTest, UnsupportedCastReportsTheTreeWalksMessage) {
    // The type checker admits no cast that compiles to CastKind::Unsupported,
    // so this program skips it: its operand stays untyped (`()`). Both tiers
    // throw the same internal error; the VM builds the message from the
    // operand and target types at throw time.
    std::optional<lang::Program> program =
        lang::try_parse("fn main() {\n    let x = 1 as bool;\n}\n");
    ASSERT_TRUE(program);
    const vm::VmProgram code = vm::compile(*program);
    const auto logic_error_of = [](auto run) -> std::string {
        try {
            (void)run();
        } catch (const std::logic_error& error) {
            return error.what();
        }
        return "no std::logic_error";
    };
    EXPECT_EQ(logic_error_of([&] { return Interpreter(*program, {}).run(); }),
              "eval_cast: unexpected cast () as bool");
    EXPECT_EQ(logic_error_of([&] { return vm::Vm(*program, code, {}).run(); }),
              "eval_cast: unexpected cast () as bool");
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

// --- Loop fixed points (DESIGN.md §13) --------------------------------------

TEST(MiriVmTest, LoopFixedPointsSkipToTheTreeWalksStepLimitPanic) {
    // The forge's step-limit tails: the default tier restarts each on the
    // VM, which must skip the idle loop yet report the tree walk's panic
    // at the same span and step count.
    for (const agreement::TailCase& tail : agreement::kStepLimitTails) {
        SCOPED_TRACE(tail.source);
        const agreement::TierRun run =
            expect_tiers_agree(tail.source, tail.inputs);
        ASSERT_EQ(run.reference.findings.size(), 1u);
        EXPECT_EQ(run.reference.findings[0].message,
                  "step limit exceeded (possible infinite loop)");
        EXPECT_GT(run.skipped, 0u);
    }
}

// Loops past the watch threshold whose iterations each change something
// other than the step counter. Skipping any of them would be wrong. A
// `warm` loop of 500 iterations runs 4006 steps.
constexpr const char* kNearMisses[] = {
    // A u8 counter that overflows after 200 iterations; the first loop
    // carries the run past the threshold.
    R"(fn main() {
    let mut warm: i64 = 0;
    while warm < 500 {
        warm = warm + 1;
    }
    let mut i: i64 = 0;
    let mut c: u8 = 55;
    while i < 8 {
        c = c + 1;
    }
}
)",
    // `&mut x` pushes a fresh borrow tag every iteration.
    R"(fn main() {
    let mut x: i64 = 1;
    let mut p = &mut x as *mut i64;
    let mut i: i64 = 0;
    while i < 8 {
        p = &mut x as *mut i64;
    }
}
)",
    // Output grows every iteration.
    R"(fn main() {
    let mut i: i64 = 0;
    while i < 8 {
        print_int(i);
    }
}
)",
    // Unlocking ticks the main thread's vector clock every iteration.
    R"(fn main() {
    let m = mutex_new();
    let mut i: i64 = 0;
    while i < 8 {
        mutex_lock(m);
        mutex_unlock(m);
    }
}
)",
    // A fixed point, but inside a spawned thread.
    R"(fn worker() {
    let mut i: i64 = 0;
    while i < 8 {
        i = i + 0;
    }
}
fn main() {
    let handle = spawn(worker);
    join(handle);
}
)",
    // `let` allocates a fresh slot every iteration. The first loop ends
    // just under the threshold, so the state is still small enough to
    // snapshot when the second one reaches it.
    R"(fn main() {
    let mut warm: i64 = 0;
    while warm < 500 {
        warm = warm + 1;
    }
    let mut i: i64 = 0;
    while i < 8 {
        let t: i64 = i;
    }
}
)",
};

TEST(MiriVmTest, LoopsThatChangeStateAreNeverSkipped) {
    InterpLimits limits;
    limits.max_steps = 8 * vm::Vm::kWatchAfterSteps;
    for (const char* source : kNearMisses) {
        SCOPED_TRACE(source);
        const agreement::TierRun run = expect_tiers_agree(source, {}, limits);
        EXPECT_FALSE(run.reference.passed());
        EXPECT_EQ(run.skipped, 0u);
    }
}

/// A fixed point whose body mixes loads of locals, nested binaries and a
/// store through a raw pointer.
constexpr const char* kMultiStepFixedPoint = R"(fn main() {
    let mut x: i64 = 0;
    let p = &mut x as *mut i64;
    let mut acc: i64 = 7;
    let mut i: i64 = 0;
    while i < 4 {
        acc = (acc * 3) - (acc * 2);
        unsafe {
            *p = acc + 1;
        }
        i = i * 1;
    }
}
)";

TEST(MiriVmTest, SkippedLoopHitsTheLimitAtEveryOffsetOfItsBody) {
    // Sweep max_steps through a window wider than one iteration, well past
    // the skip point: the limit lands at every step of the body, and the
    // skip (a whole number of iterations) must leave the VM to stop at
    // the tree walk's span and count each time.
    constexpr std::uint64_t kFirst = 10'000;
    constexpr std::uint64_t kWindow = 64;
    std::uint64_t delta = 0;
    std::uint64_t previous = 0;
    for (std::uint64_t max_steps = kFirst; max_steps < kFirst + kWindow;
         ++max_steps) {
        SCOPED_TRACE(max_steps);
        InterpLimits limits;
        limits.max_steps = max_steps;
        const agreement::TierRun run =
            expect_tiers_agree(kMultiStepFixedPoint, {}, limits);
        EXPECT_GT(run.skipped, 0u);
        if (max_steps > kFirst && run.skipped != previous && delta == 0) {
            delta = run.skipped - previous;
        }
        previous = run.skipped;
    }
    // The skip grew by one iteration inside the window, so the window
    // spans a whole iteration.
    EXPECT_GT(delta, 1u);
    EXPECT_LT(delta, kWindow);
}

}  // namespace
}  // namespace rustbrain::miri
