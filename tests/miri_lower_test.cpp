// Slot lowering: programs run from the lowering must be observationally
// identical to the tree-walk reference — same findings (category, message,
// span), same outputs, same step counts — over the whole corpus and over
// targeted name-resolution shapes (shadowing, statics, fn pointers,
// `become`), including the InterpLimits edges (step-limit exhaustion and
// call-depth overflow). The lowering's consumer that executes is the
// bytecode VM (vm::compile), so each shape also runs there, next to the
// default Oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "miri/mirilite.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::miri {
namespace {

using agreement::expect_reports_equal;
using agreement::Inputs;

/// Run `source` through the tree-walk MiriLite, an uncached default
/// Oracle, and vm::Vm on vm::compile(program, lower_program(program)), and
/// require byte-equal reports.
void expect_paths_agree(const std::string& source, const Inputs& inputs,
                        InterpLimits limits = {}) {
    const MiriLite tree_walk(limits);
    const MiriReport reference = tree_walk.test_source(source, inputs);

    verify::OracleOptions options;
    options.limits = limits;
    options.caching = false;
    const verify::Oracle oracle(options);
    expect_reports_equal(reference, oracle.test_source(source, inputs),
                         "default\n" + source);

    auto program = lang::try_parse(source);
    if (!program || !lang::type_check(*program)) return;
    const LoweredProgram lowered = lower_program(*program);
    const vm::VmProgram code = vm::compile(*program, lowered);
    expect_reports_equal(
        reference, agreement::vm_report(*program, code, inputs, limits),
        "vm\n" + source);
}

TEST(MiriLowerTest, WholeCorpusAgreesBuggyAndFixed) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        expect_paths_agree(ub_case.buggy_source, ub_case.inputs);
        expect_paths_agree(ub_case.reference_fix, ub_case.inputs);
    }
}

TEST(MiriLowerTest, ShadowingResolvesToTheInnermostBinding) {
    expect_paths_agree(agreement::kShadowing, {});
}

TEST(MiriLowerTest, LoopRedeclarationGetsAFreshAllocationEachIteration) {
    expect_paths_agree(agreement::kLoopRedeclaration, {});
}

TEST(MiriLowerTest, StaticsAndLocalsShareNamespaceWithLocalsWinning) {
    expect_paths_agree(agreement::kStaticsAndLocals, {});
}

TEST(MiriLowerTest, MutableStaticAccess) {
    expect_paths_agree(agreement::kMutableStatic, {});
}

TEST(MiriLowerTest, FunctionPointersThroughLocalsAndIndirectCalls) {
    expect_paths_agree(agreement::kFunctionPointers, {});
}

TEST(MiriLowerTest, BecomeTailCallsReleaseSlotsBeforeTheCallee) {
    expect_paths_agree(agreement::kBecomeTailCalls, {});
}

TEST(MiriLowerTest, SpawnedThreadsUseSlotFrames) {
    expect_paths_agree(agreement::kSpawnedThreads, {});
}

TEST(MiriLowerTest, InputsFlowIdentically) {
    expect_paths_agree(agreement::kInputs, {{3, 4}, {10, 20}});
}

// --- InterpLimits coverage (both paths) ------------------------------------

constexpr const char* kInfiniteLoop = R"(fn main() {
    let mut i = 0;
    while i < 1000000000 {
        i = i + 1;
    }
}
)";

TEST(MiriLowerTest, StepLimitExhaustionIsStableOnBothPaths) {
    InterpLimits limits;
    limits.max_steps = 500;
    const MiriLite tree_walk(limits);
    const MiriReport a = tree_walk.test_source(kInfiniteLoop, {});
    ASSERT_EQ(a.findings.size(), 1u);
    EXPECT_EQ(a.findings.front().category, UbCategory::Panic);
    EXPECT_EQ(a.findings.front().message,
              "step limit exceeded (possible infinite loop)");
    expect_paths_agree(kInfiniteLoop, {}, limits);
}

constexpr const char* kDeepRecursion = R"(fn recurse(n: i64) -> i64 {
    if n == 0 {
        return 0;
    }
    return recurse(n - 1);
}
fn main() {
    print_int(recurse(100000));
}
)";

TEST(MiriLowerTest, CallDepthOverflowIsStableOnBothPaths) {
    InterpLimits limits;
    limits.max_call_depth = 40;
    const MiriLite tree_walk(limits);
    const MiriReport a = tree_walk.test_source(kDeepRecursion, {});
    ASSERT_EQ(a.findings.size(), 1u);
    EXPECT_EQ(a.findings.front().category, UbCategory::Panic);
    EXPECT_EQ(a.findings.front().message,
              "stack overflow: call depth exceeded 40");
    expect_paths_agree(kDeepRecursion, {}, limits);
}

TEST(MiriLowerTest, DefaultLimitsAllowDeepBecomeChains) {
    // `become` must stay O(1) in call depth on the default tier too.
    verify::OracleOptions options;
    options.caching = false;
    const verify::Oracle oracle(options);
    const MiriReport report = oracle.test_source(R"(fn spin(n: i64) {
    if n == 0 {
        return;
    }
    become spin(n - 1);
}
fn main() {
    spin(150000);
}
)",
                                                 {});
    EXPECT_TRUE(report.passed()) << report.summary();
}

TEST(MiriLowerTest, LoweringCountsSlotsPerFunction) {
    auto program = lang::try_parse(R"(fn helper(a: i64, b: i64) -> i64 {
    let c = a + b;
    return c;
}
fn main() {
    let x = helper(1, 2);
    let y = x + 1;
    print_int(y);
}
)");
    ASSERT_TRUE(program.has_value());
    ASSERT_TRUE(lang::type_check(*program));
    const LoweredProgram lowered = lower_program(*program);
    ASSERT_EQ(lowered.fn_slot_counts.size(), 2u);
    EXPECT_EQ(lowered.fn_slot_counts[0], 3u);  // a, b, c
    EXPECT_EQ(lowered.fn_slot_counts[1], 2u);  // x, y
}

}  // namespace
}  // namespace rustbrain::miri
