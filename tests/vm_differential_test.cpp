// Differential stress for the interpreter tiers: every buggy source and
// reference fix of a 560-case forged corpus must produce a byte-identical
// MiriReport (outputs, step counts, findings with spans) under the tree
// tier, the default tier (tree walk, restarted on vm-opt past
// kVmAfterSteps) and the VM on every run (identity::VmEverywhereOracle).
// The tier is a pure performance knob — if any opcode, fused replay, kill
// order, or limit check drifted from the tree walk by even one step, a
// report here would split. Then end to end: every registry engine sweeps
// the hand-written corpus under the `vm` row, and the forged corpus under
// every row of identity_matrix.hpp, bit-identically to a serial tree walk.
// Last, seeded mutants of the hand-written corpus and the forge's step-limit
// tails run on every tier under a step limit low enough for the VM's loop
// fixed-point skip to engage.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "identity_matrix.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/mirilite.hpp"
#include "mutation.hpp"
#include "support/rng.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/vm.hpp"

namespace rustbrain::verify {
namespace {

const dataset::Corpus& forged_corpus() {
    static const dataset::Corpus corpus = identity::forge(
        21, 560, Oracle(identity::options_for(identity::kDefaultSerial)));
    return corpus;
}

TEST(VmDifferentialTest, ForgedCorpusMiriReportsAgreeAcrossAllTiers) {
    const dataset::Corpus& corpus = forged_corpus();
    ASSERT_EQ(corpus.size(), 560u);

    OracleOptions options;
    options.caching = false;
    options.interp = InterpTier::Tree;
    const Oracle tree(options);
    options.interp = InterpTier::Vm;
    const Oracle fallback(options);
    const identity::VmEverywhereOracle vm(options);
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        for (const std::string& source :
             {ub_case.buggy_source, ub_case.reference_fix}) {
            const miri::MiriReport want =
                tree.test_source(source, ub_case.inputs);
            miri::agreement::expect_reports_equal(
                want, fallback.test_source(source, ub_case.inputs),
                "default\n" + source);
            miri::agreement::expect_reports_equal(
                want, vm.test_source(source, ub_case.inputs), "vm\n" + source);
        }
    }
}

TEST(VmDifferentialTest, EveryEngineSweepsBitIdenticallyUnderEveryTier) {
    {
        SCOPED_TRACE("hand-written");
        identity::expect_rows_match_reference(dataset::Corpus::standard(),
                                              {identity::kVm});
    }
    SCOPED_TRACE("forged-560");
    ASSERT_EQ(forged_corpus().size(), 560u);
    identity::expect_rows_match_reference(forged_corpus(), identity::kRows,
                                          /*runs_past_cap=*/true);
}

TEST(VmDifferentialTest, MutatedProgramsAgreeAcrossTiers) {
    // Every mutant that parses and typechecks must get the same report
    // from the tree walk, the default tier, and the VM on raw and
    // optimized bytecode. The step limit sits past the VM's watch
    // threshold, so mutated loops exercise the fixed-point skip, and past
    // kVmAfterSteps, so long runs exercise the default tier's restart.
    // Mutants with huge numbers are kept: `alloc(4294967296 * 8, 8)` meets
    // the per-run memory cap (miri::kMaxBytesPerRun) on every tier.
    struct Seed {
        std::string source;
        miri::agreement::Inputs inputs;
    };
    const dataset::Corpus corpus = dataset::Corpus::standard();
    std::vector<Seed> seeds;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        seeds.push_back({ub_case.buggy_source, ub_case.inputs});
        seeds.push_back({ub_case.reference_fix, ub_case.inputs});
    }
    for (const miri::agreement::TailCase& tail :
         miri::agreement::kStepLimitTails) {
        seeds.push_back({tail.source, tail.inputs});
    }
    std::vector<std::string> donors;
    for (const Seed& seed : seeds) donors.push_back(seed.source);

    miri::InterpLimits limits;
    limits.max_steps = 4 * vm::Vm::kWatchAfterSteps;
    support::Rng rng(support::derive_seed(1, "vm-mutation"));
    std::size_t accepted = 0;
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < 30000; ++i) {
        const Seed& seed = seeds[i % seeds.size()];
        const std::string source = mutation::mutate(seed.source, donors, rng);
        std::optional<lang::Program> program = lang::try_parse(source);
        if (!program || !lang::type_check(*program)) continue;
        SCOPED_TRACE("iteration " + std::to_string(i));
        const miri::agreement::TierRun run =
            miri::agreement::expect_tiers_agree(source, seed.inputs, limits);
        ++accepted;
        if (run.raw_skipped > 0 && run.opt_skipped > 0) ++skipped;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(skipped, 0u);  // the watch engaged and skipped some loops
}

TEST(VmDifferentialTest, MemoryCapIsOneFindingOnEveryTier) {
    // Past miri::kMaxBytesPerRun a heap or a stack allocation is an Alloc
    // finding, raised before any per-byte state exists, identically on
    // every tier.
    const std::vector<std::string> sources = {
        "fn main() {\n    unsafe {\n        let p = alloc(100000000, 8);\n"
        "        dealloc(p, 100000000, 8);\n    }\n}\n",
        "fn main() {\n    let a: [i64; 700000] = [0; 700000];\n"
        "    print_int(a[0]);\n}\n",
    };
    for (const std::string& source : sources) {
        SCOPED_TRACE(source);
        const miri::agreement::TierRun run =
            miri::agreement::expect_tiers_agree(source, {{}});
        ASSERT_EQ(run.reference.findings.size(), 1u);
        const miri::Finding& finding = run.reference.findings.front();
        EXPECT_EQ(finding.category, miri::UbCategory::Alloc);
        EXPECT_EQ(finding.message.rfind("out of memory: allocating ", 0), 0u)
            << finding.message;
    }
}

TEST(VmDifferentialTest, ArrayValuesThroughCallsAndRepeatsAgreeAcrossTiers) {
    // Arrays passed and returned by value and repeated inside repeats.
    // Under the ASan build this also checks that the VM's handlers release
    // every array value they touch.
    const std::vector<std::string> sources = {
        "fn first(a: [i64; 2]) -> i64 {\n    return a[0];\n}\n\n"
        "fn main() {\n    print_int(first([1, 2]));\n}\n",
        "fn pair() -> [i64; 2] {\n    return [3, 4];\n}\n\n"
        "fn main() {\n    let p = pair();\n    print_int(p[1]);\n}\n",
        "fn main() {\n    let a = [[5; 2]; 3];\n    print_int(a[2][1]);\n"
        "    let b = [[0; 0]; 4];\n}\n",
    };
    for (const std::string& source : sources) {
        SCOPED_TRACE(source);
        const miri::agreement::TierRun run =
            miri::agreement::expect_tiers_agree(source, {{}});
        EXPECT_TRUE(run.reference.findings.empty());
    }
}

TEST(VmDifferentialTest, IndirectCallsWithArgumentsAgreeAcrossTiers) {
    // The callee of `(f)(a(), b())` and `fs[i()](x())` is evaluated before
    // the arguments, left to right, on every tier; each operand prints.
    struct Case {
        const char* source;
        std::vector<std::string> output;
    };
    const std::vector<Case> cases = {
        {miri::agreement::kIndirectCallWithArgs,
         {"1", "2", "3", "30", "0", "1", "2", "3", "30"}},
        {miri::agreement::kFnTableCallWithArgs, {"0", "1", "3", "5"}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.source);
        const miri::agreement::TierRun run =
            miri::agreement::expect_tiers_agree(c.source, {{}});
        EXPECT_TRUE(run.reference.findings.empty());
        ASSERT_EQ(run.reference.outputs.size(), 1u);
        EXPECT_EQ(run.reference.outputs.front(), c.output);
    }
}

TEST(VmDifferentialTest, ArrayRepeatPastTheCapIsOneFindingOnEveryTier) {
    // An array repeat is checked against what is left of the run's memory
    // cap before any element value is built, so `[0; 100000000]` is the
    // cap's Alloc finding at the repeat on every tier rather than 10^8
    // materialized values ending the process with std::bad_alloc.
    struct Case {
        std::string source;
        std::uint64_t bytes;
    };
    const std::vector<Case> cases = {
        {"fn main() {\n    let a = [0; 100000000];\n}\n", 400000000},
        // What is left of the cap bounds the second repeat.
        {"fn main() {\n    let a = [0; 800000];\n    let b = [0; 800000];\n"
         "    print_int(a[0] + b[0]);\n}\n",
         3200000},
        // A zero-sized element counts as one byte, so the number of
        // values is bounded too.
        {"fn main() {\n    let a = [[0; 0]; 100000000];\n}\n", 100000000},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.source);
        const miri::agreement::TierRun run =
            miri::agreement::expect_tiers_agree(c.source, {{}});
        ASSERT_EQ(run.reference.findings.size(), 1u);
        const miri::Finding& finding = run.reference.findings.front();
        EXPECT_EQ(finding.category, miri::UbCategory::Alloc);
        EXPECT_EQ(finding.message,
                  "out of memory: allocating " + std::to_string(c.bytes) +
                      " bytes passes the run's cap of " +
                      std::to_string(miri::kMaxBytesPerRun) + " bytes");
        EXPECT_EQ(finding.span.column, 13u);  // the repeat, not the `let`
    }
}

}  // namespace
}  // namespace rustbrain::verify
