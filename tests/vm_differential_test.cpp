// Differential stress for the interpreter tiers: every buggy source and
// reference fix of a 560-case forged corpus must produce a byte-identical
// MiriReport (outputs, step counts, findings with spans) under the tree
// tier, the default tier (tree walk, restarted on the VM past
// kVmAfterSteps) and the VM on every run (identity::VmEverywhereOracle).
// The tier is a pure performance knob — if any opcode, kill order, or
// limit check drifted from the tree walk by even one step, a report here
// would split. Then end to end: every registry engine sweeps the
// hand-written corpus under the `vm` row, the forged corpus under every
// row of identity_matrix.hpp, and five more forges render through the
// full repair engine, bit-identically to a serial tree walk. Seeded
// mutants of the hand-written corpus and the forge's step-limit tails run
// on every tier under a step limit low enough for the VM's loop
// fixed-point skip to engage. Last, the tree tier never compiles bytecode.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "identity_matrix.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/mirilite.hpp"
#include "mutation.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"
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
    // from the tree walk, the default tier, and the VM on every run. The
    // step limit sits past the VM's watch
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
        if (run.skipped > 0) ++skipped;
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

TEST(VmDifferentialTest, DeadAllocationsGiveTheirBytesBackOnEveryTier) {
    // 100,000 iterations each declare a 64-byte array: 6.4 MB in all, past
    // miri::kMaxBytesPerRun, but only 64 bytes are live at once, and the
    // cap counts live bytes.
    const miri::agreement::TierRun run = miri::agreement::expect_tiers_agree(
        "fn main() { let mut i = 0; while i < 100000 { "
        "let a: [i64; 8] = [0; 8]; i = i + 1; } }",
        {{}});
    EXPECT_TRUE(run.reference.findings.empty()) << run.reference.summary();
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

TEST(VmDifferentialTest, FiveForgedCorporaRenderByteIdenticalVmVsTree) {
    // Five independently forged corpora, every case swept through the full
    // repair engine, rendered with the serving codec, and byte-compared
    // between the VM on every run and the tree walk.
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);
    for (const unsigned seed : {11u, 22u, 33u, 44u, 55u}) {
        SCOPED_TRACE(seed);
        gen::ForgeOptions forge_options;
        forge_options.seed = seed;
        forge_options.count = 32;
        OracleOptions forge_oracle_options;
        forge_oracle_options.cache = std::make_shared<VerifyCache>();
        const Oracle forge_oracle(std::move(forge_oracle_options));
        forge_options.oracle = &forge_oracle;
        const dataset::Corpus corpus = gen::forge_corpus(forge_options);
        ASSERT_EQ(corpus.size(), 32u);

        auto render_all = [&](const identity::Row& row) {
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle =
                identity::make_oracle(row, identity::options_for(row));
            const core::BatchRunner runner("rustbrain", {}, context,
                                           core::BatchOptions{1});
            const core::BatchReport report = runner.run(corpus);
            std::vector<std::string> rendered;
            rendered.reserve(report.results.size());
            for (const core::CaseResult& result : report.results) {
                rendered.push_back(serve::render_case_result(result));
            }
            return rendered;
        };
        const std::vector<std::string> vm = render_all(identity::kVm);
        const std::vector<std::string> tree = render_all(identity::kReference);
        ASSERT_EQ(vm.size(), tree.size());
        for (std::size_t i = 0; i < vm.size(); ++i) {
            EXPECT_EQ(vm[i], tree[i]) << "case " << corpus.cases()[i].id;
        }
    }
}

TEST(VmDifferentialTest, TreeTierNeverCompilesBytecode) {
    // Bytecode is built on first VM use, so a tree-tier Oracle must leave
    // the process-wide compile counter untouched.
    const char* source = "fn main() { print_int(6 * 7); }";
    const std::uint64_t compiles_before =
        vm::CompileStats::bytecode_compiles.load();
    {
        OracleOptions options;
        options.caching = false;
        options.interp = InterpTier::Tree;
        const Oracle oracle(options);
        for (int i = 0; i < 3; ++i) {
            const miri::MiriReport report = oracle.test_source(source, {});
            EXPECT_EQ(report.outputs.front().front(), "42");
        }
    }
    EXPECT_EQ(vm::CompileStats::bytecode_compiles.load(), compiles_before);

    // Running the VM pays for the bytecode compile, on first use.
    {
        OracleOptions options;
        options.caching = false;
        const identity::VmEverywhereOracle oracle(options);
        (void)oracle.test_source(source, {});
    }
    EXPECT_GT(vm::CompileStats::bytecode_compiles.load(), compiles_before);
}

}  // namespace
}  // namespace rustbrain::verify
