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
#include <gtest/gtest.h>

#include <string>

#include "dataset/corpus.hpp"
#include "identity_matrix.hpp"
#include "miri/mirilite.hpp"
#include "verify/oracle.hpp"

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

}  // namespace
}  // namespace rustbrain::verify
