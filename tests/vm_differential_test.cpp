// Differential stress for the interpreter tiers: every buggy source and
// reference fix of a 560-case forged corpus must produce a byte-identical
// MiriReport (outputs, step counts, findings with spans) under the tree,
// slot and vm tiers (vm runs vm::optimize output). The tier is a pure
// performance knob — if any opcode, fused replay, kill order, or limit
// check drifted from the tree walk by even one step, a report here would
// split. Then end to end: every registry engine sweeps the hand-written
// corpus under the vm tier, and the forged corpus under every row of
// identity_matrix.hpp, bit-identically to a serial tree walk.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

    std::vector<std::unique_ptr<Oracle>> oracles;
    for (const InterpTier tier :
         {InterpTier::Tree, InterpTier::Slot, InterpTier::Vm}) {
        OracleOptions options;
        options.caching = false;
        options.interp = tier;
        oracles.push_back(std::make_unique<Oracle>(std::move(options)));
    }
    auto report_blob = [](const miri::MiriReport& report) {
        std::string blob = std::to_string(report.total_steps) + '\n';
        for (const auto& outputs : report.outputs) {
            for (const std::string& line : outputs) blob += line + '\n';
            blob += '|';
        }
        for (const miri::Finding& finding : report.findings) {
            blob += finding.to_string() + '@' +
                    std::to_string(finding.span.begin) + ':' +
                    std::to_string(finding.span.end) + '\n';
        }
        return blob;
    };
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        for (const std::string& source :
             {ub_case.buggy_source, ub_case.reference_fix}) {
            const std::string reference =
                report_blob(oracles[0]->test_source(source, ub_case.inputs));
            EXPECT_EQ(reference,
                      report_blob(oracles[1]->test_source(source, ub_case.inputs)))
                << source;
            EXPECT_EQ(reference,
                      report_blob(oracles[2]->test_source(source, ub_case.inputs)))
                << source;
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
    identity::expect_rows_match_reference(forged_corpus(), identity::kRows);
}

}  // namespace
}  // namespace rustbrain::verify
