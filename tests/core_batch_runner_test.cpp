// BatchRunner: parallel sweeps must be bit-identical to serial execution —
// same CaseResult sequence, same aggregate SimClock — at any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/batch_runner.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"

namespace rustbrain::core {
namespace {

const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const kb::KnowledgeBase& seeded_kb() {
    static const kb::KnowledgeBase kbase = [] {
        kb::KnowledgeBase k;
        kb::seed_from_corpus(corpus(), k);
        return k;
    }();
    return kbase;
}

RustBrainConfig flagship_config() {
    RustBrainConfig config;
    config.model = "gpt-4";
    config.use_knowledge_base = true;
    return config;
}

/// A registry sweep of flagship_config(): rustbrain on gpt-4 over the
/// seeded knowledge base.
BatchRunner flagship_runner(std::size_t workers,
                            const FeedbackStore* warm_feedback = nullptr) {
    EngineBuildContext context;
    context.knowledge_base = &seeded_kb();
    return BatchRunner("rustbrain", EngineOptions::parse("model=gpt-4"), context,
                       BatchOptions{workers}, warm_feedback);
}

// Byte-for-byte equality of two result sequences, including the exact
// double bits of every virtual-time figure.
void expect_identical(const BatchReport& serial, const BatchReport& parallel) {
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const CaseResult& a = serial.results[i];
        const CaseResult& b = parallel.results[i];
        EXPECT_EQ(a.case_id, b.case_id) << "index " << i;
        EXPECT_EQ(a.pass, b.pass) << a.case_id;
        EXPECT_EQ(a.exec, b.exec) << a.case_id;
        EXPECT_EQ(a.time_ms, b.time_ms) << a.case_id;  // exact, not near
        EXPECT_EQ(a.time_breakdown, b.time_breakdown) << a.case_id;
        EXPECT_EQ(a.solutions_generated, b.solutions_generated) << a.case_id;
        EXPECT_EQ(a.steps_executed, b.steps_executed) << a.case_id;
        EXPECT_EQ(a.rollbacks, b.rollbacks) << a.case_id;
        EXPECT_EQ(a.llm_calls, b.llm_calls) << a.case_id;
        EXPECT_EQ(a.kb_consulted, b.kb_consulted) << a.case_id;
        EXPECT_EQ(a.kb_skipped_by_feedback, b.kb_skipped_by_feedback) << a.case_id;
        EXPECT_EQ(a.thinking_switches, b.thinking_switches) << a.case_id;
        EXPECT_EQ(a.escalations, b.escalations) << a.case_id;
        EXPECT_EQ(a.early_stops, b.early_stops) << a.case_id;
        EXPECT_EQ(a.attempts_skipped, b.attempts_skipped) << a.case_id;
        EXPECT_EQ(a.error_trajectory, b.error_trajectory) << a.case_id;
        EXPECT_EQ(a.winning_rule, b.winning_rule) << a.case_id;
        EXPECT_EQ(a.final_source, b.final_source) << a.case_id;
    }
    // Aggregate clocks merge per-case charges in case-index order, so they
    // must match exactly as well.
    EXPECT_EQ(serial.clock.now_ms(), parallel.clock.now_ms());
    EXPECT_EQ(serial.clock.breakdown(), parallel.clock.breakdown());
}

TEST(BatchRunnerTest, EightWorkersBitIdenticalToSerialOverStandardCorpus) {
    const BatchRunner serial_runner = flagship_runner(1);
    const BatchRunner parallel_runner = flagship_runner(8);
    const BatchReport serial = serial_runner.run(corpus());
    const BatchReport parallel = parallel_runner.run(corpus());
    EXPECT_EQ(serial.workers_used, 1u);
    EXPECT_EQ(parallel.workers_used, 8u);
    expect_identical(serial, parallel);
}

TEST(BatchRunnerTest, OddWorkerCountAlsoIdentical) {
    const std::vector<const dataset::UbCase*> cases =
        corpus().by_category(miri::UbCategory::DanglingPointer);
    const BatchRunner serial_runner = flagship_runner(1);
    const BatchRunner parallel_runner = flagship_runner(3);
    expect_identical(serial_runner.run(cases), parallel_runner.run(cases));
}

TEST(BatchRunnerTest, WarmFeedbackSnapshotIsSchedulingInvariant) {
    // Learn a snapshot on the danglingpointer siblings, then sweep the
    // whole corpus from it: every case starts from a private copy, so
    // parallel and serial runs still agree bit-for-bit.
    FeedbackStore warm;
    {
        RustBrain learner(flagship_config(), &seeded_kb(), &warm);
        for (const dataset::UbCase* ub_case :
             corpus().by_category(miri::UbCategory::DanglingPointer)) {
            (void)learner.repair(*ub_case);
        }
    }
    ASSERT_GT(warm.records(), 0u);
    const BatchRunner serial_runner = flagship_runner(1, &warm);
    const BatchRunner parallel_runner = flagship_runner(8, &warm);
    const BatchReport serial = serial_runner.run(corpus());
    const BatchReport parallel = parallel_runner.run(corpus());
    expect_identical(serial, parallel);
    // The snapshot actually changes behaviour: confident shapes skip the KB.
    int kb_skips = 0;
    for (const CaseResult& result : serial.results) {
        kb_skips += result.kb_skipped_by_feedback;
    }
    EXPECT_GT(kb_skips, 0);
}

TEST(BatchRunnerTest, GenericFactoryMakesOneEnginePerWorker) {
    auto factory_calls = std::make_shared<std::atomic<int>>(0);
    const EngineFactory factory = [factory_calls](std::size_t) -> RepairFn {
        factory_calls->fetch_add(1);
        return [](const dataset::UbCase& ub_case) {
            CaseResult result;
            result.case_id = ub_case.id;
            result.pass = true;
            result.time_ms = 1.0;
            return result;
        };
    };
    const BatchRunner runner(factory, BatchOptions{4});
    const BatchReport report = runner.run(corpus());
    EXPECT_EQ(*factory_calls, 4);
    EXPECT_EQ(report.workers_used, 4u);
    EXPECT_EQ(report.pass_total(), static_cast<int>(corpus().size()));
    // Engines without a breakdown still contribute their totals.
    EXPECT_DOUBLE_EQ(report.clock.total_for("repair"),
                     static_cast<double>(corpus().size()));
}

TEST(BatchRunnerTest, WorkersClampedToCaseCount) {
    const std::vector<const dataset::UbCase*> two = {&corpus().cases()[0],
                                                     &corpus().cases()[1]};
    const BatchRunner runner = flagship_runner(16);
    const BatchReport report = runner.run(two);
    EXPECT_EQ(report.workers_used, 2u);
    EXPECT_EQ(report.results.size(), 2u);
}

TEST(BatchRunnerTest, EmptyCaseListYieldsEmptyReport) {
    const BatchRunner runner = flagship_runner(4);
    const BatchReport report = runner.run(std::vector<const dataset::UbCase*>{});
    EXPECT_TRUE(report.results.empty());
    EXPECT_EQ(report.pass_total(), 0);
    EXPECT_EQ(report.clock.now_ms(), 0.0);
}

TEST(BatchRunnerTest, RunSequentialSeesSharedEngineState) {
    // Ordered execution with a shared feedback store: the later datarace
    // siblings must benefit from the earlier ones — the effect parallel
    // sweeps deliberately exclude.
    FeedbackStore feedback;
    RustBrain engine(flagship_config(), &seeded_kb(), &feedback);
    const std::vector<const dataset::UbCase*> siblings =
        corpus().by_category(miri::UbCategory::DataRace);
    ASSERT_FALSE(siblings.empty());
    const BatchReport report = BatchRunner::run_sequential(
        siblings,
        [&](const dataset::UbCase& ub_case) { return engine.repair(ub_case); });
    bool any_skip = false;
    for (const CaseResult& result : report.results) {
        any_skip |= result.kb_skipped_by_feedback;
    }
    EXPECT_TRUE(any_skip);
    EXPECT_GT(feedback.records(), 0u);
}

}  // namespace
}  // namespace rustbrain::core
