#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "agents/abstract_reasoning_agent.hpp"
#include "agents/fix_agents.hpp"
#include "agents/rollback_agent.hpp"
#include "analysis/prune.hpp"
#include "analysis/vectorize.hpp"
#include "core/repair_engine.hpp"
#include "core/trace.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "kb_reference.hpp"
#include "lang/parser.hpp"
#include "llm/simllm.hpp"
#include "miri/mirilite.hpp"

namespace rustbrain::agents {
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

TEST(RollbackAgentTest, TracksBestState) {
    RollbackAgent agent;
    agent.observe("v0", 3);
    agent.observe("v1", 1);
    agent.observe("v2", 4);
    EXPECT_EQ(agent.best_code(), "v1");
    EXPECT_EQ(agent.best_errors(), 1u);
    EXPECT_TRUE(agent.should_rollback(4));
    EXPECT_FALSE(agent.should_rollback(1));
    EXPECT_FALSE(agent.should_rollback(0));
}

TEST(RollbackAgentTest, RollbackChargesClockAndCounts) {
    RollbackAgent agent;
    agent.observe("good", 1);
    agent.observe("bad", 5);
    support::SimClock clock;
    EXPECT_EQ(agent.rollback(clock), "good");
    EXPECT_GT(clock.now_ms(), 0.0);
    EXPECT_EQ(agent.rollbacks_performed(), 1);
}

TEST(RollbackAgentTest, TrajectoryRecordsEveryObservation) {
    RollbackAgent agent;
    agent.observe("a", 1);
    agent.observe("b", 3);
    agent.observe("c", 0);
    EXPECT_EQ(agent.trajectory(), (std::vector<std::size_t>{1, 3, 0}));
}

TEST(RollbackAgentTest, TiesDoNotAdvanceBest) {
    // A same-error-count (sideways) state must not replace the best state —
    // the guarantee the repeated-retry loop relies on.
    RollbackAgent agent;
    agent.observe("original", 1);
    agent.observe("corrupted-sideways", 1);
    EXPECT_EQ(agent.best_code(), "original");
}

TEST(FixAgentTest, AgentRouting) {
    EXPECT_EQ(agent_for_rule("move-dealloc-to-end").family(),
              llm::RuleFamily::Modification);
    EXPECT_EQ(agent_for_rule("guard-divisor").family(), llm::RuleFamily::Assertion);
    EXPECT_EQ(agent_for_rule("valid-bool-compare").family(),
              llm::RuleFamily::SafeReplacement);
    // Unknown rules route to the modification agent.
    EXPECT_EQ(agent_for_rule("nonexistent").family(),
              llm::RuleFamily::Modification);
}

TEST(FixAgentTest, RunProducesVerifiableCode) {
    const auto* ub_case = corpus().find("danglingpointer/use_after_free_0");
    llm::SimLLM sim(llm::gpt4_profile(), 5);
    support::SimClock clock;
    core::CaseResult tally;
    core::TraceStats stats(tally);
    AgentContext context{sim, clock};
    context.trace = &stats;
    context.temperature = 0.1;
    context.inputs = &ub_case->inputs;

    miri::MiriLite miri;
    const auto report = miri.test_source(ub_case->buggy_source, ub_case->inputs);
    const FixOutcome outcome =
        agent_for_rule("move-dealloc-to-end")
            .run(ub_case->buggy_source, report.findings.front(),
                 "move-dealloc-to-end", context);
    EXPECT_NE(outcome.code, ub_case->buggy_source);
    EXPECT_GT(clock.total_for("llm"), 0.0);
    // The call is reported through the trace (the single stats source) and
    // stamped with the session sequence.
    EXPECT_EQ(tally.llm_calls, 1u);
    EXPECT_EQ(context.sequence, 1u);
    EXPECT_EQ(sim.calls_served(), 1u);
}

TEST(ReasoningAgentTest, RetrievesCategoryScopedExemplars) {
    const auto* ub_case = corpus().find("datarace/counter_0");
    llm::SimLLM sim(llm::gpt4_profile(), 7);
    support::SimClock clock;
    AgentContext context{sim, clock};
    context.temperature = 0.2;
    context.knowledge_base = &seeded_kb();
    context.case_hint = ub_case->id;

    AbstractReasoningAgent agent;
    const ReasoningResult result = agent.consult(
        ub_case->buggy_source, miri::UbCategory::DataRace, context);
    ASSERT_GT(result.hits, 0u);
    ASSERT_FALSE(result.exemplar_rules.empty());
    // The sibling variants' verified fix must be among the exemplars.
    EXPECT_NE(std::find(result.exemplar_rules.begin(), result.exemplar_rules.end(),
                        "atomicize-shared-access"),
              result.exemplar_rules.end());
    EXPECT_GT(clock.total_for("kb"), 0.0);
}

TEST(ReasoningAgentTest, NoKbMeansNoExemplars) {
    llm::SimLLM sim(llm::gpt4_profile(), 9);
    support::SimClock clock;
    AgentContext context{sim, clock};
    AbstractReasoningAgent agent;
    const ReasoningResult result =
        agent.consult("fn main() { }", miri::UbCategory::Alloc, context);
    EXPECT_TRUE(result.exemplar_rules.empty());
    EXPECT_EQ(result.hits, 0u);
}

/// Passes SimLLM's replies through, except that every fifth is replaced by
/// one that does not parse, and remembers the last reply it returned.
class RecordingBackend final : public llm::LlmBackend {
  public:
    explicit RecordingBackend(llm::LlmBackend& inner) : inner_(inner) {}

    llm::ChatResponse complete(const llm::ChatRequest& request) override {
        llm::ChatResponse response = inner_.complete(request);
        if (++calls_ % 5 == 0) {
            response.content = "note: ast extracted\ncode:\nfn main( {";
        }
        last_reply = response.content;
        return response;
    }
    [[nodiscard]] std::uint64_t calls_served() const override { return calls_; }
    [[nodiscard]] std::string description() const override {
        return "recording(" + inner_.description() + ")";
    }

    std::string last_reply;

  private:
    llm::LlmBackend& inner_;
    std::uint64_t calls_ = 0;
};

/// The consult as it ran before the probe was memoized: parse the reply
/// (else the code), prune twice, vectorize, scan the KB linearly.
ReasoningResult reference_consult(const std::string& reply,
                                  const std::string& code,
                                  miri::UbCategory category,
                                  const kb::KnowledgeBase& kbase,
                                  const std::string& case_hint) {
    ReasoningResult result;
    auto program = lang::try_parse(llm::parse_code_block(reply));
    if (!program) {
        program = lang::try_parse(code);
        if (!program) return result;
    }
    analysis::PruneStats stats;
    analysis::prune_ast(*program, &stats);
    result.retained_fraction = stats.retained_fraction();
    analysis::PruneStats again;
    const lang::Program pruned = analysis::prune_ast(*program, &again);
    const bool whole = again.pruned_nodes < 10 || again.retained_fraction() < 0.15;
    const analysis::AstVector probe = whole
                                          ? analysis::vectorize(program->clone())
                                          : analysis::vectorize(pruned);
    const auto hits =
        kb::reference::linear_query(kbase, probe, 3, 0.60, case_hint, category);
    result.hits = hits.size();
    for (const kb::KbHit& hit : hits) {
        result.best_similarity = std::max(result.best_similarity, hit.similarity);
        for (const std::string& rule : hit.entry->rule_ids) {
            if (std::find(result.exemplar_rules.begin(), result.exemplar_rules.end(),
                          rule) == result.exemplar_rules.end()) {
                result.exemplar_rules.push_back(rule);
            }
        }
    }
    return result;
}

TEST(ReasoningAgentTest, ConsultMatchesTheUnmemoizedPipeline) {
    const dataset::Corpus& forged = kb::reference::forged_seed42();
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle own_oracle(options);
    AbstractReasoningAgent agent;
    std::size_t identical = 0;
    std::size_t rewritten = 0;
    std::size_t unparsable = 0;
    std::size_t with_hits = 0;
    for (const verify::Oracle* oracle : {&own_oracle,
                                         static_cast<const verify::Oracle*>(nullptr)}) {
        for (const double temperature : {0.0, 0.7, 1.5}) {
            llm::SimLLM sim(llm::gpt4_profile(), 42);
            RecordingBackend backend(sim);
            support::SimClock clock;
            AgentContext context{backend, clock};
            context.temperature = temperature;
            context.knowledge_base = &seeded_kb();
            context.oracle = oracle;
            for (const dataset::UbCase& ub_case : forged.cases()) {
                context.case_hint = ub_case.id;
                const ReasoningResult got = agent.consult(
                    ub_case.buggy_source, ub_case.category, context);
                const ReasoningResult want = reference_consult(
                    backend.last_reply, ub_case.buggy_source, ub_case.category,
                    seeded_kb(), ub_case.id);
                const std::string label =
                    ub_case.id + " t=" + std::to_string(temperature) +
                    (oracle == nullptr ? " default oracle" : " own oracle");
                EXPECT_EQ(want.exemplar_rules, got.exemplar_rules) << label;
                EXPECT_EQ(want.hits, got.hits) << label;
                EXPECT_EQ(want.best_similarity, got.best_similarity) << label;
                EXPECT_EQ(want.retained_fraction, got.retained_fraction) << label;
                if (::testing::Test::HasFailure()) return;

                const std::string reply = llm::parse_code_block(backend.last_reply);
                if (reply == ub_case.buggy_source) {
                    ++identical;
                } else if (lang::try_parse(reply)) {
                    ++rewritten;
                } else {
                    ++unparsable;
                }
                with_hits += got.hits > 0 ? 1 : 0;
            }
        }
    }
    // Every branch of the consult ran: replies that reproduce the code,
    // hallucinated rewrites, and replies that fall back to the code.
    EXPECT_GT(identical, 0u);
    EXPECT_GT(rewritten, 0u);
    EXPECT_GT(unparsable, 0u);
    EXPECT_GT(with_hits, 0u);
}

TEST(AgentContextTest, VerifyChargesMiriTime) {
    llm::SimLLM sim(llm::gpt4_profile(), 11);
    support::SimClock clock;
    AgentContext context{sim, clock};
    const miri::MiriReport report = context.verify("fn main() { print_int(1); }");
    EXPECT_TRUE(report.passed());
    EXPECT_GT(clock.total_for("miri"), 0.0);
}

}  // namespace
}  // namespace rustbrain::agents
