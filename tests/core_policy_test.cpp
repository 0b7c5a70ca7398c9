// ThinkingPolicy / PolicyRegistry — the pluggable fast↔slow switch.
//
// The load-bearing contract is bit-identity of the default: `policy=paper`
// sweeps of all four registry engines over the full standard corpus
// (serial and 4-worker) are byte-equal to goldens fingerprinted on the
// pre-refactor orchestrator, and omitting the option entirely is the same
// engine. On top of that: the registry's unknown-id/unknown-knob error
// paths, the spec parser, and the behavioral deltas of the non-default
// strategies (fast-only never escalates, slow-all deliberates past
// success without changing the verdict, budget stops early, and
// feedback-guided sheds overhead on confident shapes).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "support/hashing.hpp"

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

EngineBuildContext kb_context() {
    EngineBuildContext context;
    context.knowledge_base = &seeded_kb();
    return context;
}

// --- golden fingerprints ----------------------------------------------------
// Canonical FNV-1a digest of every pre-policy CaseResult field, in case
// order. The constants below were captured from the orchestrator as it
// stood BEFORE the ThinkingPolicy refactor (commit "Add Verification
// Oracle..."), so they pin `policy=paper` to the pre-refactor behavior
// byte for byte. The new switch-count fields are deliberately excluded:
// they did not exist in the golden universe.

void feed_u64(std::uint64_t& h, std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    h = support::fnv1a64(buf, h);
}

void feed_double(std::uint64_t& h, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    feed_u64(h, bits);
}

std::uint64_t fingerprint(const BatchReport& report) {
    std::uint64_t h = support::kFnvOffsetBasis;
    for (const CaseResult& r : report.results) {
        h = support::fnv1a64(r.case_id, h);
        feed_u64(h, r.pass);
        feed_u64(h, r.exec);
        feed_double(h, r.time_ms);
        for (const auto& [category, ms] : r.time_breakdown) {
            h = support::fnv1a64(category, h);
            feed_double(h, ms);
        }
        feed_u64(h, static_cast<std::uint64_t>(r.solutions_generated));
        feed_u64(h, static_cast<std::uint64_t>(r.steps_executed));
        feed_u64(h, static_cast<std::uint64_t>(r.rollbacks));
        feed_u64(h, r.llm_calls);
        feed_u64(h, r.kb_consulted);
        feed_u64(h, r.kb_skipped_by_feedback);
        for (std::size_t n : r.error_trajectory) feed_u64(h, n);
        h = support::fnv1a64(r.winning_rule, h);
        h = support::fnv1a64(r.final_source, h);
    }
    return h;
}

struct Golden {
    const char* engine;
    std::uint64_t digest;
};

// Captured pre-refactor (see comment above). Serial and 4-worker sweeps
// agreed then, and must agree now.
constexpr Golden kPreRefactorGoldens[] = {
    {"expert", 0x97a944e45479ee0eULL},
    {"fixed-pipeline", 0x31bfc7125aae841eULL},
    {"rustbrain", 0x7e1b39d6f46566bcULL},
    {"standalone", 0x2e53be705735e142ULL},
};

TEST(PaperPolicyGoldenTest, AllEnginesMatchPreRefactorGoldensSerialAndParallel) {
    for (const Golden& golden : kPreRefactorGoldens) {
        SCOPED_TRACE(golden.engine);
        const EngineOptions options = EngineOptions::parse("policy=paper");
        const BatchRunner serial(golden.engine, options, kb_context(),
                                 BatchOptions{1});
        const BatchRunner parallel(golden.engine, options, kb_context(),
                                   BatchOptions{4});
        EXPECT_EQ(fingerprint(serial.run(corpus())), golden.digest);
        EXPECT_EQ(fingerprint(parallel.run(corpus())), golden.digest);
    }
}

TEST(PaperPolicyGoldenTest, ZeroStepGrantStillExecutesEachSolutionOnce) {
    // Pre-refactor, a max_steps at or below the solution's own rule count
    // was pad-only — every solution still executed its rules once. The
    // policy seam's truncation only applies when a policy deviates from
    // the configured grant, so under `paper` these two configs stay
    // bit-identical (as they were pre-refactor).
    const BatchRunner zero("rustbrain", EngineOptions::parse("max_steps=0"),
                           kb_context(), BatchOptions{1});
    const BatchRunner one("rustbrain", EngineOptions::parse("max_steps=1"),
                          kb_context(), BatchOptions{1});
    EXPECT_EQ(fingerprint(zero.run(corpus())), fingerprint(one.run(corpus())));
}

TEST(PaperPolicyGoldenTest, DefaultPolicyIsPaper) {
    // Omitting the option entirely is the same engine, byte for byte.
    for (const Golden& golden : kPreRefactorGoldens) {
        SCOPED_TRACE(golden.engine);
        const BatchRunner runner(golden.engine, {}, kb_context(), BatchOptions{1});
        EXPECT_EQ(fingerprint(runner.run(corpus())), golden.digest);
    }
}

// --- registry mechanics -----------------------------------------------------

TEST(PolicyRegistryTest, BuiltinListsTheSixStrategies) {
    const PolicyRegistry& registry = PolicyRegistry::builtin();
    for (const char* id : {"paper", "feedback-guided", "screened", "budget",
                           "fast-only", "slow-all"}) {
        EXPECT_TRUE(registry.contains(id)) << id;
        EXPECT_NE(registry.help().find(id), std::string::npos);
    }
    EXPECT_EQ(registry.ids().size(), 6u);
}

TEST(PolicyRegistryTest, UnknownIdThrowsListingAvailable) {
    try {
        (void)PolicyRegistry::builtin().build("papr");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("papr"), std::string::npos);
        EXPECT_NE(message.find("paper"), std::string::npos);
        EXPECT_NE(message.find("feedback-guided"), std::string::npos);
    }
}

TEST(PolicyRegistryTest, UnknownKnobThrowsNamingIt) {
    try {
        (void)parse_policy_spec("budget,millis=100");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("millis"), std::string::npos);
        EXPECT_NE(message.find("ms"), std::string::npos);
    }
    // The paper policy has no knobs at all.
    EXPECT_THROW((void)parse_policy_spec("paper,ms=1"), std::invalid_argument);
}

TEST(PolicyRegistryTest, SpecParserAcceptsBothSeparators) {
    EXPECT_EQ(parse_policy_spec("paper")->id(), "paper");
    EXPECT_EQ(parse_policy_spec("")->id(), "paper");  // empty = default
    const auto comma = parse_policy_spec("budget,ms=1500");
    const auto semicolon = parse_policy_spec("budget;ms=1500");
    EXPECT_EQ(comma->descriptor(), "budget(ms=1500)");
    EXPECT_EQ(semicolon->descriptor(), comma->descriptor());
    EXPECT_EQ(parse_policy_spec("feedback-guided")->descriptor(),
              "feedback-guided(threshold=4.0)");
    EXPECT_THROW((void)parse_policy_spec("budget,ms"), std::invalid_argument);
}

TEST(PolicyRegistryTest, ScreenedPolicyKnobsRoundTrip) {
    // Default threshold, both separators, and an explicit knob all round-
    // trip through the spec parser into the descriptor.
    EXPECT_EQ(parse_policy_spec("screened")->id(), "screened");
    EXPECT_EQ(parse_policy_spec("screened")->descriptor(),
              "screened(threshold=0.75)");
    const auto comma = parse_policy_spec("screened,threshold=0.9");
    const auto semicolon = parse_policy_spec("screened;threshold=0.9");
    EXPECT_EQ(comma->descriptor(), "screened(threshold=0.90)");
    EXPECT_EQ(semicolon->descriptor(), comma->descriptor());
    EXPECT_THROW((void)parse_policy_spec("screened,thresh=0.9"),
                 std::invalid_argument);
    // The CLI helper quotes the knobs for travel inside an engine spec.
    EngineOptions options;
    set_policy_option(options, "screened,threshold=0.9");
    EXPECT_EQ(options.get("policy", ""), "screened;threshold=0.9");
}

TEST(PolicyRegistryTest, ScreenedPolicyActsOnTheVerdict) {
    const auto policy = parse_policy_spec("screened,threshold=0.8");
    // The only policy that makes the engines ask for verdicts.
    EXPECT_TRUE(policy->needs_screen_verdict());
    EXPECT_FALSE(parse_policy_spec("paper")->needs_screen_verdict());
    PolicySignals signals;
    signals.solution_count = 3;

    // No verdict (nothing screened yet): paper behavior.
    EXPECT_EQ(policy->choose_mode(signals), ThinkingMode::Escalate);

    // A confident ProvenSafe verdict trusts the fast path...
    signals.screened = true;
    signals.screen_verdict = screen::VerdictKind::ProvenSafe;
    signals.screen_confidence = 1.0;
    EXPECT_EQ(policy->choose_mode(signals), ThinkingMode::FastOnly);
    // ...and any fast-only failure still escalates.
    EXPECT_TRUE(policy->escalate_on_failure(signals));

    // Unknown verdicts never shortcut, whatever their confidence.
    signals.screen_verdict = screen::VerdictKind::Unknown;
    signals.screen_confidence = 1.0;
    EXPECT_EQ(policy->choose_mode(signals), ThinkingMode::Escalate);

    // Below-threshold confidence escalates too.
    signals.screen_verdict = screen::VerdictKind::LikelyUB;
    signals.screen_confidence = 0.5;
    EXPECT_EQ(policy->choose_mode(signals), ThinkingMode::Escalate);

    // A LikelyUB verdict reorders the plan: solutions whose rules repair
    // the pinned category come first, original order otherwise (stable).
    signals.screen_confidence = 0.95;
    signals.screen_category = miri::UbCategory::Uninit;
    signals.solution_categories = {
        {miri::UbCategory::Panic},
        {miri::UbCategory::Uninit},
        {miri::UbCategory::Panic, miri::UbCategory::Uninit},
    };
    EXPECT_EQ(policy->plan_attempts(signals),
              (std::vector<std::size_t>{1, 2, 0}));

    // ProvenSafe pins nothing: the ranking order stands.
    signals.screen_verdict = screen::VerdictKind::ProvenSafe;
    EXPECT_EQ(policy->plan_attempts(signals),
              (std::vector<std::size_t>{0, 1, 2}));
}

TEST(PolicyRegistryTest, EngineRegistryRejectsUnknownPolicy) {
    // The policy error surfaces through every engine's policy= option.
    for (const std::string& engine_id : EngineRegistry::builtin().ids()) {
        SCOPED_TRACE(engine_id);
        try {
            (void)EngineRegistry::builtin().build(
                engine_id, EngineOptions::parse("policy=no-such-policy"),
                kb_context());
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& error) {
            const std::string message = error.what();
            EXPECT_NE(message.find("no-such-policy"), std::string::npos);
            EXPECT_NE(message.find("slow-all"), std::string::npos);
        }
    }
}

TEST(PolicyRegistryTest, ConfigSummaryNamesThePolicy) {
    const auto engine = EngineRegistry::builtin().build(
        "rustbrain", EngineOptions::parse("policy=budget;ms=800"), kb_context());
    EXPECT_NE(engine->config_summary().find("policy=budget(ms=800)"),
              std::string::npos);
    const auto plain = EngineRegistry::builtin().build("standalone", {}, {});
    EXPECT_NE(plain->config_summary().find("policy=paper"), std::string::npos);
}

// --- behavioral deltas of the non-default strategies ------------------------

int total(const BatchReport& report, int CaseResult::*field) {
    int sum = 0;
    for (const CaseResult& result : report.results) sum += result.*field;
    return sum;
}

BatchReport sweep_policy(const std::string& spec) {
    const BatchRunner runner("rustbrain",
                             EngineOptions::parse("policy=" + spec),
                             kb_context(), BatchOptions{1});
    return runner.run(corpus());
}

TEST(PolicyBehaviorTest, PaperEscalatesEveryUbCaseAndNothingElse) {
    const BatchReport report = sweep_policy("paper");
    for (const CaseResult& result : report.results) {
        // Every case that needed repair records exactly the one escalation
        // decision; clean short-circuits record none.
        if (result.thinking_switches == 0) continue;
        EXPECT_EQ(result.thinking_switches, 1) << result.case_id;
        EXPECT_EQ(result.escalations, 1) << result.case_id;
        EXPECT_EQ(result.early_stops, 0) << result.case_id;
        EXPECT_EQ(result.attempts_skipped, 0) << result.case_id;
    }
    EXPECT_GT(total(report, &CaseResult::escalations), 0);
}

TEST(PolicyBehaviorTest, FastOnlyNeverEscalatesAndSpendsLess) {
    const BatchReport paper = sweep_policy("paper");
    const BatchReport fast = sweep_policy("fast-only");
    EXPECT_EQ(total(fast, &CaseResult::escalations), 0);
    // One application of the top-ranked solution per case, nothing more.
    for (const CaseResult& result : fast.results) {
        EXPECT_LE(result.steps_executed, 1) << result.case_id;
    }
    EXPECT_LT(fast.virtual_ms_total(), paper.virtual_ms_total());
    // Pure intuition cannot beat deliberate refinement.
    EXPECT_LE(fast.pass_total(), paper.pass_total());
}

TEST(PolicyBehaviorTest, SlowAllDeliberatesPastSuccessWithoutChangingVerdicts) {
    const BatchReport paper = sweep_policy("paper");
    const BatchReport slow_all = sweep_policy("slow-all");
    ASSERT_EQ(paper.results.size(), slow_all.results.size());
    int continued = 0;
    for (std::size_t i = 0; i < paper.results.size(); ++i) {
        const CaseResult& a = paper.results[i];
        const CaseResult& b = slow_all.results[i];
        // The winner is still the first acceptable repair, so verdicts and
        // final sources agree case by case...
        EXPECT_EQ(a.pass, b.pass) << a.case_id;
        EXPECT_EQ(a.exec, b.exec) << a.case_id;
        EXPECT_EQ(a.final_source, b.final_source) << a.case_id;
        EXPECT_EQ(a.winning_rule, b.winning_rule) << a.case_id;
        // ...but the exhaustive loop never does less work.
        EXPECT_GE(b.steps_executed, a.steps_executed) << a.case_id;
        continued += b.steps_executed > a.steps_executed;
    }
    EXPECT_GT(continued, 0);
    EXPECT_GT(slow_all.virtual_ms_total(), paper.virtual_ms_total());
}

TEST(PolicyBehaviorTest, BudgetStopsEarlyUnderATightBudget) {
    const BatchReport paper = sweep_policy("paper");
    const BatchReport budget = sweep_policy("budget;ms=900");
    EXPECT_GT(total(budget, &CaseResult::early_stops), 0);
    EXPECT_LT(budget.virtual_ms_total(), paper.virtual_ms_total());
    EXPECT_LE(budget.pass_total(), paper.pass_total());
    // The budget gate sits before each attempt, so a case's overhead can
    // overshoot by at most one attempt — every stop is recorded.
    for (const CaseResult& result : budget.results) {
        if (result.early_stops > 0) {
            EXPECT_GE(result.time_ms, 900.0) << result.case_id;
        }
    }
}

TEST(PolicyBehaviorTest, FeedbackGuidedShedsOverheadOnConfidentShapes) {
    // A sequential sibling campaign (the repair_campaign shape): once the
    // store is confident about the shared feature key, feedback-guided
    // runs on intuition where paper still deliberates.
    const std::vector<const dataset::UbCase*> siblings =
        corpus().by_category(miri::UbCategory::DataRace);
    ASSERT_GT(siblings.size(), 2u);

    const auto campaign = [&](const std::string& policy_spec) {
        EngineBuildContext context = kb_context();
        FeedbackStore feedback;
        context.feedback = &feedback;
        const auto engine = EngineRegistry::builtin().build(
            "rustbrain", EngineOptions::parse("policy=" + policy_spec), context);
        return BatchRunner::run_sequential(
            siblings, [&](const dataset::UbCase& ub_case) {
                return engine->repair(ub_case);
            });
    };

    const BatchReport paper = campaign("paper");
    const BatchReport guided = campaign("feedback-guided");
    int shortcuts = 0;
    for (const CaseResult& result : guided.results) {
        const bool shortcut =
            result.thinking_switches > 0 && result.escalations == 0;
        shortcuts += shortcut;
        // The shortcut exists because feedback was confident, and confident
        // shortcuts skip the KB consult — the reduced-KB-dependence stat
        // must say so even on the intuition arm.
        if (shortcut) {
            EXPECT_TRUE(result.kb_skipped_by_feedback) << result.case_id;
            EXPECT_FALSE(result.kb_consulted) << result.case_id;
        }
    }
    EXPECT_GT(shortcuts, 0);
    EXPECT_LT(guided.virtual_ms_total(), paper.virtual_ms_total());
    // The trade-off: intuition-only repeats may surrender a case paper's
    // exhaustive loop would have ground out, never more than the cases it
    // shortcut.
    EXPECT_GE(guided.pass_total(), paper.pass_total() - shortcuts);
}

TEST(PolicyBehaviorTest, BaselinesShareTheDecisionSeam) {
    // The budget gate works on the baselines' attempt loops too.
    const dataset::UbCase* hard = nullptr;
    const BatchRunner paper_runner("fixed-pipeline", {}, {}, BatchOptions{1});
    const BatchReport paper = paper_runner.run(corpus());
    for (std::size_t i = 0; i < paper.results.size(); ++i) {
        if (paper.results[i].time_ms > 600.0) {
            hard = &corpus().cases()[i];
            break;
        }
    }
    ASSERT_NE(hard, nullptr);

    const auto tight = EngineRegistry::builtin().build(
        "fixed-pipeline", EngineOptions::parse("policy=budget;ms=200"), {});
    const CaseResult gated = tight->repair(*hard);
    EXPECT_GT(gated.early_stops, 0) << hard->id;

    const auto fast = EngineRegistry::builtin().build(
        "standalone", EngineOptions::parse("policy=fast-only"), {});
    const CaseResult one_shot = fast->repair(*hard);
    EXPECT_LE(one_shot.steps_executed, 1);
    EXPECT_EQ(one_shot.escalations, 0);
}

TEST(PolicyBehaviorTest, SwitchCountsMatchTheTraceStream) {
    TraceRecorder recorder;
    EngineBuildContext context = kb_context();
    context.trace = &recorder;
    const auto engine = EngineRegistry::builtin().build(
        "rustbrain", EngineOptions::parse("policy=budget;ms=900"), context);
    const dataset::UbCase* ub_case = corpus().find("alloc/double_free_0");
    ASSERT_NE(ub_case, nullptr);
    const CaseResult result = engine->repair(*ub_case);
    EXPECT_EQ(recorder.count(TraceEventKind::ThinkingSwitch),
              static_cast<std::size_t>(result.thinking_switches));
    EXPECT_GT(result.thinking_switches, 0);
}

}  // namespace
}  // namespace rustbrain::core
