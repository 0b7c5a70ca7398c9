#include <gtest/gtest.h>

#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "lang/printer.hpp"
#include "lang/parser.hpp"
#include "llm/hallucinate.hpp"
#include "llm/rules.hpp"
#include "llm/simllm.hpp"
#include "miri/mirilite.hpp"

namespace rustbrain::llm {
namespace {

ChatRequest make_request(const std::string& task,
                         std::map<std::string, std::string> fields,
                         const std::string& code, double temperature = 0.5,
                         std::vector<std::string> exemplars = {},
                         std::vector<std::string> preferred = {},
                         std::uint64_t sequence = 0) {
    PromptSpec spec;
    spec.task = task;
    spec.fields = std::move(fields);
    spec.code = code;
    spec.exemplar_rules = std::move(exemplars);
    spec.preferred_rules = std::move(preferred);
    ChatRequest request;
    request.temperature = temperature;
    request.sequence = sequence;
    request.messages.push_back({Role::User, spec.render()});
    return request;
}

const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const std::string kBuggy =
    corpus().find("danglingpointer/use_after_free_0")->buggy_source;

TEST(PromptSpecTest, RenderParseRoundTrip) {
    PromptSpec spec;
    spec.task = "apply_rule";
    spec.fields["rule"] = "move-dealloc-to-end";
    spec.fields["error_category"] = "danglingpointer";
    spec.exemplar_rules = {"a-rule", "b-rule"};
    spec.preferred_rules = {"c-rule"};
    spec.code = "fn main() { }\n";
    const PromptSpec parsed = PromptSpec::parse(spec.render());
    EXPECT_EQ(parsed.task, "apply_rule");
    EXPECT_EQ(parsed.fields.at("rule"), "move-dealloc-to-end");
    EXPECT_EQ(parsed.exemplar_rules.size(), 2u);
    EXPECT_EQ(parsed.preferred_rules.size(), 1u);
    EXPECT_EQ(parsed.code, "fn main() { }\n");
}

TEST(SimLlmTest, DeterministicForSameSeed) {
    SimLLM a(gpt4_profile(), 7);
    SimLLM b(gpt4_profile(), 7);
    const auto request = make_request(
        "generate_solutions",
        {{"error_category", "danglingpointer"}, {"count", "5"}}, kBuggy);
    EXPECT_EQ(a.complete(request).content, b.complete(request).content);
}

TEST(SimLlmTest, ResponseIsPureFunctionOfCallIdentity) {
    // The LlmBackend contract: the response depends only on (session seed,
    // sequence, prompt, temperature) — never on what the session answered
    // before. `divergent` serves two extra calls first; call identity 5
    // still answers identically.
    SimLLM fresh(gpt4_profile(), 7);
    SimLLM divergent(gpt4_profile(), 7);
    const auto probe = make_request(
        "generate_solutions",
        {{"error_category", "danglingpointer"}, {"count", "4"}}, kBuggy, 0.5, {},
        {}, 5);
    (void)divergent.complete(make_request(
        "extract_features", {{"error_category", "alloc"}}, kBuggy, 0.5, {}, {}, 0));
    (void)divergent.complete(make_request(
        "apply_rule", {{"rule", "guard-divisor"}}, kBuggy, 0.9, {}, {}, 1));
    const auto a = fresh.complete(probe);
    const auto b = divergent.complete(probe);
    EXPECT_EQ(a.content, b.content);
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    // A different sequence is a different identity: a retry of the same
    // prompt may sample differently.
    EXPECT_EQ(fresh.calls_served(), 1u);
}

TEST(SimLlmTest, FeatureExtractionNamesCategory) {
    SimLLM llm(gpt4_profile(), 3);
    const auto response = llm.complete(make_request(
        "extract_features",
        {{"error_category", "danglingpointer"}, {"error_message", "use after free"}},
        kBuggy));
    EXPECT_NE(response.content.find("category: danglingpointer"), std::string::npos);
    EXPECT_NE(response.content.find("feature_key:"), std::string::npos);
}

TEST(SimLlmTest, SolutionsAreKnownRules) {
    SimLLM llm(gpt4_profile(), 11);
    const auto response = llm.complete(make_request(
        "generate_solutions",
        {{"error_category", "danglingpointer"}, {"count", "6"}}, kBuggy));
    const auto solutions = parse_solution_lines(response.content);
    ASSERT_FALSE(solutions.empty());
    for (const auto& id : solutions) {
        EXPECT_NE(find_rule(id), nullptr) << id;
    }
}

TEST(SimLlmTest, PreferredRulesDominateSampling) {
    SimLLM llm(gpt4_profile(), 13);
    int hits = 0;
    const int trials = 30;
    for (int i = 0; i < trials; ++i) {
        const auto response = llm.complete(make_request(
            "generate_solutions",
            {{"error_category", "danglingpointer"}, {"count", "1"}}, kBuggy, 0.5,
            {}, {"move-dealloc-to-end"}, static_cast<std::uint64_t>(i)));
        const auto solutions = parse_solution_lines(response.content);
        if (!solutions.empty() && solutions[0] == "move-dealloc-to-end") ++hits;
    }
    EXPECT_GT(hits, trials / 2);
}

TEST(SimLlmTest, LowTemperatureCollapsesDiversity) {
    SimLLM cold(gpt4_profile(), 17);
    SimLLM hot(gpt4_profile(), 17);
    std::set<std::string> cold_rules;
    std::set<std::string> hot_rules;
    for (int i = 0; i < 12; ++i) {
        const auto cold_resp = cold.complete(make_request(
            "generate_solutions",
            {{"error_category", "danglingpointer"}, {"count", "2"}}, kBuggy, 0.1,
            {}, {}, static_cast<std::uint64_t>(i)));
        const auto hot_resp = hot.complete(make_request(
            "generate_solutions",
            {{"error_category", "danglingpointer"}, {"count", "2"}}, kBuggy, 0.9,
            {}, {}, static_cast<std::uint64_t>(i)));
        for (const auto& id : parse_solution_lines(cold_resp.content)) {
            cold_rules.insert(id);
        }
        for (const auto& id : parse_solution_lines(hot_resp.content)) {
            hot_rules.insert(id);
        }
    }
    EXPECT_LE(cold_rules.size(), hot_rules.size());
}

TEST(SimLlmTest, ApplyRuleProducesParseableCode) {
    SimLLM llm(gpt4_profile(), 19);
    const auto response = llm.complete(make_request(
        "apply_rule",
        {{"rule", "move-dealloc-to-end"}, {"error_category", "danglingpointer"}},
        kBuggy, 0.1));
    const std::string code = parse_code_block(response.content);
    std::string error;
    EXPECT_TRUE(lang::try_parse(code, &error).has_value()) << error << code;
}

TEST(SimLlmTest, ApplyRuleAtLowTempUsuallyFixes) {
    // With gpt-4 at temperature 0.1 and the correct rule named, the patch
    // should usually pass MiriLite.
    SimLLM llm(gpt4_profile(), 23);
    miri::MiriLite miri;
    const auto* ub_case = corpus().find("danglingpointer/use_after_free_0");
    int fixed = 0;
    const int trials = 20;
    for (int i = 0; i < trials; ++i) {
        const auto response = llm.complete(make_request(
            "apply_rule",
            {{"rule", "move-dealloc-to-end"}, {"error_category", "danglingpointer"}},
            ub_case->buggy_source, 0.1, {}, {}, static_cast<std::uint64_t>(i)));
        const auto report =
            miri.test_source(parse_code_block(response.content), ub_case->inputs);
        if (report.passed()) ++fixed;
    }
    EXPECT_GE(fixed, trials * 7 / 10);
}

TEST(SimLlmTest, HighTemperatureCorruptsMoreOften) {
    const auto* ub_case = corpus().find("danglingpointer/use_after_free_0");
    miri::MiriLite miri;
    // Sample the marginal corruption rate across independent sessions:
    // within one session a low-temperature model mostly repeats itself
    // (retry fixation), so per-session retries are not independent draws.
    auto count_failures = [&](double temperature) {
        int failures = 0;
        for (int i = 0; i < 30; ++i) {
            SimLLM llm(gpt35_profile(), 29 + static_cast<std::uint64_t>(i));
            const auto response = llm.complete(make_request(
                "apply_rule",
                {{"rule", "move-dealloc-to-end"},
                 {"error_category", "danglingpointer"}},
                ub_case->buggy_source, temperature));
            const auto report = miri.test_source(
                parse_code_block(response.content), ub_case->inputs);
            if (!report.passed()) ++failures;
        }
        return failures;
    };
    EXPECT_LE(count_failures(0.1), count_failures(0.9));
}

TEST(SimLlmTest, InapplicableRuleMayImprovise) {
    SimLLM llm(gpt35_profile(), 31);
    bool saw_unchanged = false;
    bool saw_improvised = false;
    for (int i = 0; i < 30; ++i) {
        const auto response = llm.complete(make_request(
            "apply_rule",
            {{"rule", "guard-divisor"}, {"error_category", "danglingpointer"}},
            kBuggy, 0.9, {}, {}, static_cast<std::uint64_t>(i)));
        if (response.content.find("code unchanged") != std::string::npos) {
            saw_unchanged = true;
        }
        if (response.content.find("improvised") != std::string::npos) {
            saw_improvised = true;
        }
    }
    EXPECT_TRUE(saw_unchanged || saw_improvised);
}

TEST(SimLlmTest, LatencyScalesWithModel) {
    SimLLM fast(gpt35_profile(), 37);
    SimLLM slow(gpt_o1_profile(), 37);
    const auto request = make_request(
        "extract_features", {{"error_category", "alloc"}}, kBuggy);
    EXPECT_LT(fast.complete(request).latency_ms, slow.complete(request).latency_ms);
}

TEST(SimLlmTest, ExtractAstReturnsProgram) {
    SimLLM llm(gpt4_profile(), 41);
    const auto response =
        llm.complete(make_request("extract_ast", {}, kBuggy, 0.1));
    const std::string code = parse_code_block(response.content);
    EXPECT_TRUE(lang::try_parse(code).has_value());
}

TEST(SimLlmTest, ParseMemoLeavesEveryResponseUnchanged) {
    // A session parses each quoted code once and reuses it; a fresh SimLLM
    // per call parses from scratch. For every forged case, one session
    // serves the buggy source's and then the reference fix's calls (so the
    // memo is filled, reused and replaced); each response must equal the
    // fresh one. extract_ast at 1.5 mutates a clone of the memoized parse,
    // and the apply_rule after it checks the memo came through unchanged.
    gen::ForgeOptions options;
    options.seed = 42;
    options.count = 560;
    const dataset::Corpus forged = gen::forge_corpus(options);
    constexpr std::uint64_t kSeed = 17;
    std::size_t calls = 0;
    std::size_t noisy_asts = 0;
    for (const dataset::UbCase& ub_case : forged.cases()) {
        SCOPED_TRACE(ub_case.id);
        SimLLM session(gpt4_profile(), kSeed);
        std::uint64_t sequence = 0;
        auto expect_pure = [&](const std::string& task,
                               std::map<std::string, std::string> fields,
                               const std::string& code, double temperature) {
            const ChatRequest request = make_request(
                task, std::move(fields), code, temperature, {}, {}, sequence++);
            const ChatResponse got = session.complete(request);
            const ChatResponse want = SimLLM(gpt4_profile(), kSeed).complete(request);
            EXPECT_EQ(got.content, want.content) << task << " at " << temperature;
            EXPECT_EQ(got.latency_ms, want.latency_ms);
            ++calls;
            return got.content;
        };
        const std::string category = miri::ub_category_label(ub_case.category);
        for (const std::string* code : {&ub_case.buggy_source, &ub_case.reference_fix}) {
            expect_pure("extract_features",
                        {{"error_category", category}, {"error_message", "ub"}},
                        *code, 0.5);
            expect_pure("generate_solutions",
                        {{"error_category", category}, {"count", "3"}}, *code, 0.7);
            for (const RepairRule& rule : rule_library()) {
                expect_pure("apply_rule",
                            {{"rule", rule.id}, {"error_category", category}},
                            *code, 0.9);
            }
            const std::string printed =
                "note: ast extracted\ncode:\n" +
                lang::print_program(*lang::try_parse(*code));
            for (const double temperature : {0.0, 0.7, 1.5}) {
                noisy_asts += expect_pure("extract_ast", {}, *code, temperature) !=
                              printed;
            }
            expect_pure("apply_rule",
                        {{"rule", rule_library().front().id},
                         {"error_category", category}},
                        *code, 0.9);
        }
    }
    EXPECT_EQ(calls, forged.size() * 2 * (rule_library().size() + 6));
    EXPECT_GT(noisy_asts, 0u);  // the clone-then-mutate path ran
}

TEST(ProfileTest, CompetenceOrdering) {
    const auto category = miri::UbCategory::DanglingPointer;
    const double weak = gpt35_profile().effective_competence(category, false,
                                                             false, false, 1);
    const double strong =
        gpt4_profile().effective_competence(category, false, false, false, 1);
    EXPECT_LT(weak, strong);
    // Scaffolding (features+exemplars) lifts the weak model substantially.
    const double lifted = gpt35_profile().effective_competence(category, true,
                                                               true, true, 1);
    EXPECT_GT(lifted, weak + 0.2);
}

TEST(ProfileTest, O1WeakOnPanic) {
    const double o1_panic = gpt_o1_profile().effective_competence(
        miri::UbCategory::Panic, true, false, false, 1);
    const double gpt4_panic = gpt4_profile().effective_competence(
        miri::UbCategory::Panic, true, false, false, 1);
    EXPECT_LT(o1_panic, gpt4_panic);
}

TEST(ProfileTest, HallucinationGrowsWithTemperature) {
    const auto& profile = gpt4_profile();
    EXPECT_LT(profile.hallucination_rate(0.1), profile.hallucination_rate(0.5));
    EXPECT_LT(profile.hallucination_rate(0.5), profile.hallucination_rate(0.9));
}

TEST(HallucinateTest, MutationChangesProgram) {
    auto program = lang::try_parse(kBuggy);
    ASSERT_TRUE(program.has_value());
    support::Rng rng(99);
    lang::Program copy = program->clone();
    const auto kind = mutate_program(copy, rng);
    ASSERT_TRUE(kind.has_value());
    EXPECT_FALSE(lang::equals(*program, copy));
}

TEST(HallucinateTest, DeterministicGivenSeed) {
    auto program = lang::try_parse(kBuggy);
    support::Rng rng1(5);
    support::Rng rng2(5);
    lang::Program a = program->clone();
    lang::Program b = program->clone();
    mutate_program(a, rng1);
    mutate_program(b, rng2);
    EXPECT_TRUE(lang::equals(a, b));
}

}  // namespace
}  // namespace rustbrain::llm
