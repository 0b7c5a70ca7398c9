// The LlmBackend boundary: SimLLM's per-call purity, CachingBackend's
// bit-identical memoization over a full-corpus sweep, a recording replayed
// from the cache with no model behind it, and
// support::key_hash without a collision over every text one cold sweep
// hashes into a cache key.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "llm/caching_backend.hpp"
#include "llm/simllm.hpp"
#include "support/hashing.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::llm {
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

core::EngineBuildContext context_with(BackendFactory factory) {
    core::EngineBuildContext context;
    context.knowledge_base = &seeded_kb();
    context.backend_factory = std::move(factory);
    return context;
}

void expect_identical(const core::BatchReport& a, const core::BatchReport& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const core::CaseResult& x = a.results[i];
        const core::CaseResult& y = b.results[i];
        EXPECT_EQ(x.case_id, y.case_id) << "index " << i;
        EXPECT_EQ(x.pass, y.pass) << x.case_id;
        EXPECT_EQ(x.exec, y.exec) << x.case_id;
        EXPECT_EQ(x.time_ms, y.time_ms) << x.case_id;  // exact, not near
        EXPECT_EQ(x.time_breakdown, y.time_breakdown) << x.case_id;
        EXPECT_EQ(x.solutions_generated, y.solutions_generated) << x.case_id;
        EXPECT_EQ(x.steps_executed, y.steps_executed) << x.case_id;
        EXPECT_EQ(x.rollbacks, y.rollbacks) << x.case_id;
        EXPECT_EQ(x.llm_calls, y.llm_calls) << x.case_id;
        EXPECT_EQ(x.kb_consulted, y.kb_consulted) << x.case_id;
        EXPECT_EQ(x.kb_skipped_by_feedback, y.kb_skipped_by_feedback)
            << x.case_id;
        EXPECT_EQ(x.thinking_switches, y.thinking_switches) << x.case_id;
        EXPECT_EQ(x.escalations, y.escalations) << x.case_id;
        EXPECT_EQ(x.early_stops, y.early_stops) << x.case_id;
        EXPECT_EQ(x.attempts_skipped, y.attempts_skipped) << x.case_id;
        EXPECT_EQ(x.error_trajectory, y.error_trajectory) << x.case_id;
        EXPECT_EQ(x.winning_rule, y.winning_rule) << x.case_id;
        EXPECT_EQ(x.final_source, y.final_source) << x.case_id;
    }
    EXPECT_EQ(a.clock.now_ms(), b.clock.now_ms());
    EXPECT_EQ(a.clock.breakdown(), b.clock.breakdown());
}

core::BatchReport corpus_sweep(const core::EngineBuildContext& context,
                               std::size_t workers = 1) {
    const core::BatchRunner runner("rustbrain",
                                   core::EngineOptions::parse("model=gpt-4"),
                                   context, core::BatchOptions{workers});
    return runner.run(corpus());
}

TEST(SimBackendTest, FactoryOpensIndependentDeterministicSessions) {
    const BackendFactory factory = sim_backend_factory();
    const auto a = factory(gpt4_profile(), 7);
    const auto b = factory(gpt4_profile(), 7);
    EXPECT_EQ(a->description(), "sim:gpt-4");
    ChatRequest request;
    request.sequence = 3;
    request.messages.push_back({Role::User, "task: extract_ast\ncode:\nfn main() { }\n"});
    const ChatResponse first = a->complete(request);
    const ChatResponse second = b->complete(request);
    EXPECT_EQ(first.content, second.content);
    EXPECT_EQ(first.latency_ms, second.latency_ms);
    EXPECT_EQ(a->calls_served(), 1u);
}

TEST(CachingBackendTest, FullCorpusSweepBitIdenticalWithAndWithoutCache) {
    // The acceptance property: a sweep through CachingBackend is
    // indistinguishable from an uncached one, and a repeat sweep answers
    // from cache while still reproducing the same bytes.
    const core::BatchReport uncached = corpus_sweep(context_with({}));

    const auto cache = std::make_shared<PromptCache>();
    const auto cached_context = context_with(caching_backend_factory(cache));
    const core::BatchReport first = corpus_sweep(cached_context);
    expect_identical(uncached, first);
    const PromptCacheStats after_first = cache->stats();
    EXPECT_GT(after_first.entries, 0u);
    EXPECT_EQ(after_first.hits, 0u);  // nothing to hit on a cold cache

    const core::BatchReport second = corpus_sweep(cached_context, 4);
    expect_identical(uncached, second);
    const PromptCacheStats after_second = cache->stats();
    // The repeat sweep re-issues exactly the same call identities: all hits,
    // no new entries.
    EXPECT_EQ(after_second.entries, after_first.entries);
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(after_second.hits, after_first.misses);
}

TEST(CachingBackendTest, HitsPreserveResponseBytes) {
    const auto cache = std::make_shared<PromptCache>();
    const BackendFactory factory = caching_backend_factory(cache);
    ChatRequest request;
    request.temperature = 0.8;
    request.sequence = 2;
    request.messages.push_back(
        {Role::User, "task: generate_solutions\nerror_category: alloc\n"});
    const auto first_session = factory(gpt4_profile(), 11);
    const ChatResponse live = first_session->complete(request);
    const auto second_session = factory(gpt4_profile(), 11);
    const ChatResponse cached = second_session->complete(request);
    EXPECT_EQ(cache->stats().hits, 1u);
    EXPECT_EQ(live.content, cached.content);
    EXPECT_EQ(live.prompt_tokens, cached.prompt_tokens);
    EXPECT_EQ(live.completion_tokens, cached.completion_tokens);
    EXPECT_EQ(live.latency_ms, cached.latency_ms);
    EXPECT_EQ(second_session->description(), "cache(sim:gpt-4)");
    // A different session seed is a different identity: no false hit.
    const auto other_session = factory(gpt4_profile(), 12);
    (void)other_session->complete(request);
    EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(CachingBackendTest, FullShardEvictsDownToItsCapAndCounts) {
    // Keys are sharded key % 16; hammering one shard past its cap must
    // hold it at the cap (bit-identity makes dropping entries safe) and
    // count one eviction per insert beyond it — never grow without bound.
    constexpr std::uint64_t kCapacity = 64;
    PromptCache cache(kCapacity);
    ChatResponse response;
    response.content = "cached";
    constexpr std::uint64_t kShardStride = 16;
    constexpr std::uint64_t kInserts = 1000;
    for (std::uint64_t i = 0; i < kInserts; ++i) {
        cache.insert(i * kShardStride, response);
    }
    const PromptCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, kCapacity);
    EXPECT_EQ(stats.evictions, kInserts - kCapacity);
    // The most recent inserts survive and still answer.
    EXPECT_TRUE(cache.lookup((kInserts - 1) * kShardStride).has_value());
    // Evicted entries miss and would be re-inserted, not corrupted.
    EXPECT_FALSE(cache.lookup(0).has_value());
}

/// Sessions with no model behind them: a call that reaches one throws.
BackendFactory model_less_factory() {
    class ModelLessBackend final : public LlmBackend {
      public:
        ChatResponse complete(const ChatRequest&) override {
            throw std::logic_error("a replayed call reached the model");
        }
        [[nodiscard]] std::uint64_t calls_served() const override { return 0; }
        [[nodiscard]] std::string description() const override { return "none"; }
    };
    return [](const ModelProfile&, std::uint64_t) {
        return std::make_unique<ModelLessBackend>();
    };
}

TEST(CachingBackendTest, GoldenTranscriptReproducesCaseResults) {
    // Record a sweep over one category into a cache, then replay it from
    // that cache with no model behind the boundary at all: bit-identical
    // CaseResults prove the cache captures everything the pipeline
    // consumed.
    const std::vector<const dataset::UbCase*> cases =
        corpus().by_category(miri::UbCategory::DanglingPointer);
    ASSERT_FALSE(cases.empty());

    const auto cache = std::make_shared<PromptCache>();
    const auto record_engine = core::EngineRegistry::builtin().build(
        "rustbrain", core::EngineOptions::parse("model=gpt-4"),
        context_with(caching_backend_factory(cache)));
    std::vector<core::CaseResult> recorded;
    for (const dataset::UbCase* ub_case : cases) {
        recorded.push_back(record_engine->repair(*ub_case));
    }
    const PromptCacheStats recording = cache->stats();
    ASSERT_GT(recording.entries, 0u);
    ASSERT_EQ(recording.evictions, 0u);

    const auto replay_engine = core::EngineRegistry::builtin().build(
        "rustbrain", core::EngineOptions::parse("model=gpt-4"),
        context_with(caching_backend_factory(cache, model_less_factory())));
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const core::CaseResult replayed = replay_engine->repair(*cases[i]);
        const core::CaseResult& original = recorded[i];
        EXPECT_EQ(replayed.pass, original.pass) << original.case_id;
        EXPECT_EQ(replayed.exec, original.exec) << original.case_id;
        EXPECT_EQ(replayed.time_ms, original.time_ms) << original.case_id;
        EXPECT_EQ(replayed.time_breakdown, original.time_breakdown)
            << original.case_id;
        EXPECT_EQ(replayed.llm_calls, original.llm_calls) << original.case_id;
        EXPECT_EQ(replayed.error_trajectory, original.error_trajectory)
            << original.case_id;
        EXPECT_EQ(replayed.winning_rule, original.winning_rule)
            << original.case_id;
        EXPECT_EQ(replayed.final_source, original.final_source)
            << original.case_id;
    }
    // Every replayed call was a hit.
    const PromptCacheStats replay = cache->stats();
    EXPECT_EQ(replay.misses, recording.misses);
    EXPECT_EQ(replay.hits - recording.hits, recording.hits + recording.misses);
}

/// Every distinct text a sweep hashes into a cache key: prompt messages
/// (call_key), and sources (the Oracle's fingerprint).
struct KeyedTexts {
    std::mutex mutex;
    std::set<std::string> texts;

    void add(const std::string& text) {
        const std::lock_guard<std::mutex> lock(mutex);
        texts.insert(text);
    }
};

class CapturingBackend final : public LlmBackend {
  public:
    CapturingBackend(std::unique_ptr<LlmBackend> inner, KeyedTexts& keyed)
        : inner_(std::move(inner)), keyed_(keyed) {}

    ChatResponse complete(const ChatRequest& request) override {
        for (const ChatMessage& message : request.messages) keyed_.add(message.content);
        ChatResponse response = inner_->complete(request);
        keyed_.add(parse_code_block(response.content));
        return response;
    }
    [[nodiscard]] std::uint64_t calls_served() const override {
        return inner_->calls_served();
    }
    [[nodiscard]] std::string description() const override {
        return inner_->description();
    }

  private:
    std::unique_ptr<LlmBackend> inner_;
    KeyedTexts& keyed_;
};

class CapturingOracle final : public verify::Oracle {
  public:
    CapturingOracle(verify::OracleOptions options, KeyedTexts& keyed)
        : Oracle(std::move(options)), keyed_(keyed) {}

  protected:
    [[nodiscard]] miri::MiriReport interpret(
        const verify::CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets) const override {
        keyed_.add(compiled.source);
        return Oracle::interpret(compiled, input_sets);
    }

  private:
    KeyedTexts& keyed_;
};

TEST(KeyHashTest, NoCollisionOverOneColdSweep) {
    // The benchmark's cold sweep: 560 forged cases (seed 42), the paper
    // policy at four workers on fresh prompt and verify caches.
    gen::ForgeOptions forge;
    forge.seed = 42;
    forge.count = 560;
    const dataset::Corpus forged = gen::forge_corpus(forge);
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(forged, kbase);

    KeyedTexts keyed;
    for (const dataset::UbCase& ub_case : forged.cases()) {
        keyed.add(ub_case.buggy_source);
        keyed.add(ub_case.reference_fix);
    }
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    core::EngineBuildContext context;
    context.knowledge_base = &kbase;
    context.oracle = std::make_shared<CapturingOracle>(std::move(oracle_options), keyed);
    context.backend_factory = caching_backend_factory(
        std::make_shared<PromptCache>(),
        [&keyed](const ModelProfile& profile, std::uint64_t session_seed) {
            return std::make_unique<CapturingBackend>(
                sim_backend_factory()(profile, session_seed), keyed);
        });
    core::EngineOptions options = core::EngineOptions::parse("model=gpt-4");
    core::set_policy_option(options, "paper");
    const core::BatchRunner runner("rustbrain", options, context,
                                   core::BatchOptions{4});
    ASSERT_EQ(runner.run(forged).results.size(), 560u);

    // Thousands of distinct sources and prompts, no two sharing a key.
    EXPECT_GT(keyed.texts.size(), 2000u);
    std::map<std::uint64_t, const std::string*> owners;
    for (const std::string& text : keyed.texts) {
        EXPECT_EQ(verify::source_fingerprint(text), support::key_hash(text));
        const auto [it, fresh] = owners.emplace(support::key_hash(text), &text);
        EXPECT_TRUE(fresh) << "key_hash collision:\n" << *it->second << "\n---\n" << text;
    }
}

}  // namespace
}  // namespace rustbrain::llm
