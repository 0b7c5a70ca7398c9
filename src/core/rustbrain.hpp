// RustBrain — the paper's primary contribution, assembled.
//
// Orchestrates one repair: fast thinking (detect, extract features,
// generate candidate solutions), the abstract reasoning agent's
// knowledge-base consultation, slow thinking (decompose, execute with fix
// agents, verify, adaptively roll back), and the feedback loop that feeds
// evaluation triplets back into future fast-thinking runs.
//
// A core::LlmEngine: the shared skeleton opens each repair's session
// (backend from the injected llm::BackendFactory, default SimLLM; the
// trace tallied into the CaseResult); this class keeps only the fast/slow
// orchestration, the KB consult and the semantic judge.
//
// Every stochastic choice derives from `config.seed` + the case id, so whole
// experiment sweeps are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/feedback.hpp"
#include "core/llm_engine.hpp"
#include "dataset/case.hpp"
#include "kb/knowledge_base.hpp"
#include "llm/backend.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::core {

struct RustBrainConfig {
    std::string model = "gpt-4";
    double temperature = 0.5;
    bool use_knowledge_base = true;
    bool use_feedback = true;
    bool use_adaptive_rollback = true;
    bool use_feature_extraction = true;
    int max_solutions = 6;
    int max_steps_per_solution = 3;
    /// Probability that RustBrain's *internal* acceptability judgment
    /// wrongly approves a semantically-divergent fix (the paper's §II-A
    /// benchmark-subjectivity caveat: the framework cannot check semantics
    /// perfectly mid-loop). The harness's exec metric is always exact —
    /// this only controls when the pipeline stops refining.
    double internal_judge_error = 0.70;
    std::uint64_t seed = 42;
    /// Thinking-policy spec ("paper", "budget;ms=1500", ...) resolved
    /// through core::PolicyRegistry at construction; unknown ids and knobs
    /// throw listing what exists. "paper" reproduces the pre-policy
    /// orchestrator bit for bit.
    std::string policy = "paper";
};

class RustBrain final : public LlmEngine {
  public:
    /// `knowledge_base` may be null (disables KB regardless of config);
    /// `feedback` may be null (disables the self-learning loop);
    /// `backend_factory` may be empty (uses SimLLM); `oracle` may be null
    /// (uses verify::Oracle::shared_default()).
    RustBrain(RustBrainConfig config, const kb::KnowledgeBase* knowledge_base,
              FeedbackStore* feedback, llm::BackendFactory backend_factory = {},
              std::shared_ptr<const verify::Oracle> oracle = nullptr);

    /// Repair one corpus case end to end.
    CaseResult repair(const dataset::UbCase& ub_case) override;

    [[nodiscard]] std::string name() const override { return "rustbrain"; }
    [[nodiscard]] std::string config_summary() const override;

    [[nodiscard]] const RustBrainConfig& config() const { return config_; }

  private:
    RustBrainConfig config_;
    const kb::KnowledgeBase* knowledge_base_;
    FeedbackStore* feedback_;
};

}  // namespace rustbrain::core
