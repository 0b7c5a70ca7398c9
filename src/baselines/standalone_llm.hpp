// Baseline: the bare model ("GPT-4", "Claude-3.5", ... columns of Figs 8/9).
//
// One shot, optionally one retry: the model is shown the code and the Miri
// error and asked to fix it — no feature extraction, no multi-solution fast
// thinking, no agents, no rollback, no knowledge base, no feedback.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/llm_engine.hpp"
#include "dataset/case.hpp"
#include "llm/backend.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::baselines {

struct StandaloneConfig {
    std::string model = "gpt-4";
    double temperature = 0.5;
    int attempts = 2;  // common practice: re-prompt once on failure
    std::uint64_t seed = 42;
    /// Thinking-policy spec (core::PolicyRegistry). The baseline has no
    /// fast/slow split, but the same decision seam gates its attempt loop:
    /// FastOnly caps it at one attempt, gate_attempt can stop it early.
    /// "paper" (the default) is bit-identical to the ungated loop.
    std::string policy = "paper";
};

class StandaloneLlmRepair final : public core::LlmEngine {
  public:
    explicit StandaloneLlmRepair(
        StandaloneConfig config, llm::BackendFactory backend_factory = {},
        std::shared_ptr<const verify::Oracle> oracle = nullptr);

    core::CaseResult repair(const dataset::UbCase& ub_case) override;

    [[nodiscard]] std::string name() const override { return "standalone"; }
    [[nodiscard]] std::string config_summary() const override;

  private:
    StandaloneConfig config_;
};

}  // namespace rustbrain::baselines
