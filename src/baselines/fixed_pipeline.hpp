// Baseline: RustAssistant-style fixed repair pipeline (Deligiannis et al.,
// ICSE 2025 — the paper's state-of-the-art LLM comparator).
//
// Faithful to its published design philosophy, transplanted to UB repair:
//   * an error-code -> fix-pattern store selects a FIXED, pre-designed
//     sequence of repair steps for each error category;
//   * one candidate path, executed in order, re-verifying after each step;
//   * on regression the pipeline discards everything and restarts from the
//     ORIGINAL code (full rollback to T0, the Fig 5a behaviour);
//   * no feature extraction, no multi-solution generation, no feedback.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/llm_engine.hpp"
#include "dataset/case.hpp"
#include "llm/backend.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::baselines {

struct FixedPipelineConfig {
    std::string model = "gpt-4";
    double temperature = 0.5;
    int max_iterations = 2;
    std::uint64_t seed = 42;
    /// Thinking-policy spec (core::PolicyRegistry): the shared decision
    /// seam gates the fixed step walk — FastOnly caps it at one step,
    /// gate_attempt can stop or skip steps. "paper" (the default) is
    /// bit-identical to the ungated walk.
    std::string policy = "paper";
};

class FixedPipelineRepair final : public core::LlmEngine {
  public:
    explicit FixedPipelineRepair(
        FixedPipelineConfig config, llm::BackendFactory backend_factory = {},
        std::shared_ptr<const verify::Oracle> oracle = nullptr);

    core::CaseResult repair(const dataset::UbCase& ub_case) override;

    [[nodiscard]] std::string name() const override { return "fixed-pipeline"; }
    [[nodiscard]] std::string config_summary() const override;

  private:
    FixedPipelineConfig config_;
};

}  // namespace rustbrain::baselines
