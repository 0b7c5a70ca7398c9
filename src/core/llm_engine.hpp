// LlmEngine — the skeleton the three LLM-backed engines share.
//
// RustBrain, StandaloneLlmRepair and FixedPipelineRepair differ only in
// their attempt loops (fast/slow thinking, generate-then-apply, the fixed
// rule walk). Everything around the loop lives here once:
//   * the four shared settings (LlmSettings), the backend factory
//     (SimLLM by default), the Oracle and the parsed ThinkingPolicy, all
//     validated at construction;
//   * one Session per repair: a backend seeded from the engine's session
//     tag and the case id, a SimClock, a wired AgentContext, and a
//     TraceStats that tallies the trace straight into the CaseResult being
//     built (tee'd with the caller's sink), so no engine copies a counter;
//   * the policy helpers every loop calls: choose_mode() and AttemptGate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "agents/agent_context.hpp"
#include "core/repair_engine.hpp"
#include "core/thinking_policy.hpp"
#include "core/trace.hpp"
#include "dataset/case.hpp"
#include "llm/backend.hpp"
#include "support/sim_clock.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::core {

/// The four settings every LLM engine's config carries (model,
/// temperature, seed, policy spec), copied out by llm_settings().
struct LlmSettings {
    std::string model;
    double temperature = 0.0;
    std::uint64_t seed = 0;
    std::string policy;
};

template <class Config>
[[nodiscard]] LlmSettings llm_settings(const Config& config) {
    return {config.model, config.temperature, config.seed, config.policy};
}

class LlmEngine : public RepairEngine {
  public:
    [[nodiscard]] const ThinkingPolicy& policy() const { return *policy_; }

  protected:
    /// `session_tag` prefixes the case id in each session's backend seed
    /// ("" for RustBrain, "solo:" and "fixed:" for the baselines), so
    /// engines sharing a seed still draw independent streams. Throws
    /// std::invalid_argument on an unknown policy spec or model profile.
    /// An empty `backend_factory` means SimLLM; a null `oracle` means
    /// verify::Oracle::shared_default().
    LlmEngine(LlmSettings settings, std::string session_tag,
              llm::BackendFactory backend_factory,
              std::shared_ptr<const verify::Oracle> oracle);

    [[nodiscard]] const verify::Oracle& oracle() const {
        return verify::resolve(oracle_.get());
    }

    /// Everything one repair owns. The context is wired to the session's
    /// backend, clock and trace, the case's inputs, the Oracle and the
    /// policy's screening need; engines add what only they use.
    struct Session {
        Session(const LlmEngine& engine, const dataset::UbCase& ub_case);
        Session(const Session&) = delete;
        Session& operator=(const Session&) = delete;

        /// Stamp the virtual time into the result and hand it over.
        CaseResult finish();

        CaseResult result;  // the trace tallies into it as the repair runs
        std::unique_ptr<llm::LlmBackend> backend;
        support::SimClock clock;
        TraceStats stats{result};
        TraceTee tee;
        agents::AgentContext context;
    };

  private:
    LlmSettings settings_;
    std::string session_tag_;
    llm::BackendFactory backend_factory_;
    std::shared_ptr<const verify::Oracle> oracle_;
    std::shared_ptr<const ThinkingPolicy> policy_;
};

/// Ask `policy` which arm of the thinking switch to take and emit the
/// decision ("fast-only" or "escalate") as a ThinkingSwitch event.
ThinkingMode choose_mode(const ThinkingPolicy& policy,
                         const PolicySignals& signals,
                         agents::AgentContext& context);

/// The head of every attempt loop. The FastOnly arm trusts the intuition:
/// it runs one attempt at most and is never gated. The Escalate arm asks
/// the policy before each attempt.
class AttemptGate {
  public:
    /// A loop of up to `configured` attempts; records the planned count in
    /// signals.attempts_planned.
    AttemptGate(const ThinkingPolicy& policy, ThinkingMode mode, int configured,
                PolicySignals& signals, agents::AgentContext& context);

    /// Attempts the loop may run (negative when configured so: none).
    [[nodiscard]] int attempts() const { return attempts_; }

    /// Asked before attempt `index`: stamps the index and the virtual clock
    /// into the signals, then (Escalate only) asks policy.gate_attempt and
    /// emits a "skip" or "stop" ThinkingSwitch carrying `value`, the
    /// solution or step the attempt would have run.
    AttemptAction before(std::size_t index, std::uint64_t value) const;

  private:
    const ThinkingPolicy& policy_;
    ThinkingMode mode_;
    int attempts_;
    PolicySignals& signals_;
    agents::AgentContext& context_;
};

}  // namespace rustbrain::core
