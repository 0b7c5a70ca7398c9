// Shared execution context for the slow-thinking agents: the model
// backend, the virtual clock, the trace sink, the verifier and the
// (optional) knowledge base.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/thinking_policy.hpp"
#include "core/trace.hpp"
#include "kb/knowledge_base.hpp"
#include "llm/backend.hpp"
#include "miri/mirilite.hpp"
#include "support/sim_clock.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::agents {

struct AgentContext {
    AgentContext(llm::LlmBackend& model, support::SimClock& sim_clock)
        : llm(model), clock(sim_clock) {}

    llm::LlmBackend& llm;
    support::SimClock& clock;
    /// Event sink for this repair (may be null). Stages and agents report
    /// everything countable through it — see core/trace.hpp.
    core::TraceSink* trace = nullptr;
    double temperature = 0.5;
    /// Inputs of the case's semantic benchmark (for verification runs).
    const std::vector<std::vector<std::int64_t>>* inputs = nullptr;
    /// Verification oracle shared by every stage of this repair (and, via
    /// EngineBuildContext, by every worker of a sweep). Null falls back to
    /// verify::Oracle::shared_default().
    const verify::Oracle* oracle = nullptr;
    /// Optional knowledge base (Fig 6); nullptr disables it.
    const kb::KnowledgeBase* knowledge_base = nullptr;
    /// Identity of the problem being repaired — excluded from KB retrieval
    /// so a case never retrieves itself.
    std::string case_hint;
    /// Few-shot exemplar rules gathered by the abstract reasoning agent;
    /// fix agents attach these to their prompts.
    std::vector<std::string> exemplar_rules;
    /// Feedback-store hints from fast thinking.
    std::vector<std::string> preferred_rules;
    /// Extracted feature summary (empty when the feature stage is off).
    std::string feature_key;
    /// Live per-case signal block the engine's ThinkingPolicy reads (owned
    /// by the engine; may be null). The stages keep it current: fast
    /// thinking fills the ranking/feature fields, slow thinking the
    /// attempt-loop and trajectory fields.
    core::PolicySignals* signals = nullptr;
    /// Ask the Oracle for a static pre-screening verdict on every
    /// verification. Engines copy it from their policy's
    /// needs_screen_verdict() where they build the context, so even
    /// verifications made before `signals` is attached are screened.
    bool screen_verdicts = false;

    /// Calls issued so far in this backend session; stamped into each
    /// request as its sequence number (part of the call's deterministic
    /// identity — see llm/backend.hpp).
    std::uint64_t sequence = 0;

    /// Send one chat request, charging the clock with the model's latency
    /// and emitting an LlmCall trace event.
    llm::ChatResponse call_llm(const llm::PromptSpec& spec);

    /// Verify code through the Oracle, charging verification time and
    /// emitting a Verify trace event with the error count. Virtual time is
    /// derived from the report (which is memoized bit-identically), so a
    /// cache hit charges exactly what the uncached run would have — the
    /// cache can never perturb results. The event label records where the
    /// answer came from ("" = interpreted, "cached" = report cache). With
    /// screen_verdicts set, a verdict also updates `signals` (most recent
    /// wins) and emits a Screen event.
    miri::MiriReport verify(const std::string& source);

    /// Emit one trace event stamped with the current virtual time (no-op
    /// without a sink; never charges the clock).
    void emit(core::TraceEventKind kind, const std::string& label = "",
              std::uint64_t value = 0);
};

}  // namespace rustbrain::agents
