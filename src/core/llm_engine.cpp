#include "core/llm_engine.hpp"

#include <stdexcept>
#include <utility>

#include "llm/profile.hpp"
#include "support/rng.hpp"

namespace rustbrain::core {

LlmEngine::LlmEngine(LlmSettings settings, std::string session_tag,
                     llm::BackendFactory backend_factory,
                     std::shared_ptr<const verify::Oracle> oracle)
    : settings_(std::move(settings)),
      session_tag_(std::move(session_tag)),
      backend_factory_(std::move(backend_factory)),
      oracle_(std::move(oracle)),
      policy_(parse_policy_spec(settings_.policy)) {
    if (llm::find_profile(settings_.model) == nullptr) {
        throw std::invalid_argument("unknown model profile: " + settings_.model);
    }
    if (!backend_factory_) backend_factory_ = llm::sim_backend_factory();
}

LlmEngine::Session::Session(const LlmEngine& engine,
                            const dataset::UbCase& ub_case)
    : backend(engine.backend_factory_(
          *llm::find_profile(engine.settings_.model),
          support::derive_seed(engine.settings_.seed,
                               engine.session_tag_ + ub_case.id))),
      tee(&stats, engine.trace_sink()),
      context(*backend, clock) {
    result.case_id = ub_case.id;
    context.trace = &tee;
    context.temperature = engine.settings_.temperature;
    context.inputs = &ub_case.inputs;
    context.oracle = &engine.oracle();
    context.screen_verdicts = engine.policy_->needs_screen_verdict();
}

CaseResult LlmEngine::Session::finish() {
    result.time_ms = clock.now_ms();
    result.time_breakdown = clock.breakdown();
    return std::move(result);
}

ThinkingMode choose_mode(const ThinkingPolicy& policy,
                         const PolicySignals& signals,
                         agents::AgentContext& context) {
    const ThinkingMode mode = policy.choose_mode(signals);
    context.emit(TraceEventKind::ThinkingSwitch,
                 mode == ThinkingMode::FastOnly ? "fast-only" : "escalate");
    return mode;
}

AttemptGate::AttemptGate(const ThinkingPolicy& policy, ThinkingMode mode,
                         int configured, PolicySignals& signals,
                         agents::AgentContext& context)
    : policy_(policy),
      mode_(mode),
      attempts_(mode == ThinkingMode::FastOnly ? (configured > 0 ? 1 : 0)
                                               : configured),
      signals_(signals),
      context_(context) {
    signals_.attempts_planned =
        static_cast<std::size_t>(attempts_ < 0 ? 0 : attempts_);
}

AttemptAction AttemptGate::before(std::size_t index, std::uint64_t value) const {
    signals_.attempt_index = index;
    signals_.elapsed_ms = context_.clock.now_ms();
    if (mode_ == ThinkingMode::FastOnly) return AttemptAction::Proceed;
    const AttemptAction action = policy_.gate_attempt(signals_);
    if (action == AttemptAction::Skip) {
        context_.emit(TraceEventKind::ThinkingSwitch, "skip", value);
    } else if (action == AttemptAction::Stop) {
        context_.emit(TraceEventKind::ThinkingSwitch, "stop", value);
    }
    return action;
}

}  // namespace rustbrain::core
