#include "baselines/standalone_llm.hpp"

#include <utility>

#include "dataset/semantic.hpp"
#include "llm/simllm.hpp"
#include "support/strings.hpp"

namespace rustbrain::baselines {

StandaloneLlmRepair::StandaloneLlmRepair(
    StandaloneConfig config, llm::BackendFactory backend_factory,
    std::shared_ptr<const verify::Oracle> oracle)
    : LlmEngine(core::llm_settings(config), "solo:",
                std::move(backend_factory), std::move(oracle)),
      config_(std::move(config)) {}

std::string StandaloneLlmRepair::config_summary() const {
    return "model=" + config_.model +
           " temperature=" + support::format_double(config_.temperature, 2) +
           " attempts=" + std::to_string(config_.attempts) +
           " policy=" + policy().descriptor() +
           " seed=" + std::to_string(config_.seed);
}

core::CaseResult StandaloneLlmRepair::repair(const dataset::UbCase& ub_case) {
    Session session(*this, ub_case);
    core::CaseResult& result = session.result;
    agents::AgentContext& context = session.context;

    const miri::MiriReport initial = context.verify(ub_case.buggy_source);
    if (initial.passed()) {
        result.pass = true;
        result.exec = true;
        return session.finish();
    }
    const miri::Finding& finding = initial.findings.front();
    const std::size_t initial_errors = initial.error_count();

    // The decision seam the engines share: the policy sees the attempt
    // loop as a one-solution-per-attempt ranking.
    core::PolicySignals signals;
    signals.solution_count = static_cast<std::size_t>(
        config_.attempts < 0 ? 0 : config_.attempts);
    signals.initial_error_count = initial_errors;
    signals.error_trajectory = &result.error_trajectory;
    context.signals = &signals;
    const core::ThinkingMode mode = core::choose_mode(policy(), signals, context);
    const core::AttemptGate gate(policy(), mode, config_.attempts, signals,
                                 context);

    std::string current = ub_case.buggy_source;
    for (int attempt = 0; attempt < gate.attempts(); ++attempt) {
        const auto index = static_cast<std::size_t>(attempt);
        const core::AttemptAction action = gate.before(index, index);
        if (action == core::AttemptAction::Skip) continue;
        if (action == core::AttemptAction::Stop) break;
        // The bare model picks its own strategy (one candidate, no features,
        // no hints) and applies it in the same breath.
        llm::PromptSpec generate;
        generate.task = "generate_solutions";
        generate.fields["error_category"] =
            miri::ub_category_label(finding.category);
        generate.fields["error_message"] = finding.message;
        generate.fields["count"] = "1";
        generate.fields["difficulty"] = std::to_string(ub_case.difficulty);
        generate.code = current;
        const auto idea = context.call_llm(generate);
        const auto rules = llm::parse_solution_lines(idea.content);
        if (rules.empty()) break;

        llm::PromptSpec apply;
        apply.task = "apply_rule";
        apply.fields["rule"] = rules.front();
        apply.fields["error_category"] =
            miri::ub_category_label(finding.category);
        apply.fields["error_message"] = finding.message;
        apply.code = current;
        const auto patched = context.call_llm(apply);
        const std::string candidate = llm::parse_code_block(patched.content);

        context.emit(core::TraceEventKind::StepExecuted, rules.front());
        const miri::MiriReport report = context.verify(candidate);
        context.emit(core::TraceEventKind::StepVerified, rules.front(),
                     report.error_count());
        if (report.error_count() > initial_errors) signals.regression_seen = true;
        if (report.passed()) {
            result.pass = true;
            result.exec =
                dataset::judge_semantics(candidate, ub_case, oracle())
                    .acceptable();
            result.winning_rule = rules.front();
            result.final_source = candidate;
            break;
        }
        // No rollback: the (possibly worse) code is what the next attempt
        // starts from, exactly the failure mode RustBrain's rollback fixes.
        current = candidate;
    }
    return session.finish();
}

}  // namespace rustbrain::baselines
