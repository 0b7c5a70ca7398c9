#include "baselines/fixed_pipeline.hpp"

#include <utility>

#include "dataset/semantic.hpp"
#include "llm/rules.hpp"
#include "llm/simllm.hpp"
#include "support/strings.hpp"

namespace rustbrain::baselines {

FixedPipelineRepair::FixedPipelineRepair(
    FixedPipelineConfig config, llm::BackendFactory backend_factory,
    std::shared_ptr<const verify::Oracle> oracle)
    : LlmEngine(core::llm_settings(config), "fixed:",
                std::move(backend_factory), std::move(oracle)),
      config_(std::move(config)) {}

std::string FixedPipelineRepair::config_summary() const {
    return "model=" + config_.model +
           " temperature=" + support::format_double(config_.temperature, 2) +
           " max_iterations=" + std::to_string(config_.max_iterations) +
           " policy=" + policy().descriptor() +
           " seed=" + std::to_string(config_.seed);
}

core::CaseResult FixedPipelineRepair::repair(const dataset::UbCase& ub_case) {
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

    // The pattern store: a fixed ordered step list per error category. The
    // pipeline always walks it in the same order — the rigidity the paper
    // criticizes ("numerous generic steps ... unnecessary complexity").
    // RustAssistant's store was built for rustc error codes, not UB shapes,
    // so its ordering is generic: modelled here by walking the category's
    // rules in reverse registration order (assertion-style generic patches
    // first, shape-specific semantic fixes last).
    std::vector<std::string> fixed_steps;
    for (const llm::RepairRule* rule :
         llm::rules_for_category(finding.category)) {
        fixed_steps.insert(fixed_steps.begin(), rule->id);
    }
    if (fixed_steps.empty()) return session.finish();

    // The decision seam the engines share: the policy sees the fixed step
    // walk as the attempt loop.
    core::PolicySignals signals;
    signals.solution_count = fixed_steps.size();
    signals.initial_error_count = initial_errors;
    signals.error_trajectory = &result.error_trajectory;
    context.signals = &signals;
    const core::ThinkingMode mode = core::choose_mode(policy(), signals, context);
    const core::AttemptGate gate(policy(), mode, config_.max_iterations, signals,
                                 context);

    std::string current = ub_case.buggy_source;
    for (std::size_t step = 0; step < fixed_steps.size() &&
                               static_cast<int>(step) < gate.attempts();
         ++step) {
        const core::AttemptAction action = gate.before(step, step);
        if (action == core::AttemptAction::Skip) continue;
        if (action == core::AttemptAction::Stop) break;
        llm::PromptSpec apply;
        apply.task = "apply_rule";
        apply.fields["rule"] = fixed_steps[step];
        apply.fields["error_category"] =
            miri::ub_category_label(finding.category);
        apply.fields["error_message"] = finding.message;
        apply.code = current;
        const auto patched = context.call_llm(apply);
        const std::string candidate = llm::parse_code_block(patched.content);

        context.emit(core::TraceEventKind::StepExecuted, fixed_steps[step]);
        const miri::MiriReport report = context.verify(candidate);
        context.emit(core::TraceEventKind::StepVerified, fixed_steps[step],
                     report.error_count());

        if (report.passed()) {
            result.pass = true;
            result.exec =
                dataset::judge_semantics(candidate, ub_case, oracle())
                    .acceptable();
            result.winning_rule = fixed_steps[step];
            result.final_source = candidate;
            break;
        }
        if (report.error_count() > initial_errors) {
            signals.regression_seen = true;
            // Full rollback to the initial state (Fig 5a): every partial
            // correction is discarded and the restart is charged in full.
            session.clock.charge("rollback", 400.0);
            context.emit(core::TraceEventKind::Rollback, fixed_steps[step],
                         initial_errors);
            current = ub_case.buggy_source;
        } else {
            current = candidate;
        }
    }
    return session.finish();
}

}  // namespace rustbrain::baselines
