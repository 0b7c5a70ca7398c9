#include "core/rustbrain.hpp"

#include <utility>

#include "agents/abstract_reasoning_agent.hpp"
#include "core/fast_thinking.hpp"
#include "core/slow_thinking.hpp"
#include "dataset/semantic.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rustbrain::core {

RustBrain::RustBrain(RustBrainConfig config, const kb::KnowledgeBase* knowledge_base,
                     FeedbackStore* feedback, llm::BackendFactory backend_factory,
                     std::shared_ptr<const verify::Oracle> oracle)
    : LlmEngine(llm_settings(config), "", std::move(backend_factory),
                std::move(oracle)),
      config_(std::move(config)),
      knowledge_base_(knowledge_base),
      feedback_(feedback) {}

std::string RustBrain::config_summary() const {
    std::string summary = "model=" + config_.model;
    summary += " temperature=" + support::format_double(config_.temperature, 2);
    summary += std::string(" knowledge=") +
               (config_.use_knowledge_base && knowledge_base_ != nullptr ? "on"
                                                                         : "off");
    summary += std::string(" feedback=") +
               (config_.use_feedback && feedback_ != nullptr ? "on" : "off");
    summary +=
        std::string(" rollback=") + (config_.use_adaptive_rollback ? "on" : "off");
    summary +=
        std::string(" features=") + (config_.use_feature_extraction ? "on" : "off");
    summary += " max_solutions=" + std::to_string(config_.max_solutions);
    summary += " policy=" + policy().descriptor();
    summary += " seed=" + std::to_string(config_.seed);
    return summary;
}

CaseResult RustBrain::repair(const dataset::UbCase& ub_case) {
    Session session(*this, ub_case);
    CaseResult& result = session.result;
    support::SimClock& clock = session.clock;
    agents::AgentContext& context = session.context;
    const verify::Oracle& verifier = oracle();
    const ThinkingPolicy& policy = this->policy();
    FeedbackStore* const feedback = config_.use_feedback ? feedback_ : nullptr;

    PolicySignals signals;
    context.knowledge_base =
        config_.use_knowledge_base ? knowledge_base_ : nullptr;
    context.case_hint = ub_case.id;
    context.signals = &signals;

    FastThinking fast_stage(config_.use_feature_extraction, config_.max_solutions);
    SlowThinkingOptions slow_options;
    slow_options.use_adaptive_rollback = config_.use_adaptive_rollback;
    slow_options.max_steps_per_solution = config_.max_steps_per_solution;
    slow_options.policy = &policy;
    SlowThinking slow_stage(slow_options);

    // --- Fast thinking (F1 + features) -------------------------------------
    FastThinkingResult fast = fast_stage.run(
        ub_case.buggy_source, ub_case.difficulty, feedback, context);
    if (fast.already_clean) {
        result.pass = true;
        result.exec = true;
        result.final_source = ub_case.buggy_source;
        return session.finish();
    }

    // --- The thinking switch ------------------------------------------------
    // Self-learning shortcut: once feedback is confident about this error
    // signature, skip the (expensive) KB lookup — the paper's reduced-KB-
    // dependence effect. The confidence also feeds the policy's signals.
    const bool feedback_known = feedback != nullptr && !fast.feature_key.empty();
    const bool feedback_confident =
        feedback_known && feedback->is_confident(fast.feature_key);
    signals.feedback_confident = feedback_confident;
    signals.feedback_score =
        feedback_known ? feedback->best_score(fast.feature_key) : 0.0;
    signals.elapsed_ms = clock.now_ms();

    const ThinkingMode mode = choose_mode(policy, signals, context);

    // --- Abstract reasoning: knowledge-base consultation --------------------
    bool kb_skip_emitted = false;
    const auto consult_knowledge_base = [&] {
        if (context.knowledge_base != nullptr && !feedback_confident) {
            agents::AbstractReasoningAgent reasoning;
            const agents::ReasoningResult consult = reasoning.consult(
                ub_case.buggy_source, fast.finding.category, context);
            context.exemplar_rules = consult.exemplar_rules;
            context.emit(TraceEventKind::KbConsult, "",
                         static_cast<std::uint64_t>(consult.exemplar_rules.size()));
            if (!consult.exemplar_rules.empty()) {
                // Exemplars sharpen generation: regenerate solutions with them.
                fast = fast_stage.run(ub_case.buggy_source, ub_case.difficulty,
                                      feedback, context);
            }
        } else if (feedback_confident && !kb_skip_emitted) {
            kb_skip_emitted = true;
            context.emit(TraceEventKind::KbSkip);
        }
    };

    // --- Slow thinking --------------------------------------------------
    support::Rng judge_rng(
        support::derive_seed(config_.seed, "judge:" + ub_case.id));
    const SemanticOracle oracle = [&](const std::string& candidate) {
        // Judging against the acceptability benchmark costs evaluation time.
        clock.charge("eval", 60.0);
        if (dataset::judge_semantics(candidate, ub_case, verifier)
                .acceptable()) {
            return true;
        }
        // The internal judgment is imperfect: with some probability a
        // divergent fix is approved and refinement stops (the harness still
        // scores it exec=false). Retrieved exemplars sharpen the judgment —
        // similar verified fixes give the comparison a concrete reference.
        const double error = context.exemplar_rules.empty()
                                 ? config_.internal_judge_error
                                 : config_.internal_judge_error * 0.85;
        return judge_rng.chance(error);
    };

    SlowThinkingResult slow;
    if (mode == ThinkingMode::Escalate) {
        consult_knowledge_base();
        slow = slow_stage.run(ub_case.buggy_source, fast, oracle, feedback,
                              context, ThinkingMode::Escalate);
    } else {
        // Trust the intuition: apply the top-ranked solution once. The
        // intuition arm skips abstract reasoning entirely; when feedback
        // confidence is what bought the shortcut, the skipped lookup is
        // still recorded (the paper's reduced-KB-dependence stat).
        if (feedback_confident) {
            kb_skip_emitted = true;
            context.emit(TraceEventKind::KbSkip);
        }
        // If the shortcut fails, the policy may escalate into the full
        // loop after all (the guarded fast path of feedback-guided
        // switching).
        slow = slow_stage.run(ub_case.buggy_source, fast, oracle, feedback,
                              context, ThinkingMode::FastOnly);
        if (!(slow.pass && slow.acceptable)) {
            // The stage's result was moved into `slow`; repoint the
            // trajectory signals at the live vectors before the policy
            // reads them.
            signals.error_trajectory = &slow.error_trajectory;
            signals.attempt_triplets = &slow.attempt_triplets;
            signals.elapsed_ms = clock.now_ms();
            if (policy.escalate_on_failure(signals)) {
                context.emit(TraceEventKind::ThinkingSwitch, "escalate");
                consult_knowledge_base();
                const SlowThinkingResult full =
                    slow_stage.run(ub_case.buggy_source, fast, oracle, feedback,
                                   context, ThinkingMode::Escalate);
                // Prefer the escalated outcome unless the probe already
                // found a Miri-clean fallback the full loop could not.
                if (full.pass || !slow.pass) slow = full;
            }
        }
    }

    result.pass = slow.pass;
    // The harness's exact semantic verdict (the paper's exec metric).
    result.exec =
        slow.pass && !slow.final_source.empty() &&
        dataset::judge_semantics(slow.final_source, ub_case, verifier)
            .acceptable();
    result.winning_rule = slow.winning_rule;
    result.final_source = slow.final_source;
    return session.finish();
}

}  // namespace rustbrain::core
