#include "core/trace.hpp"

#include "core/repair_engine.hpp"

namespace rustbrain::core {

const char* trace_event_kind_name(TraceEventKind kind) {
    switch (kind) {
        case TraceEventKind::StageEnter: return "stage_enter";
        case TraceEventKind::StageExit: return "stage_exit";
        case TraceEventKind::LlmCall: return "llm_call";
        case TraceEventKind::Verify: return "verify";
        case TraceEventKind::StepExecuted: return "step_executed";
        case TraceEventKind::StepVerified: return "step_verified";
        case TraceEventKind::KbConsult: return "kb_consult";
        case TraceEventKind::KbSkip: return "kb_skip";
        case TraceEventKind::Rollback: return "rollback";
        case TraceEventKind::SolutionsGenerated: return "solutions_generated";
        case TraceEventKind::ThinkingSwitch: return "thinking_switch";
        case TraceEventKind::Screen: return "screen";
        case TraceEventKind::ServiceQueue: return "service_queue";
        case TraceEventKind::ServiceComplete: return "service_complete";
    }
    return "?";
}

void TraceStats::on_event(const TraceEvent& event) {
    CaseResult& r = result_;
    switch (event.kind) {
        case TraceEventKind::LlmCall:
            ++r.llm_calls;
            break;
        case TraceEventKind::StepExecuted:
            ++r.steps_executed;
            break;
        case TraceEventKind::StepVerified:
            r.error_trajectory.push_back(static_cast<std::size_t>(event.value));
            break;
        case TraceEventKind::KbConsult:
            r.kb_consulted = true;
            break;
        case TraceEventKind::KbSkip:
            r.kb_skipped_by_feedback = true;
            break;
        case TraceEventKind::Rollback:
            ++r.rollbacks;
            break;
        case TraceEventKind::SolutionsGenerated:
            r.solutions_generated = static_cast<int>(event.value);
            break;
        case TraceEventKind::ThinkingSwitch:
            ++r.thinking_switches;
            if (event.label == "escalate") ++r.escalations;
            if (event.label == "stop") ++r.early_stops;
            if (event.label == "skip") ++r.attempts_skipped;
            break;
        case TraceEventKind::Screen:
            ++r.screens;
            if (event.label == "proven-safe") ++r.screen_proven_safe;
            if (event.label == "likely-ub") ++r.screen_likely_ub;
            if (event.label == "unknown") ++r.screen_unknown;
            break;
        case TraceEventKind::StageEnter:
        case TraceEventKind::StageExit:
        case TraceEventKind::Verify:
        case TraceEventKind::ServiceQueue:
        case TraceEventKind::ServiceComplete:
            break;
    }
}

std::size_t TraceRecorder::count(TraceEventKind kind) const {
    std::size_t total = 0;
    for (const TraceEvent& event : events_) {
        if (event.kind == kind) ++total;
    }
    return total;
}

}  // namespace rustbrain::core
