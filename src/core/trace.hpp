// TraceSink — structured per-case repair telemetry.
//
// Fast/slow thinking, the agents and the baselines emit typed events
// (stage enter/exit, LLM calls, verification runs, KB consultations,
// rollbacks) instead of bumping ad-hoc counters. Each repair session
// (core::LlmEngine) attaches a TraceStats that tallies the events straight
// into the CaseResult being built, so the trace is the single source for
// every statistic in CaseResult and no engine copies a counter by hand.
// Callers can attach their own sink (via RepairEngine::set_trace_sink or
// EngineBuildContext::trace) to observe a repair live or record it for
// inspection. Emission never consumes randomness or virtual time, so
// tracing cannot perturb results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rustbrain::core {

struct CaseResult;

enum class TraceEventKind {
    StageEnter,          // label = stage name
    StageExit,           // label = stage name
    LlmCall,             // label = prompt task, value = latency charged (us)
    Verify,              // any MiriLite run; value = error count
    StepExecuted,        // one slow-thinking/baseline repair step; label = rule
    StepVerified,        // post-step verification; value = error count
    KbConsult,           // knowledge base consulted; value = exemplar count
    KbSkip,              // consultation skipped (feedback confidence)
    Rollback,            // a rollback was performed
    SolutionsGenerated,  // value = candidate solution count
    ThinkingSwitch,      // a ThinkingPolicy decision; label = decision
                         // ("fast-only", "escalate", "skip", "stop",
                         // "continue", "steps"), value = attempt index or
                         // granted steps
    Screen,              // a static pre-screening verdict; label = verdict
                         // ("proven-safe", "likely-ub", "unknown"),
                         // value = abstract ops spent
    ServiceQueue,        // serve::RepairService dequeued a request;
                         // label = engine id, value = queue wait (us)
    ServiceComplete,     // serve::RepairService finished a request;
                         // label = case id, value = total service time (us)
};

const char* trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
    TraceEventKind kind = TraceEventKind::StageEnter;
    std::string label;
    std::uint64_t value = 0;
    double clock_ms = 0.0;  // virtual timestamp at emission
};

class TraceSink {
  public:
    virtual ~TraceSink() = default;
    virtual void on_event(const TraceEvent& event) = 0;
};

/// Tallies events into the CaseResult counters they report: LlmCall,
/// StepExecuted and Rollback count up; StepVerified appends to the error
/// trajectory; KbConsult/KbSkip set their flags; SolutionsGenerated keeps
/// the most recent count (a KB-sharpened regeneration supersedes the first
/// pass); ThinkingSwitch and Screen count every decision or verdict plus
/// the subset their label names. One per repair.
class TraceStats final : public TraceSink {
  public:
    explicit TraceStats(CaseResult& result) : result_(result) {}
    void on_event(const TraceEvent& event) override;

  private:
    CaseResult& result_;
};

/// Stores every event verbatim (tests, inspection tools).
class TraceRecorder final : public TraceSink {
  public:
    void on_event(const TraceEvent& event) override { events_.push_back(event); }
    [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
    [[nodiscard]] std::size_t count(TraceEventKind kind) const;

  private:
    std::vector<TraceEvent> events_;
};

/// Forwards to up to two sinks (either may be null): the session's
/// TraceStats plus whatever the caller attached.
class TraceTee final : public TraceSink {
  public:
    TraceTee(TraceSink* first, TraceSink* second)
        : first_(first), second_(second) {}
    void on_event(const TraceEvent& event) override {
        if (first_ != nullptr) first_->on_event(event);
        if (second_ != nullptr) second_->on_event(event);
    }

  private:
    TraceSink* first_;
    TraceSink* second_;
};

}  // namespace rustbrain::core
