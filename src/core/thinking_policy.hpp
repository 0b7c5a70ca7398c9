// ThinkingPolicy — the fast↔slow switch as a pluggable strategy.
//
// The paper's core contribution is the *orchestration* of fast and slow
// thinking; this seam extracts that orchestration out of RustBrain::repair
// into a value the registry can build by string id, exactly the way
// core::EngineRegistry builds engines and gen::GeneratorRegistry builds
// case generators. A policy observes per-attempt signals (the fast-thinking
// solution ranking, FeedbackStore confidence for the extracted feature key,
// the per-step verification error trajectory, the accumulated overhead
// triplets) and answers the orchestrator's questions: run fast only or
// escalate to slow thinking, which solutions to attempt in what order,
// whether to skip or stop before an attempt, how many refinement steps to
// grant, and whether to keep executing after a success (ablation).
//
// Every decision hook defaults to the paper's fixed behavior, so the
// `paper` policy (the default everywhere) is bit-identical to the
// pre-policy orchestrator — asserted against pre-refactor goldens in
// tests/core_policy_test.cpp. Policies are stateless and const: every
// signal they act on arrives through PolicySignals, so one policy instance
// can serve any number of cases (and BatchRunner workers) without
// perturbing determinism.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/feedback.hpp"
#include "miri/finding.hpp"
#include "screen/screen.hpp"
#include "support/options.hpp"
#include "support/registry.hpp"

namespace rustbrain::core {

/// The orchestrator's first question once fast thinking has produced a
/// ranking: trust the intuition (apply the top solution once, no
/// refinement loop, no knowledge-base consultation) or escalate into the
/// full slow-thinking loop.
enum class ThinkingMode {
    FastOnly,
    Escalate,
};

/// Per-attempt gate, asked before each planned solution attempt.
enum class AttemptAction {
    Proceed,  // execute this attempt
    Skip,     // drop this attempt, move to the next planned one
    Stop,     // abandon the remaining attempts entirely
};

/// Everything a policy may observe, kept current by the stages as the
/// repair progresses (agents::AgentContext::signals points here).
struct PolicySignals {
    // Fast-thinking output (F1 + F2).
    std::size_t solution_count = 0;       // size of the fast ranking
    std::size_t initial_error_count = 0;  // F1's error count
    std::string feature_key;              // extracted feature signature

    // Feedback-store signals for feature_key (false/0 without a store).
    bool feedback_confident = false;  // FeedbackStore::is_confident
    double feedback_score = 0.0;      // best rule score for the key

    // Static pre-screening verdict from Oracle::screen, stamped by
    // AgentContext::verify on every verification of a policy whose
    // needs_screen_verdict() is true (most recent wins; screened stays
    // false for every other policy, and when the source never compiled).
    bool screened = false;
    screen::VerdictKind screen_verdict = screen::VerdictKind::Unknown;
    double screen_confidence = 0.0;
    // Pinned category; meaningful only when screen_verdict == LikelyUB.
    miri::UbCategory screen_category = miri::UbCategory::Panic;

    // UB categories each fast-thinking solution repairs, parallel to the
    // ranking (filled from the rule library by fast thinking; empty inner
    // vectors for rules without category tags).
    std::vector<std::vector<miri::UbCategory>> solution_categories;

    // Attempt-loop position.
    std::size_t attempt_index = 0;    // 0-based position in the plan
    std::size_t attempts_planned = 0;

    // Trajectories accumulated so far (may be null before slow thinking).
    const std::vector<std::size_t>* error_trajectory = nullptr;
    const std::vector<EvalTriplet>* attempt_triplets = nullptr;

    bool regression_seen = false;  // any step verified worse than initial
    double elapsed_ms = 0.0;       // virtual clock at the decision point
};

/// A switch strategy. All hooks are const (policies are stateless) and
/// every default reproduces the paper's fixed order, so subclasses only
/// override the decisions they actually change.
class ThinkingPolicy {
  public:
    virtual ~ThinkingPolicy() = default;

    /// Registry id ("paper", "feedback-guided", ...).
    [[nodiscard]] virtual std::string id() const = 0;

    /// Live knob values as "k=v k=v" ("" when the policy has none).
    [[nodiscard]] virtual std::string summary() const { return ""; }

    /// "id" or "id(k=v ...)" — what config_summary prints.
    [[nodiscard]] std::string descriptor() const;

    /// Does this policy read the screen_* signals? Only then do the
    /// engines ask the Oracle for a pre-screening verdict per verification.
    [[nodiscard]] virtual bool needs_screen_verdict() const { return false; }

    /// Asked once per case, after fast thinking found UB.
    [[nodiscard]] virtual ThinkingMode choose_mode(
        const PolicySignals& signals) const {
        (void)signals;
        return ThinkingMode::Escalate;
    }

    /// Asked after a FastOnly pass failed to produce an acceptable repair:
    /// escalate into the full slow loop after all? (signals.regression_seen
    /// reports whether the fast attempt made the error count worse.)
    [[nodiscard]] virtual bool escalate_on_failure(
        const PolicySignals& signals) const {
        (void)signals;
        return false;
    }

    /// Order in which to attempt the fast-thinking solutions, as indices
    /// into the ranking. Returning fewer indices skips the rest; the
    /// default is the model's ranking order, unabridged.
    [[nodiscard]] virtual std::vector<std::size_t> plan_attempts(
        const PolicySignals& signals) const;

    /// Asked before each planned attempt (Escalate mode only).
    [[nodiscard]] virtual AttemptAction gate_attempt(
        const PolicySignals& signals) const {
        (void)signals;
        return AttemptAction::Proceed;
    }

    /// Refinement steps granted for the next attempt. `configured_max` is
    /// the engine's max_steps_per_solution; the default grants exactly that.
    [[nodiscard]] virtual int refinement_steps(const PolicySignals& signals,
                                               int configured_max) const {
        (void)signals;
        return configured_max;
    }

    /// After an acceptable repair was found: keep executing the remaining
    /// attempts anyway? (The slow-all ablation measures what stopping
    /// early saves; the winner stays the first acceptable repair.)
    [[nodiscard]] virtual bool continue_after_success(
        const PolicySignals& signals) const {
        (void)signals;
        return false;
    }
};

/// The paper's fixed switch, shared: fast always generates, slow executes
/// every solution in ranking order, first acceptable repair wins.
const ThinkingPolicy& paper_thinking_policy();

/// PolicyRegistry — build any switch strategy from a string id + option
/// map, mirroring core::EngineRegistry. Unknown ids and unknown option
/// keys both throw std::invalid_argument with a message listing what IS
/// available, so a typo in a sweep config fails loudly instead of
/// silently running the default switch.
class PolicyRegistry
    : public support::Registry<std::shared_ptr<const ThinkingPolicy>(
          const support::OptionMap& options)> {
  public:
    PolicyRegistry() : Registry("policy") {}

    /// The six built-in strategies: paper (default), feedback-guided,
    /// screened, budget, fast-only, slow-all.
    static const PolicyRegistry& builtin();
};

/// Parse a policy spec — "id", "id,k=v,...", or "id;k=v;..." (';' lets the
/// spec travel inside an engine option map, whose entries are themselves
/// comma-separated: "policy=budget;ms=1500"). Empty spec means "paper".
/// Throws std::invalid_argument on unknown ids, unknown knobs, or junk.
std::shared_ptr<const ThinkingPolicy> parse_policy_spec(const std::string& spec);

/// Store a CLI policy spec ("id" or "id,k=v,...") as the single `policy`
/// entry of an engine option map: the spec's own commas become ';' so it
/// survives the map's comma-separated syntax (the --policy flag the
/// examples share). Validation happens when the engine is built.
void set_policy_option(support::OptionMap& options, const std::string& spec);

}  // namespace rustbrain::core
