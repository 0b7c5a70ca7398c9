#include "core/thinking_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/strings.hpp"

namespace rustbrain::core {

std::string ThinkingPolicy::descriptor() const {
    const std::string knobs = summary();
    return knobs.empty() ? id() : id() + "(" + knobs + ")";
}

std::vector<std::size_t> ThinkingPolicy::plan_attempts(
    const PolicySignals& signals) const {
    std::vector<std::size_t> order;
    order.reserve(signals.solution_count);
    for (std::size_t i = 0; i < signals.solution_count; ++i) order.push_back(i);
    return order;
}

namespace {

// ---------------------------------------------------------------------------
// The five built-in strategies
// ---------------------------------------------------------------------------

/// The paper's fixed switch: every default hook, verbatim.
class PaperPolicy final : public ThinkingPolicy {
  public:
    [[nodiscard]] std::string id() const override { return "paper"; }
};

/// AkiraRust-style feedback-guided switch: once the feedback store's best
/// rule for the extracted feature key clears the confidence threshold,
/// trust the intuition — run fast only (no KB consult, no deliberation
/// over the lower-ranked solutions; the top-ranked one keeps its full
/// refinement grant). The shortcut escalates into the full slow loop on
/// the first verify regression — evidence the intuition is actively
/// corrupting the code — while plain failures stay cheap, which is where
/// the confident repeats shed their overhead.
class FeedbackGuidedPolicy final : public ThinkingPolicy {
  public:
    explicit FeedbackGuidedPolicy(double threshold) : threshold_(threshold) {}

    [[nodiscard]] std::string id() const override { return "feedback-guided"; }
    [[nodiscard]] std::string summary() const override {
        return "threshold=" + support::format_double(threshold_, 1);
    }

    [[nodiscard]] ThinkingMode choose_mode(
        const PolicySignals& signals) const override {
        const bool confident =
            signals.feedback_confident && signals.feedback_score >= threshold_;
        return confident ? ThinkingMode::FastOnly : ThinkingMode::Escalate;
    }

    [[nodiscard]] bool escalate_on_failure(
        const PolicySignals& signals) const override {
        return signals.regression_seen;
    }

  private:
    double threshold_;
};

/// Screener-guided switch: the static pre-screener's verdict plays the
/// role the feedback store plays for feedback-guided, with one key
/// difference — it needs no warm-up, the signal exists from the very first
/// verification. A confident non-Unknown verdict means the case is
/// routine: ProvenSafe (the fix already verifies clean statically) and
/// LikelyUB (the category is statically pinned, so the top-ranked rule for
/// it is a strong bet) both shortcut to FastOnly. A static pin is weaker
/// evidence than a learned confident rule, though, so *any* fast-only
/// failure escalates into the full slow loop, not just regressions. When
/// LikelyUB pins the category, the attempt plan is stably reordered to put
/// solutions whose rules repair that category first.
class ScreenedPolicy final : public ThinkingPolicy {
  public:
    explicit ScreenedPolicy(double threshold) : threshold_(threshold) {}

    [[nodiscard]] std::string id() const override { return "screened"; }
    [[nodiscard]] std::string summary() const override {
        return "threshold=" + support::format_double(threshold_, 2);
    }
    [[nodiscard]] bool needs_screen_verdict() const override { return true; }

    [[nodiscard]] ThinkingMode choose_mode(
        const PolicySignals& signals) const override {
        const bool confident =
            signals.screened &&
            signals.screen_verdict != screen::VerdictKind::Unknown &&
            signals.screen_confidence >= threshold_;
        return confident ? ThinkingMode::FastOnly : ThinkingMode::Escalate;
    }

    [[nodiscard]] bool escalate_on_failure(
        const PolicySignals& signals) const override {
        (void)signals;
        return true;
    }

    [[nodiscard]] std::vector<std::size_t> plan_attempts(
        const PolicySignals& signals) const override {
        std::vector<std::size_t> order = ThinkingPolicy::plan_attempts(signals);
        if (!signals.screened ||
            signals.screen_verdict != screen::VerdictKind::LikelyUB) {
            return order;
        }
        const auto repairs_pinned_category = [&](std::size_t index) {
            if (index >= signals.solution_categories.size()) return false;
            const auto& categories = signals.solution_categories[index];
            return std::find(categories.begin(), categories.end(),
                             signals.screen_category) != categories.end();
        };
        // Stable: within each half the model's ranking order is preserved.
        std::stable_partition(order.begin(), order.end(),
                              repairs_pinned_category);
        return order;
    }

  private:
    double threshold_;
};

/// Overhead budget per case, in virtual ms: attempts stop once the case's
/// clock crosses the budget. The first attempt always runs (a budget that
/// forbids any repair at all measures nothing), so easy repairs land and
/// only the long refinement tails are cut.
class BudgetPolicy final : public ThinkingPolicy {
  public:
    explicit BudgetPolicy(double budget_ms) : budget_ms_(budget_ms) {}

    [[nodiscard]] std::string id() const override { return "budget"; }
    [[nodiscard]] std::string summary() const override {
        return "ms=" + support::format_double(budget_ms_, 0);
    }

    [[nodiscard]] AttemptAction gate_attempt(
        const PolicySignals& signals) const override {
        if (signals.attempt_index == 0) return AttemptAction::Proceed;
        return signals.elapsed_ms >= budget_ms_ ? AttemptAction::Stop
                                                : AttemptAction::Proceed;
    }

  private:
    double budget_ms_;
};

/// Ablation endpoint: pure intuition. The top-ranked solution is applied
/// exactly once; failures are final (no escalation, no refinement loop).
class FastOnlyPolicy final : public ThinkingPolicy {
  public:
    [[nodiscard]] std::string id() const override { return "fast-only"; }

    [[nodiscard]] ThinkingMode choose_mode(
        const PolicySignals& signals) const override {
        (void)signals;
        return ThinkingMode::FastOnly;
    }

    [[nodiscard]] int refinement_steps(const PolicySignals& signals,
                                       int configured_max) const override {
        (void)signals;
        return configured_max < 1 ? configured_max : 1;
    }
};

/// Ablation endpoint: exhaustive deliberation. Every generated solution is
/// executed in full even after an acceptable repair was found (the winner
/// stays the first success) — measures what early stopping saves.
class SlowAllPolicy final : public ThinkingPolicy {
  public:
    [[nodiscard]] std::string id() const override { return "slow-all"; }

    [[nodiscard]] bool continue_after_success(
        const PolicySignals& signals) const override {
        (void)signals;
        return true;
    }
};

}  // namespace

const ThinkingPolicy& paper_thinking_policy() {
    static const PaperPolicy policy;
    return policy;
}

// ---------------------------------------------------------------------------
// PolicyRegistry
// ---------------------------------------------------------------------------

void PolicyRegistry::add(Entry entry) {
    if (entries_.count(entry.id) != 0) {
        throw std::invalid_argument("duplicate policy id: " + entry.id);
    }
    entries_.emplace(entry.id, std::move(entry));
}

bool PolicyRegistry::contains(const std::string& id) const {
    return entries_.count(id) != 0;
}

const PolicyRegistry::Entry* PolicyRegistry::find(const std::string& id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> PolicyRegistry::ids() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) out.push_back(id);
    return out;
}

std::string PolicyRegistry::help() const {
    std::string out;
    for (const auto& [id, entry] : entries_) {
        out += "  " + id + " — " + entry.description + "\n";
    }
    return out;
}

std::shared_ptr<const ThinkingPolicy> PolicyRegistry::build(
    const std::string& id, const support::OptionMap& options) const {
    const Entry* entry = find(id);
    if (entry == nullptr) {
        std::string message = "unknown policy id '" + id + "'; available:";
        for (const std::string& known : ids()) message += ' ' + known;
        throw std::invalid_argument(message);
    }
    return entry->build(options);
}

const PolicyRegistry& PolicyRegistry::builtin() {
    static const PolicyRegistry registry = [] {
        PolicyRegistry r;
        r.add({"paper",
               "the paper's fixed switch: fast generates, slow executes every "
               "solution in order (the default; bit-identical to the "
               "pre-policy orchestrator)",
               [](const support::OptionMap& options) {
                   options.check_known({});
                   return std::make_shared<const PaperPolicy>();
               }});
        r.add({"feedback-guided",
               "skip slow thinking when the feedback store's best rule for "
               "the feature key clears the confidence threshold; escalate on "
               "the first verify regression (knob: threshold)",
               [](const support::OptionMap& options) {
                   options.check_known({"threshold"});
                   return std::make_shared<const FeedbackGuidedPolicy>(
                       options.get_double("threshold", 4.0));
               }});
        r.add({"screened",
               "trust the static pre-screener: fast-only when the screening "
               "verdict clears the confidence threshold; a LikelyUB verdict "
               "reorders attempts to category-matching rules first; any "
               "fast-only failure escalates (knob: threshold)",
               [](const support::OptionMap& options) {
                   options.check_known({"threshold"});
                   return std::make_shared<const ScreenedPolicy>(
                       options.get_double("threshold", 0.75));
               }});
        r.add({"budget",
               "per-case overhead budget in virtual ms; after the first "
               "attempt, further attempts stop once the budget is exhausted "
               "(knob: ms)",
               [](const support::OptionMap& options) {
                   options.check_known({"ms"});
                   return std::make_shared<const BudgetPolicy>(
                       options.get_double("ms", 30000.0));
               }});
        r.add({"fast-only",
               "ablation endpoint: apply the top fast-thinking solution once, "
               "never escalate",
               [](const support::OptionMap& options) {
                   options.check_known({});
                   return std::make_shared<const FastOnlyPolicy>();
               }});
        r.add({"slow-all",
               "ablation endpoint: execute every solution in full even after "
               "a success (first success still wins)",
               [](const support::OptionMap& options) {
                   options.check_known({});
                   return std::make_shared<const SlowAllPolicy>();
               }});
        return r;
    }();
    return registry;
}

std::shared_ptr<const ThinkingPolicy> parse_policy_spec(
    const std::string& spec) {
    // ';' is an alias for ',' so a knobbed spec can ride inside an engine
    // option map ("policy=budget;ms=1500").
    const std::string normalized = support::replace_all(spec, ";", ",");
    std::string id = normalized;
    std::string knob_spec;
    const std::size_t comma = normalized.find(',');
    if (comma != std::string::npos) {
        id = normalized.substr(0, comma);
        knob_spec = normalized.substr(comma + 1);
    }
    id = std::string(support::trim(id));
    if (id.empty()) id = "paper";
    return PolicyRegistry::builtin().build(id,
                                           support::OptionMap::parse(knob_spec));
}

void set_policy_option(support::OptionMap& options, const std::string& spec) {
    options.values["policy"] = support::replace_all(spec, ",", ";");
}

}  // namespace rustbrain::core
