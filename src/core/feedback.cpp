#include "core/feedback.hpp"

#include <algorithm>

namespace rustbrain::core {

double RuleOutcome::score() const {
    // Full successes dominate; accurate-but-unacceptable fixes count a
    // little (they at least silenced the UB); failures push down.
    return 2.0 * successes + 0.4 * partial - 1.0 * failures;
}

void FeedbackStore::record(const std::string& feature_key,
                           const std::string& rule_id, const EvalTriplet& triplet) {
    RuleOutcome& outcome = outcomes_[feature_key][rule_id];
    if (triplet.accuracy && triplet.acceptability) {
        ++outcome.successes;
    } else if (triplet.accuracy) {
        ++outcome.partial;
    } else {
        ++outcome.failures;
    }
    ++records_;
}

void FeedbackStore::absorb(const FeedbackStore& after,
                           const FeedbackStore& before) {
    for (const auto& [feature_key, rules] : after.outcomes_) {
        const auto prior_rules = before.outcomes_.find(feature_key);
        for (const auto& [rule_id, outcome] : rules) {
            RuleOutcome prior;
            if (prior_rules != before.outcomes_.end()) {
                const auto it = prior_rules->second.find(rule_id);
                if (it != prior_rules->second.end()) prior = it->second;
            }
            if (outcome.successes == prior.successes &&
                outcome.partial == prior.partial &&
                outcome.failures == prior.failures) {
                continue;
            }
            RuleOutcome& merged = outcomes_[feature_key][rule_id];
            merged.successes += outcome.successes - prior.successes;
            merged.partial += outcome.partial - prior.partial;
            merged.failures += outcome.failures - prior.failures;
        }
    }
    records_ += after.records_ - before.records_;
}

std::vector<std::string> FeedbackStore::preferred_rules(
    const std::string& feature_key, std::size_t max_rules) const {
    auto it = outcomes_.find(feature_key);
    if (it == outcomes_.end()) return {};
    std::vector<std::pair<std::string, double>> scored;
    for (const auto& [rule_id, outcome] : it->second) {
        if (outcome.score() > 0.0) {
            scored.emplace_back(rule_id, outcome.score());
        }
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    std::vector<std::string> out;
    for (const auto& [rule_id, score] : scored) {
        out.push_back(rule_id);
        if (out.size() >= max_rules) break;
    }
    return out;
}

double FeedbackStore::best_score(const std::string& feature_key) const {
    auto it = outcomes_.find(feature_key);
    if (it == outcomes_.end()) return 0.0;
    double best = 0.0;
    for (const auto& [rule_id, outcome] : it->second) {
        if (outcome.score() > best) best = outcome.score();
    }
    return best;
}

bool FeedbackStore::is_confident(const std::string& feature_key) const {
    auto it = outcomes_.find(feature_key);
    if (it == outcomes_.end()) return false;
    for (const auto& [rule_id, outcome] : it->second) {
        if (outcome.successes >= 2) return true;
    }
    return false;
}

}  // namespace rustbrain::core
