#include "llm/simllm.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/features.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "llm/hallucinate.hpp"
#include "llm/rules.hpp"
#include "support/hashing.hpp"
#include "support/strings.hpp"

namespace rustbrain::llm {

namespace {

miri::UbCategory category_from_label(const std::string& label) {
    for (miri::UbCategory category : miri::all_ub_categories()) {
        if (label == miri::ub_category_label(category)) return category;
    }
    if (label == "compile.error") return miri::UbCategory::CompileError;
    return miri::UbCategory::Panic;
}

int field_int(const PromptSpec& spec, const std::string& key, int fallback) {
    auto it = spec.fields.find(key);
    if (it == spec.fields.end()) return fallback;
    try {
        return std::stoi(it->second);
    } catch (...) {
        return fallback;
    }
}

std::string field_str(const PromptSpec& spec, const std::string& key) {
    auto it = spec.fields.find(key);
    return it == spec.fields.end() ? "" : it->second;
}

}  // namespace

SimLLM::SimLLM(const ModelProfile& profile, std::uint64_t seed)
    : profile_(profile), session_base_(support::derive_seed(seed, profile.name)) {}

const lang::Program* SimLLM::parsed(const std::string& code) {
    if (memo_code_ != code) {
        memo_program_ = lang::try_parse(code);
        memo_code_ = code;
    }
    return memo_program_ ? &*memo_program_ : nullptr;
}

ChatResponse SimLLM::complete(const ChatRequest& request) {
    ++calls_;
    std::string prompt_text;
    for (const auto& message : request.messages) {
        prompt_text += message.content;
        prompt_text += '\n';
    }
    const PromptSpec spec = PromptSpec::parse(prompt_text);

    // The call's stream is derived from its full identity (session,
    // sequence, prompt) — the LlmBackend purity contract.
    const std::uint64_t prompt_seed =
        support::hash_combine(session_base_, support::fnv1a64(prompt_text));
    support::Rng rng(support::hash_combine(prompt_seed, request.sequence));
    // Retry fixation: a real model at low temperature nearly repeats itself
    // when re-prompted with identical text, so retrying a failing strategy
    // buys little (Fig 11's left flank); at mid/high temperature retries
    // genuinely resample. Collapsing onto the sequence-independent prompt
    // stream keeps the response a pure function of the call identity.
    const double repeat_probability =
        std::clamp(1.0 - 2.2 * request.temperature, 0.0, 0.95);
    if (rng.chance(repeat_probability)) {
        rng = support::Rng(prompt_seed);
    }

    std::string content;
    if (spec.task == "extract_features") {
        content = handle_extract_features(spec);
    } else if (spec.task == "generate_solutions") {
        content = handle_generate_solutions(spec, request.temperature, rng);
    } else if (spec.task == "apply_rule") {
        content = handle_apply_rule(spec, request.temperature, rng);
    } else if (spec.task == "extract_ast") {
        content = handle_extract_ast(spec, request.temperature, rng);
    } else {
        content = "I am not sure how to help with that task.";
    }

    ChatResponse response;
    response.content = std::move(content);
    response.prompt_tokens = estimate_tokens(prompt_text);
    response.completion_tokens = estimate_tokens(response.content);
    response.latency_ms = profile_.latency_for_tokens(response.prompt_tokens +
                                                      response.completion_tokens);
    return response;
}

// ---------------------------------------------------------------------------
// extract_features
// ---------------------------------------------------------------------------

std::string SimLLM::handle_extract_features(const PromptSpec& spec) {
    const lang::Program* program = parsed(spec.code);
    if (program == nullptr) {
        return "category: compile.error\nfeatures: unparseable";
    }
    miri::Finding finding;
    finding.category = category_from_label(field_str(spec, "error_category"));
    finding.message = field_str(spec, "error_message");
    const analysis::ErrorFeatures features =
        analysis::extract_features(*program, finding);
    std::string out = "category: ";
    out += miri::ub_category_label(features.category);
    out += "\nfeature_key: " + features.feedback_key();
    out += "\nfeatures: " + features.to_string();
    return out;
}

// ---------------------------------------------------------------------------
// generate_solutions
// ---------------------------------------------------------------------------

std::string SimLLM::handle_generate_solutions(const PromptSpec& spec,
                                              double temperature,
                                              support::Rng& rng) {
    const miri::UbCategory category =
        category_from_label(field_str(spec, "error_category"));
    const int difficulty = field_int(spec, "difficulty", 1);
    const int requested =
        std::clamp(field_int(spec, "count", 3), 1, 12);
    const bool has_features = spec.fields.count("feature_key") != 0 ||
                              spec.fields.count("features") != 0;

    // Good pool: feedback-preferred rules first (already validated on
    // similar errors), then KB exemplars, then the library's affinity rules.
    std::vector<std::string> good;
    auto push_unique = [&](const std::string& id) {
        if (find_rule(id) == nullptr) return;
        if (std::find(good.begin(), good.end(), id) == good.end()) {
            good.push_back(id);
        }
    };
    for (const auto& id : spec.preferred_rules) push_unique(id);
    for (const auto& id : spec.exemplar_rules) push_unique(id);
    for (const RepairRule* rule : rules_for_category(category)) {
        push_unique(rule->id);
    }

    std::vector<std::string> distractors;
    for (const RepairRule& rule : rule_library()) {
        if (std::find(good.begin(), good.end(), rule.id) == good.end()) {
            distractors.push_back(rule.id);
        }
    }

    const double competence = profile_.effective_competence(
        category, has_features, !spec.exemplar_rules.empty(),
        !spec.preferred_rules.empty(), difficulty);
    // Probability of reaching for an irrelevant strategy grows with
    // temperature and shrinks with competence.
    const double distractor_chance =
        std::clamp((1.0 - competence) * (0.35 + 0.8 * temperature), 0.0, 0.9);
    // Low temperature collapses sampling onto the top-ranked rule.
    const double spread = std::max(0.25, 2.2 * temperature);

    std::string out;
    int emitted = 0;
    const int budget =
        std::min(requested, std::max(profile_.max_candidates, 1) * 2);
    for (int i = 0; i < budget && emitted < requested; ++i) {
        std::string choice;
        if (!good.empty() && !rng.chance(distractor_chance)) {
            // Rank-weighted sample from the good pool; feedback-validated
            // rules carry extra mass (they already worked on similar code).
            std::vector<double> weights(good.size());
            for (std::size_t r = 0; r < good.size(); ++r) {
                weights[r] = std::exp(-static_cast<double>(r) / spread);
                if (std::find(spec.preferred_rules.begin(),
                              spec.preferred_rules.end(),
                              good[r]) != spec.preferred_rules.end()) {
                    weights[r] *= 3.0;
                }
            }
            choice = good[rng.sample_weighted(weights)];
        } else if (!distractors.empty()) {
            choice = distractors[rng.next_below(distractors.size())];
        } else if (!good.empty()) {
            choice = good[0];
        } else {
            break;
        }
        out += "solution: " + choice + "\n";
        ++emitted;
    }
    if (emitted == 0) {
        out = "solution: none\n";
    }
    return out;
}

// ---------------------------------------------------------------------------
// apply_rule
// ---------------------------------------------------------------------------

std::string SimLLM::handle_apply_rule(const PromptSpec& spec, double temperature,
                                      support::Rng& rng) {
    const lang::Program* program = parsed(spec.code);
    if (program == nullptr) {
        return "note: could not parse input\ncode:\n" + spec.code;
    }
    const std::string rule_id = field_str(spec, "rule");
    const RepairRule* rule = find_rule(rule_id);
    miri::Finding finding;
    finding.category = category_from_label(field_str(spec, "error_category"));
    finding.message = field_str(spec, "error_message");

    const double hallucination = profile_.hallucination_rate(temperature);

    std::optional<lang::Program> patched;
    if (rule != nullptr) {
        patched = rule->apply(*program, finding);
    }
    std::string note;
    if (!patched) {
        // The named strategy does not apply here. A real model often
        // improvises rather than admitting it: with the hallucination
        // probability it edits something anyway.
        if (rng.chance(std::min(0.9, hallucination * 2.5))) {
            lang::Program improvised = program->clone();
            const auto mutation = mutate_program(improvised, rng);
            if (mutation) {
                note = "note: improvised edit (" +
                       std::string(mutation_kind_name(*mutation)) + ")";
                patched = std::move(improvised);
            }
        }
        if (!patched) {
            return "note: rule not applicable, code unchanged\ncode:\n" + spec.code;
        }
    } else if (rng.chance(hallucination)) {
        // Correct rule, corrupted execution.
        const auto mutation = mutate_program(*patched, rng);
        if (mutation) {
            note = "note: patch applied (" +
                   std::string(mutation_kind_name(*mutation)) + " slipped in)";
        }
    }
    if (note.empty()) {
        note = "note: patch applied";
    }
    return note + "\ncode:\n" + lang::print_program(*patched);
}

// ---------------------------------------------------------------------------
// extract_ast
// ---------------------------------------------------------------------------

std::string SimLLM::handle_extract_ast(const PromptSpec& spec,
                                       double temperature, support::Rng& rng) {
    const lang::Program* program = parsed(spec.code);
    if (program == nullptr) {
        return "note: could not parse input\ncode:\n" + spec.code;
    }
    // LLM-based AST extraction preserves semantics but is imperfect: at
    // high temperature, stray edits creep into the reconstruction.
    if (rng.chance(profile_.hallucination_rate(temperature) * 0.5)) {
        lang::Program noisy = program->clone();
        support::Rng fork = rng.fork("ast-noise");
        mutate_program(noisy, fork);
        return "note: ast extracted\ncode:\n" + lang::print_program(noisy);
    }
    return "note: ast extracted\ncode:\n" + lang::print_program(*program);
}

// ---------------------------------------------------------------------------
// Response parsing (pipeline side)
// ---------------------------------------------------------------------------

std::vector<std::string> parse_solution_lines(const std::string& response) {
    std::vector<std::string> out;
    for (const auto& line : support::split(response, '\n')) {
        if (support::starts_with(line, "solution: ")) {
            const std::string id = line.substr(10);
            if (id != "none") out.push_back(id);
        }
    }
    return out;
}

std::string parse_code_block(const std::string& response) {
    const std::size_t marker = response.find("code:\n");
    if (marker == std::string::npos) {
        return response;
    }
    return response.substr(marker + 6);
}

}  // namespace rustbrain::llm
