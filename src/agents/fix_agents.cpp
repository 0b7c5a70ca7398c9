#include "agents/fix_agents.hpp"

#include "llm/simllm.hpp"

namespace rustbrain::agents {

FixAgent::FixAgent(llm::RuleFamily family) : family_(family) {}

const char* FixAgent::name() const {
    switch (family_) {
        case llm::RuleFamily::SafeReplacement: return "safe-replacement-agent";
        case llm::RuleFamily::Assertion: return "assertion-agent";
        case llm::RuleFamily::Modification: return "modification-agent";
    }
    return "?";
}

FixOutcome FixAgent::run(const std::string& code, const miri::Finding& finding,
                         const std::string& rule_id, AgentContext& context) const {
    llm::PromptSpec spec;
    spec.task = "apply_rule";
    spec.fields["agent"] = name();
    spec.fields["rule"] = rule_id;
    spec.fields["error_category"] = miri::ub_category_label(finding.category);
    spec.fields["error_message"] = finding.message;
    if (!context.feature_key.empty()) {
        spec.fields["feature_key"] = context.feature_key;
    }
    spec.exemplar_rules = context.exemplar_rules;
    spec.preferred_rules = context.preferred_rules;
    spec.code = code;

    const llm::ChatResponse response = context.call_llm(spec);

    FixOutcome outcome;
    outcome.code = llm::parse_code_block(response.content);
    if (outcome.code.empty()) {
        outcome.code = code;  // defensive: a silent model changes nothing
    }
    return outcome;
}

const FixAgent& safe_replacement_agent() {
    static const FixAgent agent(llm::RuleFamily::SafeReplacement);
    return agent;
}

const FixAgent& assertion_agent() {
    static const FixAgent agent(llm::RuleFamily::Assertion);
    return agent;
}

const FixAgent& modification_agent() {
    static const FixAgent agent(llm::RuleFamily::Modification);
    return agent;
}

const FixAgent& agent_for_rule(const std::string& rule_id) {
    const llm::RepairRule* rule = llm::find_rule(rule_id);
    if (rule == nullptr) {
        return modification_agent();
    }
    switch (rule->family) {
        case llm::RuleFamily::SafeReplacement: return safe_replacement_agent();
        case llm::RuleFamily::Assertion: return assertion_agent();
        case llm::RuleFamily::Modification: return modification_agent();
    }
    return modification_agent();
}

}  // namespace rustbrain::agents
