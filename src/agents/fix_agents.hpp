// The three error-fixing agents (paper §III-B1, prompts in Fig 4):
//   * safe-replacement agent — "Find Safe API with same functionality";
//   * assertion agent — "Pre-assertion added before UB is possible";
//   * modification agent — "Keep functionality and semantics, avoid UBs by
//     modification".
//
// Each agent executes one SolutionStep (a named rule of its family) by
// prompting the LLM to apply it; the returned code is whatever the model
// produced — possibly corrupted, possibly unchanged.
#pragma once

#include <optional>
#include <string>

#include "agents/agent_context.hpp"
#include "llm/rules.hpp"
#include "miri/finding.hpp"

namespace rustbrain::agents {

struct FixOutcome {
    std::string code;  // candidate program source after the step
};

class FixAgent {
  public:
    explicit FixAgent(llm::RuleFamily family);

    [[nodiscard]] llm::RuleFamily family() const { return family_; }
    [[nodiscard]] const char* name() const;

    /// Execute one step: ask the model to apply `rule_id` to `code` given
    /// the finding. Never fails — a confused model returns the input.
    FixOutcome run(const std::string& code, const miri::Finding& finding,
                   const std::string& rule_id, AgentContext& context) const;

  private:
    llm::RuleFamily family_;
};

/// The agent responsible for a rule (by its family); falls back to the
/// modification agent for unknown rules.
const FixAgent& agent_for_rule(const std::string& rule_id);
const FixAgent& safe_replacement_agent();
const FixAgent& assertion_agent();
const FixAgent& modification_agent();

}  // namespace rustbrain::agents
