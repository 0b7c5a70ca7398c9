// Abstract reasoning agent (paper §III-B3, Fig 6).
//
// Pipeline: ask the LLM to extract the AST (instead of a syn-style parser) →
// prune irrelevant nodes with Algorithm 1 → vectorize → query the knowledge
// base by cosine similarity → return the retrieved exemplar rules, which the
// fix agents splice into their prompts as few-shot guidance. A reply that
// reproduces the code reads the probe memoized on the code's compiled
// program (DESIGN.md §15).
#pragma once

#include <string>
#include <vector>

#include "agents/agent_context.hpp"

namespace rustbrain::agents {

struct ReasoningResult {
    std::vector<std::string> exemplar_rules;  // best-first, deduplicated
    double best_similarity = 0.0;
    std::size_t hits = 0;
    /// Fraction of AST nodes kept by Algorithm 1 (diagnostic).
    double retained_fraction = 1.0;
};

class AbstractReasoningAgent {
  public:
    /// Minimum cosine similarity for a KB hit to count as an exemplar.
    explicit AbstractReasoningAgent(double min_similarity = 0.60)
        : min_similarity_(min_similarity) {}

    /// `category` scopes retrieval to entries for the same error class.
    ReasoningResult consult(const std::string& code, miri::UbCategory category,
                            AgentContext& context) const;

  private:
    double min_similarity_;
};

}  // namespace rustbrain::agents
