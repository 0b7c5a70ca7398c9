// The repair-rule library — the "knowledge" a code-repair LLM brings to
// unsafe-Rust UB fixing, reified as genuine AST transformations.
//
// Every rule is a *real* program transform with an applicability pattern:
// given the buggy program and the Miri finding, it either produces a patched
// program or declines (nullopt). Rules are deliberately generic over code
// shape (they pattern-match structure, never case ids), so knowledge-base
// retrieval of "which rule fixed a similar AST" carries real signal.
//
// SimLLM quality is expressed *around* this library: which rule a model
// selects (competence), whether the patch survives un-corrupted
// (hallucination), and how much exemplars/hints sharpen selection.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/finding.hpp"

namespace rustbrain::llm {

/// The paper's Principle-2 families (Fig 4's three prompt strategies).
enum class RuleFamily { SafeReplacement, Assertion, Modification };

struct RepairRule {
    std::string id;
    RuleFamily family = RuleFamily::Modification;
    /// UB categories this rule is a plausible fix for (affinity list —
    /// selection, not a hard gate).
    std::vector<miri::UbCategory> categories;
    std::function<std::optional<lang::Program>(const lang::Program&,
                                               const miri::Finding&)>
        apply;

    [[nodiscard]] bool applies_to(miri::UbCategory category) const;
};

const std::vector<RepairRule>& rule_library();
const RepairRule* find_rule(const std::string& id);
std::vector<const RepairRule*> rules_for_category(miri::UbCategory category);

// Rule groups, registered from two translation units.
std::vector<RepairRule> memory_rules();
std::vector<RepairRule> exec_rules();

}  // namespace rustbrain::llm
