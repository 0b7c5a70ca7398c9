#include "agents/abstract_reasoning_agent.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "analysis/prune.hpp"
#include "lang/parser.hpp"
#include "llm/simllm.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::agents {

ReasoningResult AbstractReasoningAgent::consult(const std::string& code,
                                                miri::UbCategory category,
                                                AgentContext& context) const {
    ReasoningResult result;
    if (context.knowledge_base == nullptr || context.knowledge_base->empty()) {
        return result;
    }

    // 1. LLM-based AST extraction (the paper argues syn's tree is too noisy
    //    and semantically flat; the model's reconstruction is the input).
    llm::PromptSpec spec;
    spec.task = "extract_ast";
    spec.code = code;
    const llm::ChatResponse response = context.call_llm(spec);
    const std::string ast_source = llm::parse_code_block(response.content);

    // 2. Algorithm 1 pruning + vectorization (analysis::probe_ast). Most
    //    replies reproduce `code`, which fast thinking already compiled, so
    //    its probe is read off the cached program. A reply that differs is
    //    probed here and kept out of the program cache (nothing verifies
    //    it); one that fails to parse is extraction noise, and the raw code
    //    stands in for it.
    std::optional<analysis::AstProbe> reply_probe;
    if (ast_source != code) {
        if (const auto program = lang::try_parse(ast_source)) {
            reply_probe = analysis::probe_ast(*program);
        }
    }
    std::shared_ptr<const verify::CompiledProgram> compiled;
    if (!reply_probe) {
        compiled = verify::resolve(context.oracle).compile(code);
        if (compiled->front_end ==
            verify::CompiledProgram::FrontEnd::ParseError) {
            return result;
        }
    }
    const analysis::AstProbe& probe =
        reply_probe ? *reply_probe : compiled->kb_probe();
    result.retained_fraction = probe.retained_fraction;

    // 3. Similarity search scoped to the error category; the clock pays per
    //    KB entry (the paper's full scan), whatever the category index skips.
    context.clock.charge(
        "kb", 2200.0 + 24.0 * static_cast<double>(context.knowledge_base->size()));
    const auto hits = context.knowledge_base->query(probe.vector, 3, min_similarity_,
                                                    context.case_hint, category);
    result.hits = hits.size();
    for (const kb::KbHit& hit : hits) {
        result.best_similarity = std::max(result.best_similarity, hit.similarity);
        for (const std::string& rule : hit.entry->rule_ids) {
            if (std::find(result.exemplar_rules.begin(), result.exemplar_rules.end(),
                          rule) == result.exemplar_rules.end()) {
                result.exemplar_rules.push_back(rule);
            }
        }
    }
    return result;
}

}  // namespace rustbrain::agents
