#include "kb/seed.hpp"

#include "analysis/prune.hpp"
#include "dataset/semantic.hpp"
#include "llm/rules.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::kb {

SeedStats seed_from_corpus(const dataset::Corpus& corpus, KnowledgeBase& kb) {
    SeedStats stats;
    const verify::Oracle& oracle = verify::Oracle::shared_default();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        ++stats.cases_processed;
        // compile() shares the parsed program (and any earlier validation's
        // front-end work) with every later verification of the same source.
        const auto compiled = oracle.compile(ub_case.buggy_source);
        if (compiled->front_end ==
            verify::CompiledProgram::FrontEnd::ParseError) {
            continue;
        }
        const miri::MiriReport report =
            oracle.test_source(ub_case.buggy_source, ub_case.inputs);
        if (report.findings.empty()) continue;
        const miri::Finding& finding = report.findings.front();
        const lang::Program& program = compiled->program;

        KbEntry entry;
        entry.source_hint = ub_case.id;
        entry.category = ub_case.category;
        // Not compiled->kb_probe(): seeding runs on the process-wide Oracle,
        // whose entries would pin the memo for good, while repair-time
        // consults usually run on their own Oracle and never read it.
        entry.vector = analysis::probe_ast(program).vector;

        for (const llm::RepairRule* rule :
             llm::rules_for_category(ub_case.category)) {
            const auto patched = rule->apply(program, finding);
            if (!patched) continue;
            const auto verdict =
                dataset::judge_semantics(*patched, ub_case, oracle);
            if (verdict.acceptable()) {
                entry.rule_ids.push_back(rule->id);
                ++stats.rules_verified;
            }
        }
        if (!entry.rule_ids.empty()) {
            kb.add(std::move(entry));
            ++stats.entries_added;
        }
    }
    return stats;
}

}  // namespace rustbrain::kb
