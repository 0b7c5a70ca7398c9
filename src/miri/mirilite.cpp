#include "miri/mirilite.hpp"

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "support/diagnostics.hpp"

namespace rustbrain::miri {

bool MiriReport::has_category(UbCategory category) const {
    for (const auto& finding : findings) {
        if (finding.category == category) return true;
    }
    return false;
}

std::string MiriReport::summary() const {
    if (findings.empty()) {
        return "pass";
    }
    std::string out;
    for (const auto& finding : findings) {
        out += finding.to_string();
        out += '\n';
    }
    return out;
}

void MiriReport::add_distinct(const Finding& finding) {
    for (const Finding& kept : findings) {
        if (kept.category == finding.category && kept.message == finding.message) {
            return;
        }
    }
    findings.push_back(finding);
}

const std::vector<std::vector<std::int64_t>>& input_runs(
    const std::vector<std::vector<std::int64_t>>& input_sets) {
    static const std::vector<std::vector<std::int64_t>> kOneEmptyRun{{}};
    return input_sets.empty() ? kOneEmptyRun : input_sets;
}

MiriReport MiriLite::test(const lang::Program& program,
                          const std::vector<std::vector<std::int64_t>>& input_sets)
    const {
    MiriReport report;

    // The interpreter relies on type annotations; check a private clone so
    // callers' programs are never mutated behind their back.
    lang::Program checked = program.clone();
    std::string type_error;
    if (!lang::type_check(checked, &type_error)) {
        report.findings.push_back(
            Finding{UbCategory::CompileError,
                    support::cap_summary(std::move(type_error)), {}});
        return report;
    }

    for (const auto& inputs : input_runs(input_sets)) {
        Interpreter interp(checked, inputs, limits_);
        RunResult result = interp.run();
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding) report.add_distinct(*result.finding);
    }
    return report;
}

MiriReport MiriLite::test_source(
    const std::string& source,
    const std::vector<std::vector<std::int64_t>>& input_sets) const {
    std::string parse_error;
    auto program = lang::try_parse(source, &parse_error);
    if (!program) {
        MiriReport report;
        report.findings.push_back(
            Finding{UbCategory::CompileError,
                    support::cap_summary(std::move(parse_error)), {}});
        return report;
    }
    return test(*program, input_sets);
}

}  // namespace rustbrain::miri
