#include "miri/mirilite.hpp"

#include <set>

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

    const std::vector<std::vector<std::int64_t>> runs =
        input_sets.empty() ? std::vector<std::vector<std::int64_t>>{{}}
                           : input_sets;

    std::set<std::string> seen;
    for (const auto& inputs : runs) {
        Interpreter interp(checked, inputs, limits_);
        RunResult result = interp.run();
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding && seen.insert(result.finding->key()).second) {
            report.findings.push_back(*result.finding);
        }
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
