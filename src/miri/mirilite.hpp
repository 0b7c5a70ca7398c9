// MiriLite — the reproduction's stand-in for the Miri UB detector.
//
// A "Miri test" in the paper means: run the program under the interpreter
// and report UB. Our driver additionally runs the program once per input
// vector (the dataset's semantic benchmark inputs) and aggregates distinct
// findings, which is what the repair loop consumes as its error count
// sequence N = {n_0, n_1, ...}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/finding.hpp"
#include "miri/interp.hpp"

namespace rustbrain::miri {

struct MiriReport {
    /// Distinct findings (deduplicated by category+message) across all runs.
    std::vector<Finding> findings;
    /// Observable output per input run (valid even when a run hit UB —
    /// output up to the failure point).
    std::vector<std::vector<std::string>> outputs;
    std::uint64_t total_steps = 0;

    [[nodiscard]] bool passed() const { return findings.empty(); }
    [[nodiscard]] std::size_t error_count() const { return findings.size(); }
    [[nodiscard]] bool has_category(UbCategory category) const;
    [[nodiscard]] std::string summary() const;
    /// Appends `finding` unless one of the same category and message is
    /// already kept (the few kept ones are compared in place).
    void add_distinct(const Finding& finding);
};

/// The input vectors a report runs: `input_sets`, or one shared empty
/// vector when there are none.
[[nodiscard]] const std::vector<std::vector<std::int64_t>>& input_runs(
    const std::vector<std::vector<std::int64_t>>& input_sets);

class MiriLite {
  public:
    explicit MiriLite(InterpLimits limits = {}) : limits_(limits) {}

    /// Type-check (CompileError findings on failure) then interpret the
    /// program once per input vector. An empty `input_sets` means one run
    /// with no inputs.
    [[nodiscard]] MiriReport test(const lang::Program& program,
                                  const std::vector<std::vector<std::int64_t>>&
                                      input_sets) const;

    /// Parse + test. Parse failures also come back as CompileError findings.
    [[nodiscard]] MiriReport test_source(
        const std::string& source,
        const std::vector<std::vector<std::int64_t>>& input_sets) const;

  private:
    InterpLimits limits_;
};

}  // namespace rustbrain::miri
