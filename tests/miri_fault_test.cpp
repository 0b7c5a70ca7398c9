// MiriLite records faults instead of throwing them (DESIGN.md §19). This
// suite checks both halves of that contract on every tier:
//   - no run throws: every buggy and fixed program of the standard corpus
//     and the six step-limit tails run on the tree walk, the default
//     Oracle, vm::Vm and the screener (whatever its verdict) without a
//     C++ throw (throw_counter.cpp counts them);
//   - a recorded fault reports what an unwound one did: the first finding,
//     and the steps and output at the moment it was raised, although each
//     tier runs on to its next fault check. The expected reports below
//     were fingerprinted on the implementation that threw.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "miri/interp.hpp"
#include "miri/machine.hpp"
#include "screen/screen.hpp"
#include "throw_counter.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/vm.hpp"

namespace rustbrain::miri {
namespace {

using agreement::Inputs;
using throw_counter::Since;

struct Source {
    std::string text;
    Inputs inputs;
};

std::vector<Source> corpus_and_tails() {
    std::vector<Source> sources;
    const dataset::Corpus corpus = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        sources.push_back({ub_case.buggy_source, ub_case.inputs});
        sources.push_back({ub_case.reference_fix, ub_case.inputs});
    }
    for (const agreement::TailCase& tail : agreement::kStepLimitTails) {
        sources.push_back({tail.source, tail.inputs});
    }
    return sources;
}

TEST(MiriFaultTest, TheThrowCounterSeesAThrow) {
    // Without this the zero counts below would prove nothing.
    const Since since;
    try {
        throw std::runtime_error("counted");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(since.count(), 1u);
}

TEST(MiriFaultTest, NoRunThrowsOnAnyTier) {
    verify::OracleOptions options;
    options.caching = false;
    const verify::Oracle oracle(options);
    const InterpLimits limits;
    std::size_t runs = 0;
    std::size_t faulted_runs = 0;
    std::size_t screened_definite = 0;
    std::size_t screened_unknown = 0;
    for (const Source& source : corpus_and_tails()) {
        SCOPED_TRACE(source.text);
        const std::shared_ptr<const verify::CompiledProgram> compiled =
            oracle.compile(source.text);
        ASSERT_TRUE(compiled->ok()) << compiled->error;
        const vm::VmProgram& code = compiled->bytecode();
        const Inputs input_sets = source.inputs.empty() ? Inputs{{}} : source.inputs;
        for (const std::vector<std::int64_t>& inputs : input_sets) {
            ++runs;
            {
                const Since since;
                const RunResult result =
                    Interpreter(compiled->program, inputs, limits).run();
                EXPECT_EQ(since.count(), 0u) << "tree walk";
                if (result.finding) ++faulted_runs;
            }
            {
                const Since since;
                (void)vm::Vm(compiled->program, code, inputs, limits).run();
                EXPECT_EQ(since.count(), 0u) << "vm";
            }
        }
        {
            const Since since;
            (void)oracle.test_source(source.text, source.inputs);
            EXPECT_EQ(since.count(), 0u) << "default Oracle";
        }
        {
            // A screening stop ends the walk like a fault, so no verdict
            // throws: not a finding, not a clean run, not an Unknown.
            const Since since;
            const screen::ScreenVerdict verdict = screen::screen_program(
                compiled->program, source.inputs, limits);
            EXPECT_EQ(since.count(), 0u) << "screener: " << verdict.detail;
            if (verdict.kind == screen::VerdictKind::LikelyUB) ++screened_definite;
            if (verdict.kind == screen::VerdictKind::Unknown) ++screened_unknown;
        }
    }
    // Most buggy programs fault, and the screener pins some findings and
    // stops on others: the zero counts cover failing runs and stops, not
    // only clean ones.
    EXPECT_GT(faulted_runs, runs / 4);
    EXPECT_GT(screened_definite, 0u);
    EXPECT_GT(screened_unknown, 0u);
}

/// A fault whose report depends on the snapshot: output printed, or steps
/// taken, after the fault but before a tier's next fault check must not
/// show.
struct SnapshotCase {
    const char* name;
    std::string source;
    Inputs inputs;
    UbCategory category;
    std::string message;
    support::SourceSpan span;
    std::vector<std::string> output;
    std::uint64_t steps;
    bool screened;  // within the screener's modelled subset and op budget
};

const std::vector<SnapshotCase>& snapshot_cases() {
    static const std::vector<SnapshotCase> cases = {
        {"fault in f() of print_int(f() + g()), where g prints",
         R"(fn f() -> i64 {
    print_int(1);
    let z: i64 = 0;
    return 10 / z;
}

fn g() -> i64 {
    print_int(2);
    return 3;
}

fn main() {
    print_int(f() + g());
    print_int(4);
}
)",
         {{}}, UbCategory::Panic, "attempt to divide by zero", {65, 71, 4, 12},
         {"1"}, 13, true},
        {"fault inside a callee's while",
         R"(fn total(n: i64) -> i64 {
    let a: [i64; 4] = [1, 2, 3, 4];
    let mut sum: i64 = 0;
    let mut i: i64 = 0;
    while i < n {
        sum = sum + a[i];
        print_int(sum);
        i = i + 1;
    }
    return sum;
}

fn main() {
    let s = total(input(0));
    print_int(s);
}
)",
         {{6}}, UbCategory::Panic,
         "index out of bounds: the len is 4 but the index is 4",
         {150, 151, 6, 21}, {"1", "3", "6", "10"}, 88, true},
        {"fault in a joined thread",
         R"(fn worker() {
    print_int(7);
    let a: [i64; 2] = [1, 2];
    let i: i64 = 5;
    print_int(a[i]);
    print_int(8);
}

fn main() {
    let h = spawn(worker);
    print_int(1);
    join(h);
    print_int(2);
}
)",
         {{}}, UbCategory::Panic,
         "index out of bounds: the len is 2 but the index is 5",
         {96, 97, 5, 15}, {"1", "7"}, 22, false},
        {"the step-limit panic",
         R"(fn main() {
    print_int(5);
    let mut i: i64 = 0;
    while i < 10 {
        i = i + 0;
    }
    print_int(i);
}
)",
         {{}}, UbCategory::Panic, "step limit exceeded (possible infinite loop)",
         {68, 70, 4, 15}, {"5"}, 2000001, false},
        {"a leak found at teardown",
         R"(fn main() {
    unsafe {
        let p = alloc(16, 8);
        print_int(3);
    }
    print_int(4);
}
)",
         {{}}, UbCategory::Alloc,
         "memory leaked: 16-byte heap allocation was never deallocated",
         {}, {"3", "4"}, 11, false},
        {"a static past the memory cap",
         R"(static BIG: [i64; 1000000] = [0; 1000000];

fn main() {
    print_int(1);
}
)",
         {{}}, UbCategory::Alloc,
         "out of memory: allocating 8000000 bytes passes the run's cap of "
         "5242880 bytes",
         {0, 6, 1, 1}, {}, 0, true},
    };
    return cases;
}

TEST(MiriFaultTest, ARecordedFaultReportsTheStateItWasRaisedIn) {
    for (const SnapshotCase& c : snapshot_cases()) {
        SCOPED_TRACE(c.name);
        const Since since;
        // Tree walk, default Oracle and vm::Vm, byte for byte.
        const agreement::TierRun run =
            agreement::expect_tiers_agree(c.source, c.inputs);
        EXPECT_EQ(since.count(), 0u);
        const MiriReport& report = run.reference;
        ASSERT_EQ(report.findings.size(), 1u);
        const Finding& finding = report.findings.front();
        EXPECT_EQ(finding.category, c.category);
        EXPECT_EQ(finding.message, c.message);
        EXPECT_EQ(finding.span.begin, c.span.begin);
        EXPECT_EQ(finding.span.end, c.span.end);
        EXPECT_EQ(finding.span.line, c.span.line);
        EXPECT_EQ(finding.span.column, c.span.column);
        ASSERT_EQ(report.outputs.size(), 1u);
        EXPECT_EQ(report.outputs.front(), c.output);
        EXPECT_EQ(report.total_steps, c.steps);

        if (!c.screened) continue;
        const verify::Oracle oracle;
        const auto compiled = oracle.compile(c.source);
        ASSERT_TRUE(compiled->ok());
        const screen::ScreenVerdict verdict = screen::screen_program(
            compiled->program, c.inputs, InterpLimits{});
        EXPECT_EQ(verdict.kind, screen::VerdictKind::LikelyUB);
        EXPECT_EQ(verdict.category, c.category);
        EXPECT_EQ(verdict.detail, c.message);
        EXPECT_EQ(verdict.span.begin, c.span.begin);
        EXPECT_EQ(verdict.span.end, c.span.end);
    }
}

TEST(MiriFaultTest, RepeatedStepLimitFaultsKeepTheFirst) {
    // Every step past the limit raises again; only the first is recorded,
    // with the step count and output length at that moment.
    const lang::Program program;
    InterpLimits limits;
    limits.max_steps = 3;
    Machine machine(program, {}, limits);
    for (std::uint32_t line = 1; line <= 10; ++line) {
        machine.step(support::SourceSpan{line, line + 1, line, 1});
        machine.output.push_back(std::to_string(line));
    }
    ASSERT_TRUE(machine.faulted());
    EXPECT_EQ(machine.faults.finding().category, UbCategory::Panic);
    EXPECT_EQ(machine.faults.finding().message,
              "step limit exceeded (possible infinite loop)");
    EXPECT_EQ(machine.faults.finding().span.line, 4u);
    EXPECT_EQ(machine.faults.steps(), 4u);
    EXPECT_EQ(machine.faults.output_size(), 3u);
    const RunResult result = machine.run([] {});
    EXPECT_EQ(result.steps, 4u);
    EXPECT_EQ(result.output, (std::vector<std::string>{"1", "2", "3"}));
}

}  // namespace
}  // namespace rustbrain::miri
