// The Verification Oracle's identity matrix, shared by the tests that
// sweep it. Caching, the interpreter tier and the worker count are pure
// performance choices, so every row of kRows must reproduce the
// reference's bytes: every registry engine sweeping a corpus under the
// default `paper` policy, each CaseResult rendered with the serving codec
// plus the merged clock.
//
// The reference is the simplest configuration there is: a serial tree
// walk that caches nothing. The default tier only reaches the VM for runs
// past kVmAfterSteps, so the `vm` row is a test double that runs the VM on
// every run. The tests that sweep each cell:
//
//   hand-written corpus  default/1, caching off   VerifyOracleTest
//                        default/4                VerifyOracleTest
//                        vm                       VmDifferentialTest
//   forged, 560 cases    every row                VmDifferentialTest
//   Corpus Forge, seed 7 every row                VerifyIdentityTest
//
// ScreenSoundnessTest reuses render() for the `screened` policy's goldens.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "serve/wire.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::verify::identity {

/// Runs the VM on every run, not only on runs past kVmAfterSteps. The
/// Oracle offers no such mode; tests use this double to keep the VM's
/// byte-identity covered on every program.
class VmEverywhereOracle final : public Oracle {
  public:
    using Oracle::Oracle;

  protected:
    [[nodiscard]] miri::MiriReport interpret(
        const CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets)
        const override {
        return miri::agreement::vm_report(
            compiled.program, compiled.bytecode(), input_sets,
            limits());
    }
};

struct Row {
    const char* name;
    void (*configure)(OracleOptions&);
    std::size_t workers;
    bool vm_everywhere = false;  // build a VmEverywhereOracle
};

inline constexpr Row kReference{"reference",
                                [](OracleOptions& options) {
                                    options.caching = false;
                                    options.interp = InterpTier::Tree;
                                },
                                1};

inline constexpr Row kDefaultSerial{"default", [](OracleOptions&) {}, 1};
inline constexpr Row kDefaultParallel{"default", [](OracleOptions&) {}, 4};
inline constexpr Row kVm{"vm", [](OracleOptions&) {}, 4, true};
inline constexpr Row kCachingOff{
    "caching off",
    [](OracleOptions& options) { options.caching = false; }, 4};

inline const std::vector<Row> kRows = {kDefaultSerial, kDefaultParallel, kVm,
                                       kCachingOff};

inline std::string label(const Row& row) {
    return std::string(row.name) + "/" + std::to_string(row.workers) +
           "-worker";
}

/// A private store, so no row warms another.
inline OracleOptions options_for(const Row& row) {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    row.configure(options);
    return options;
}

inline std::shared_ptr<Oracle> make_oracle(const Row& row,
                                           OracleOptions options) {
    if (row.vm_everywhere) {
        return std::make_shared<VmEverywhereOracle>(std::move(options));
    }
    return std::make_shared<Oracle>(std::move(options));
}

inline std::vector<std::string> render(const core::BatchReport& report) {
    std::vector<std::string> lines;
    lines.reserve(report.results.size() + 1);
    for (const core::CaseResult& result : report.results) {
        lines.push_back(serve::render_case_result(result));
    }
    std::ostringstream clock;
    clock << std::hexfloat << "clock " << report.clock.now_ms();
    for (const auto& [category, ms] : report.clock.breakdown()) {
        clock << ' ' << category << '=' << ms;
    }
    lines.push_back(clock.str());
    return lines;
}

/// Reports the first diverging rendering only; one is enough to debug.
inline void expect_same_bytes(const std::vector<std::string>& want,
                              const std::vector<std::string>& got) {
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i] != got[i]) {
            EXPECT_EQ(want[i], got[i]) << "first divergence at rendering " << i;
            return;
        }
    }
}

inline dataset::Corpus forge(std::uint64_t seed, std::size_t count,
                             const Oracle& oracle) {
    gen::ForgeOptions options;
    options.seed = seed;
    options.count = count;
    options.oracle = &oracle;
    return gen::forge_corpus(options);
}

/// Every registry engine sweeps `corpus` under the reference and under
/// each of `rows`; every row must render the reference's bytes.
/// `runs_past_cap` says whether every verifying engine's sweep of `corpus`
/// has a run past kVmAfterSteps, which the default tier restarts on the VM.
inline void expect_rows_match_reference(const dataset::Corpus& corpus,
                                        const std::vector<Row>& rows,
                                        bool runs_past_cap = false) {
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);
    for (const std::string& engine_id : core::EngineRegistry::builtin().ids()) {
        SCOPED_TRACE(engine_id);
        auto sweep = [&](const Row& row) {
            const OracleOptions options = options_for(row);
            const std::shared_ptr<Oracle> oracle = make_oracle(row, options);
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = oracle;
            const core::BatchRunner runner(engine_id, {}, context,
                                           core::BatchOptions{row.workers});
            const std::uint64_t compiles_before =
                vm::CompileStats::bytecode_compiles.load();
            std::vector<std::string> rendered = render(runner.run(corpus));
            const std::uint64_t compiles =
                vm::CompileStats::bytecode_compiles.load() - compiles_before;
            if (engine_id != "expert") {  // expert never verifies
                // Not vacuous: each row took the paths it names (bytecode is
                // built only for runs on the VM), and the paper policy
                // never asks for a screening verdict.
                const VerifyCacheStats cache = oracle->stats();
                EXPECT_EQ(cache.report_hits + cache.report_misses > 0,
                          options.caching);
                EXPECT_EQ(oracle->screen_stats().screens, 0u);
                if (row.vm_everywhere) {
                    EXPECT_GT(compiles, 0u);
                } else if (options.interp == InterpTier::Tree) {
                    EXPECT_EQ(compiles, 0u);
                } else {
                    EXPECT_EQ(compiles > 0, runs_past_cap);
                }
            }
            return rendered;
        };
        const std::vector<std::string> want = sweep(kReference);
        for (const Row& row : rows) {
            SCOPED_TRACE(label(row));
            expect_same_bytes(want, sweep(row));
        }
    }
}

}  // namespace rustbrain::verify::identity
