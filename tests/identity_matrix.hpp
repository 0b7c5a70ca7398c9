// The Verification Oracle's identity matrix, shared by the tests that
// sweep it. Caching, the interpreter tier and the worker count are pure
// performance choices, so every row of kRows must reproduce the
// reference's bytes: every registry engine sweeping a corpus under the
// default `paper` policy, each CaseResult rendered with the serving codec
// plus the merged clock.
//
// The reference is the simplest configuration there is: a serial tree
// walk that caches nothing. The tests that sweep each cell:
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
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "serve/wire.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::verify::identity {

struct Row {
    const char* name;
    void (*configure)(OracleOptions&);
    std::size_t workers;
};

inline constexpr Row kReference{"reference",
                                [](OracleOptions& options) {
                                    options.caching = false;
                                    options.interp = InterpTier::Tree;
                                },
                                1};

inline constexpr Row kDefaultSerial{"default", [](OracleOptions&) {}, 1};
inline constexpr Row kDefaultParallel{"default", [](OracleOptions&) {}, 4};
inline constexpr Row kVm{
    "vm", [](OracleOptions& options) { options.interp = InterpTier::Vm; }, 4};
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
inline void expect_rows_match_reference(const dataset::Corpus& corpus,
                                        const std::vector<Row>& rows) {
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);
    for (const std::string& engine_id : core::EngineRegistry::builtin().ids()) {
        SCOPED_TRACE(engine_id);
        auto sweep = [&](const Row& row) {
            const OracleOptions options = options_for(row);
            const auto oracle = std::make_shared<Oracle>(options);
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = oracle;
            const core::BatchRunner runner(engine_id, {}, context,
                                           core::BatchOptions{row.workers});
            const std::uint64_t compiles_before =
                vm::CompileStats::bytecode_compiles.load();
            std::vector<std::string> rendered = render(runner.run(corpus));
            if (engine_id != "expert") {  // expert never verifies
                // Not vacuous: each row took the paths it names, and the
                // paper policy never asks for a screening verdict.
                const VerifyCacheStats cache = oracle->stats();
                EXPECT_EQ(cache.report_hits + cache.report_misses > 0,
                          options.caching);
                EXPECT_EQ(oracle->screen_stats().screens, 0u);
                EXPECT_EQ(vm::CompileStats::bytecode_compiles.load() >
                              compiles_before,
                          options.interp == InterpTier::Vm);
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
