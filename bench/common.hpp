// Shared evaluation harness for the figure/table benches: registry-driven
// engine sweeps (parallel over a BatchRunner by default), per-category
// rate folding, rate formatting.
//
// No bench constructs an engine class directly: every configuration is a
// (registry id, option spec) pair handed to core::EngineRegistry /
// core::BatchRunner, exactly the way a sweep config file would express it.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "core/rustbrain.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::bench {

inline const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

inline const kb::KnowledgeBase& knowledge_base() {
    static const kb::KnowledgeBase kbase = [] {
        kb::KnowledgeBase k;
        kb::seed_from_corpus(corpus(), k);
        return k;
    }();
    return kbase;
}

/// Build context wired to the shared seeded knowledge base (engines whose
/// options say knowledge=off simply ignore it).
inline core::EngineBuildContext kb_context() {
    core::EngineBuildContext context;
    context.knowledge_base = &knowledge_base();
    return context;
}

struct CategoryRates {
    std::map<miri::UbCategory, int> pass;
    std::map<miri::UbCategory, int> exec;
    std::map<miri::UbCategory, int> total;
    std::map<miri::UbCategory, double> time_ms;
    int pass_total = 0;
    int exec_total = 0;
    int case_total = 0;
    double time_total_ms = 0.0;

    void add(const dataset::UbCase& ub_case, const core::CaseResult& result) {
        ++total[ub_case.category];
        ++case_total;
        time_ms[ub_case.category] += result.time_ms;
        time_total_ms += result.time_ms;
        if (result.pass) {
            ++pass[ub_case.category];
            ++pass_total;
        }
        if (result.exec) {
            ++exec[ub_case.category];
            ++exec_total;
        }
    }

    [[nodiscard]] double pass_rate(miri::UbCategory category) const {
        auto it = total.find(category);
        if (it == total.end() || it->second == 0) return 0.0;
        auto passed = pass.find(category);
        return 100.0 * (passed == pass.end() ? 0 : passed->second) / it->second;
    }
    [[nodiscard]] double exec_rate(miri::UbCategory category) const {
        auto it = total.find(category);
        if (it == total.end() || it->second == 0) return 0.0;
        auto executed = exec.find(category);
        return 100.0 * (executed == exec.end() ? 0 : executed->second) / it->second;
    }
    [[nodiscard]] double avg_time_s(miri::UbCategory category) const {
        auto it = total.find(category);
        if (it == total.end() || it->second == 0) return 0.0;
        return time_ms.at(category) / it->second / 1000.0;
    }
    [[nodiscard]] double pass_rate_total() const {
        return case_total == 0 ? 0.0 : 100.0 * pass_total / case_total;
    }
    [[nodiscard]] double exec_rate_total() const {
        return case_total == 0 ? 0.0 : 100.0 * exec_total / case_total;
    }
};

/// Corpus cases, optionally restricted to a category subset, in corpus order.
inline std::vector<const dataset::UbCase*> corpus_cases(
    const std::vector<miri::UbCategory>* only = nullptr) {
    std::vector<const dataset::UbCase*> cases;
    for (const dataset::UbCase& ub_case : corpus().cases()) {
        if (only != nullptr) {
            bool wanted = false;
            for (miri::UbCategory category : *only) {
                if (ub_case.category == category) wanted = true;
            }
            if (!wanted) continue;
        }
        cases.push_back(&ub_case);
    }
    return cases;
}

/// Fold a BatchReport back into per-category rates (case order preserved).
inline CategoryRates rates_from(const std::vector<const dataset::UbCase*>& cases,
                                const core::BatchReport& report) {
    CategoryRates rates;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        rates.add(*cases[i], report.results[i]);
    }
    return rates;
}

/// Parallel corpus sweep over an already-configured BatchRunner.
inline CategoryRates sweep(const core::BatchRunner& runner,
                           const std::vector<miri::UbCategory>* only = nullptr) {
    const std::vector<const dataset::UbCase*> cases = corpus_cases(only);
    return rates_from(cases, runner.run(cases));
}

/// THE corpus sweep: build `engine_id` with `option_spec` through the
/// registry (one engine per worker; worker count = hardware threads, or
/// RUSTBRAIN_WORKERS when set) and fan the cases out. Cases are repaired
/// independently, so every rate is order- and worker-count-invariant; a
/// non-null `warm_feedback` gives each case a private snapshot copy.
inline CategoryRates engine_sweep(
    const std::string& engine_id, const std::string& option_spec,
    const core::EngineBuildContext& context = kb_context(),
    const std::vector<miri::UbCategory>* only = nullptr,
    const core::FeedbackStore* warm_feedback = nullptr) {
    const core::BatchRunner runner(engine_id,
                                   core::EngineOptions::parse(option_spec),
                                   context, core::BatchOptions{}, warm_feedback);
    return sweep(runner, only);
}

/// Ordered single-engine sweep for configurations whose whole point is
/// cross-case state (a shared FeedbackStore accumulating over the corpus).
/// The engine comes from the registry like everywhere else.
inline CategoryRates ordered_engine_sweep(
    const std::string& engine_id, const std::string& option_spec,
    const core::EngineBuildContext& context,
    const std::vector<miri::UbCategory>* only = nullptr) {
    const auto engine = core::EngineRegistry::builtin().build(
        engine_id, core::EngineOptions::parse(option_spec), context);
    const std::vector<const dataset::UbCase*> cases = corpus_cases(only);
    return rates_from(cases, core::BatchRunner::run_sequential(
                                 cases, [&](const dataset::UbCase& ub_case) {
                                     return engine->repair(ub_case);
                                 }));
}

inline std::string pct(double value) {
    return support::format_double(value, 1);
}

struct LabelledRates {
    std::string label;
    CategoryRates rates;
};

/// The seven configurations Figs. 8 and 9 share: three bare models, two
/// +RustBrain pairs, GPT-4+RustBrain without the knowledge base, and the
/// flagship — each a declarative (engine id, options) row. All swept in
/// parallel with cases repaired independently (no cross-case feedback),
/// so every rate is order- and worker-count-invariant; the feedback
/// mechanism is measured where it is the subject (fig07's warmed groups,
/// Table I's feedback-bearing columns, repair_campaign's focused phase).
inline std::vector<LabelledRates> seven_standard_configs() {
    struct Row {
        const char* label;
        const char* engine;
        const char* options;
        bool with_kb;
    };
    const Row rows[] = {
        {"gpt-3.5", "standalone", "model=gpt-3.5", false},
        {"claude-3.5", "standalone", "model=claude-3.5", false},
        {"gpt-4", "standalone", "model=gpt-4", false},
        {"gpt-3.5+RustBrain", "rustbrain", "model=gpt-3.5", true},
        {"claude-3.5+RustBrain", "rustbrain", "model=claude-3.5", true},
        {"gpt-4+RustBrain(non-knowledge)", "rustbrain",
         "model=gpt-4,knowledge=off", false},
        {"gpt-4+RustBrain", "rustbrain", "model=gpt-4", true},
    };
    std::vector<LabelledRates> configs;
    for (const Row& row : rows) {
        configs.push_back(
            {row.label,
             engine_sweep(row.engine, row.options,
                          row.with_kb ? kb_context() : core::EngineBuildContext{})});
    }
    return configs;
}

}  // namespace rustbrain::bench
