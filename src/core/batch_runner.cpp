#include "core/batch_runner.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "support/thread_pool.hpp"

namespace rustbrain::core {

int BatchReport::pass_total() const {
    int total = 0;
    for (const CaseResult& result : results) total += result.pass;
    return total;
}

int BatchReport::exec_total() const {
    int total = 0;
    for (const CaseResult& result : results) total += result.exec;
    return total;
}

double BatchReport::virtual_ms_total() const {
    double total = 0.0;
    for (const CaseResult& result : results) total += result.time_ms;
    return total;
}

namespace {

/// Fold per-case charges into the aggregate clock, always walking cases in
/// index order: double accumulation order is then fixed, so the aggregate
/// breakdown is bit-identical regardless of which worker ran which case.
void merge_clock(BatchReport& report) {
    for (const CaseResult& result : report.results) {
        if (result.time_breakdown.empty()) {
            // Engines that don't export a breakdown still contribute their
            // total so the aggregate clock covers the whole batch.
            if (result.time_ms > 0.0) report.clock.charge("repair", result.time_ms);
            continue;
        }
        for (const auto& [category, ms] : result.time_breakdown) {
            report.clock.charge(category, ms);
        }
    }
}

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

BatchRunner::BatchRunner(EngineFactory factory, BatchOptions options)
    : factory_(std::move(factory)), options_(options) {}

BatchRunner::BatchRunner(const std::string& engine_id,
                         EngineOptions engine_options,
                         EngineBuildContext context, BatchOptions options,
                         const FeedbackStore* warm_feedback)
    : options_(options) {
    // See header: parallel sweeps must not share a mutable store, and a
    // single TraceSink written from every worker would race.
    context.feedback = nullptr;
    context.trace = nullptr;
    // Fail fast on an unknown id or option, not on the first repaired case.
    (void)EngineRegistry::builtin().build(engine_id, engine_options, context);
    if (warm_feedback == nullptr) {
        factory_ = [engine_id, engine_options,
                    context](std::size_t) -> RepairFn {
            std::shared_ptr<RepairEngine> engine =
                EngineRegistry::builtin().build(engine_id, engine_options,
                                                context);
            return [engine](const dataset::UbCase& ub_case) {
                return engine->repair(ub_case);
            };
        };
    } else {
        // Each case starts from its own copy of the snapshot; the engine is
        // rebuilt per case because engines bind their feedback store at
        // construction (construction is a registry lookup plus a profile
        // lookup — cheap next to a repair).
        auto snapshot = std::make_shared<const FeedbackStore>(*warm_feedback);
        factory_ = [engine_id, engine_options, context,
                    snapshot](std::size_t) -> RepairFn {
            return [engine_id, engine_options, context,
                    snapshot](const dataset::UbCase& ub_case) {
                FeedbackStore store = *snapshot;
                EngineBuildContext case_context = context;
                case_context.feedback = &store;
                const auto engine = EngineRegistry::builtin().build(
                    engine_id, engine_options, case_context);
                return engine->repair(ub_case);
            };
        };
    }
}

BatchReport BatchRunner::run(
    const std::vector<const dataset::UbCase*>& cases) const {
    BatchReport report;
    report.results.resize(cases.size());

    std::size_t workers = options_.workers == 0
                              ? support::ThreadPool::hardware_threads()
                              : options_.workers;
    if (workers > cases.size()) workers = cases.size();
    if (workers == 0) workers = 1;
    report.workers_used = workers;

    const auto start = std::chrono::steady_clock::now();
    if (workers == 1) {
        const RepairFn engine = factory_(0);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            report.results[i] = engine(*cases[i]);
        }
    } else {
        std::vector<RepairFn> engines;
        engines.reserve(workers);
        for (std::size_t worker = 0; worker < workers; ++worker) {
            engines.push_back(factory_(worker));
        }
        support::ThreadPool pool(workers);
        pool.parallel_for(cases.size(),
                          [&](std::size_t index, std::size_t worker) {
                              report.results[index] = engines[worker](*cases[index]);
                          });
    }
    report.wall_ms = elapsed_ms_since(start);
    merge_clock(report);
    return report;
}

BatchReport BatchRunner::run(const dataset::Corpus& corpus) const {
    std::vector<const dataset::UbCase*> cases;
    cases.reserve(corpus.size());
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        cases.push_back(&ub_case);
    }
    return run(cases);
}

BatchReport BatchRunner::run_sequential(
    const std::vector<const dataset::UbCase*>& cases, const RepairFn& engine) {
    BatchReport report;
    report.results.reserve(cases.size());
    const auto start = std::chrono::steady_clock::now();
    for (const dataset::UbCase* ub_case : cases) {
        report.results.push_back(engine(*ub_case));
    }
    report.wall_ms = elapsed_ms_since(start);
    merge_clock(report);
    return report;
}

}  // namespace rustbrain::core
