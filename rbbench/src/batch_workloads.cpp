// sweep-cold, sweep-warm and forge: the batch-shaped workloads.
//
// Their case content is fixed (forged at kContentSeed); the run seed picks
// the order the cases are swept or forged in, a fresh order every pass. A
// handful of forged cases run candidates up to the interpreter's step limit
// and cost 100x the median case, so letting the seed pick the content
// would let the count of those cases, and a single order would let their
// placement, decide the numbers (METRICS.md gives the spread).
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/thinking_policy.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "gen/registry.hpp"
#include "kb/seed.hpp"
#include "layers.hpp"
#include "llm/caching_backend.hpp"
#include "seams.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace rbbench {

namespace gen = rustbrain::gen;
namespace kb = rustbrain::kb;
namespace support = rustbrain::support;

namespace {

/// The paper's evaluation shape: a 560-case forged corpus (the ROADMAP's
/// reference sweep), swept by the flagship engine over a KB seeded from
/// the same corpus.
constexpr std::size_t kSweepCases = 560;
constexpr std::uint64_t kContentSeed = 42;
/// Set-ups per run; setup_s is their median. The repeats forge their own
/// seeds so none of them finds the last one's programs in a cache.
constexpr int kSetups = 5;
/// Every timed phase runs at least this many passes.
constexpr int kMinPasses = 3;

const char* const kEngine = "rustbrain";

core::EngineOptions sweep_options() {
    core::EngineOptions options = core::EngineOptions::parse("model=gpt-4");
    core::set_policy_option(options, "paper");
    return options;
}

/// A fresh Oracle on its own VerifyCache, library defaults otherwise (no
/// tier, screener or cache switch is pinned, so the defaults are measured).
std::shared_ptr<verify::Oracle> fresh_oracle(bool timed) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    if (timed) return std::make_shared<TimingOracle>(std::move(options));
    return std::make_shared<verify::Oracle>(std::move(options));
}

const SeamCounter* interpret_counter(const verify::Oracle& oracle) {
    const auto* timing = dynamic_cast<const TimingOracle*>(&oracle);
    return timing == nullptr ? nullptr : &timing->interpret_counter();
}

/// A seeded permutation of 0..n-1.
std::vector<std::size_t> seeded_order(std::uint64_t seed, const std::string& tag,
                                      std::size_t n) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    support::Rng rng(support::derive_seed(seed, tag));
    for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    return order;
}

struct SweepSetup {
    dataset::Corpus corpus;
    std::unique_ptr<kb::KnowledgeBase> knowledge;
};

SweepSetup make_sweep_setup(std::uint64_t content_seed) {
    gen::ForgeOptions forge;
    forge.seed = content_seed;
    forge.count = kSweepCases;
    const std::shared_ptr<verify::Oracle> oracle = fresh_oracle(false);
    forge.oracle = oracle.get();
    SweepSetup setup;
    setup.corpus = gen::forge_corpus(forge);
    setup.knowledge = std::make_unique<kb::KnowledgeBase>();
    kb::seed_from_corpus(setup.corpus, *setup.knowledge);
    return setup;
}

/// The caches one sweep pass runs against, plus the traced-run seams.
struct SweepCaches {
    std::shared_ptr<llm::PromptCache> prompts;
    std::shared_ptr<verify::Oracle> oracle;
    std::shared_ptr<SeamCounter> llm_outer;
    std::shared_ptr<SeamCounter> llm_sim;

    explicit SweepCaches(bool timed)
        : prompts(std::make_shared<llm::PromptCache>()),
          oracle(fresh_oracle(timed)) {
        if (timed) {
            llm_outer = std::make_shared<SeamCounter>();
            llm_sim = std::make_shared<SeamCounter>();
        }
    }

    [[nodiscard]] core::EngineBuildContext context(
        const kb::KnowledgeBase* knowledge) const {
        core::EngineBuildContext context;
        context.knowledge_base = knowledge;
        context.oracle = oracle;
        if (llm_outer == nullptr) {
            context.backend_factory = llm::caching_backend_factory(prompts);
        } else {
            // Inner decorator around the simulated model, outer decorator
            // around model + prompt cache.
            context.backend_factory = timed_backend_factory(
                llm::caching_backend_factory(
                    prompts, timed_backend_factory(llm::sim_backend_factory(),
                                                   span::kLlmSim, llm_sim)),
                span::kLlmOuter, llm_outer);
        }
        return context;
    }
};

struct SweepPass {
    double wall_ms = 0.0;
    std::vector<double> latencies;
    std::vector<std::uint64_t> fingerprints;  // in corpus order
};

/// One BatchRunner sweep over the corpus, cases submitted in `order`.
SweepPass sweep_pass(const SweepSetup& setup, const SweepCaches& caches,
                     const std::vector<std::size_t>& order, bool traced) {
    std::vector<const dataset::UbCase*> cases;
    for (std::size_t index : order) cases.push_back(&setup.corpus.cases()[index]);
    CaseLatencies latencies(kSweepWorkers);
    const core::BatchRunner runner(
        timed_engine_factory(kEngine, sweep_options(),
                             caches.context(setup.knowledge.get()),
                             &setup.corpus, &latencies, traced),
        core::BatchOptions{kSweepWorkers});
    const core::BatchReport report = runner.run(cases);
    SweepPass pass;
    pass.wall_ms = report.wall_ms;
    pass.latencies = latencies.all();
    pass.fingerprints.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        pass.fingerprints[order[i]] = result_fingerprint(report.results[i]);
    }
    return pass;
}

/// Serial, uncached, tree-walk reference: no prompt cache, an Oracle that
/// recomputes everything on the reference interpreter.
std::vector<std::uint64_t> sweep_reference(const SweepSetup& setup) {
    verify::OracleOptions options;
    options.caching = false;
    options.interp = verify::InterpTier::Tree;
    core::EngineBuildContext context;
    context.knowledge_base = setup.knowledge.get();
    context.oracle = std::make_shared<verify::Oracle>(std::move(options));
    const core::BatchRunner runner(kEngine, sweep_options(), context,
                                   core::BatchOptions{1});
    std::vector<std::uint64_t> out;
    for (const core::CaseResult& result : runner.run(setup.corpus).results) {
        out.push_back(result_fingerprint(result));
    }
    return out;
}

std::uint64_t count_mismatches(const std::vector<std::uint64_t>& got,
                               const std::vector<std::uint64_t>& want) {
    std::uint64_t bad = got.size() == want.size() ? 0 : 1;
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
        if (got[i] != want[i]) ++bad;
    }
    return bad;
}

void log(const char* workload, const std::string& line) {
    std::fprintf(stderr, "[%s] %s\n", workload, line.c_str());
}

/// The pass wall time throughput is computed from: the fastest pass.
/// Every pass does the same work, and interference from outside the
/// process only ever adds time. On a shared VM whose speed swings by a
/// third over seconds, the run-to-run spread of the fastest pass was a
/// third of the median pass's (METRICS.md).
double best_wall_ms(const std::vector<double>& walls) {
    return walls.empty() ? 0.0 : *std::min_element(walls.begin(), walls.end());
}

/// Runs passes until `seconds` have gone by (and at least kMinPasses of
/// each kind ran). With `traced`, passes alternate untraced/traced so both
/// see the same machine conditions; `pass(traced)` does one and returns
/// its wall time.
template <typename PassFn>
void run_passes(double seconds, bool traced, std::vector<double>& untraced_walls,
                std::vector<double>& traced_walls, PassFn pass) {
    const auto start = Clock::now();
    bool next_traced = false;
    while (untraced_walls.size() < static_cast<std::size_t>(kMinPasses) ||
           (traced && traced_walls.size() < static_cast<std::size_t>(kMinPasses)) ||
           ms_since(start) < seconds * 1000.0) {
        if (next_traced) {
            traced_walls.push_back(pass(true));
        } else {
            untraced_walls.push_back(pass(false));
        }
        if (traced) next_traced = !next_traced;
    }
}

}  // namespace

RunOutcome run_sweep(const RunConfig& config, bool warm) {
    const char* name = warm ? "sweep-warm" : "sweep-cold";
    RunOutcome outcome;

    // --- set-up -------------------------------------------------------------
    std::vector<double> setup_seconds;
    SweepSetup setup;
    std::unique_ptr<SweepCaches> warm_plain;
    std::vector<std::size_t> identity(kSweepCases);
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    for (int i = 0; i < kSetups; ++i) {
        const std::uint64_t content_seed =
            kContentSeed + 1000 * static_cast<std::uint64_t>(kSetups - 1 - i);
        const auto start = Clock::now();
        setup = make_sweep_setup(content_seed);
        if (warm) {
            // One untimed cold pass fills the caches every timed pass reuses.
            warm_plain = std::make_unique<SweepCaches>(false);
            (void)sweep_pass(setup, *warm_plain, identity, false);
        }
        setup_seconds.push_back(ms_since(start) / 1000.0);
    }
    // Traced warm passes need caches behind the timing seams, filled the
    // same way.
    std::unique_ptr<SweepCaches> warm_timed;
    if (warm && config.trace) {
        warm_timed = std::make_unique<SweepCaches>(true);
        (void)sweep_pass(setup, *warm_timed, identity, false);
    }
    log(name, "setup median " + std::to_string(median(setup_seconds)) + " s");
    // One discarded pass lets the process's first-pass costs (heap growth,
    // page faults) land before timing.
    {
        const SweepCaches scratch(false);
        (void)sweep_pass(setup, warm ? *warm_plain : scratch, identity, false);
    }

    // --- timed passes -------------------------------------------------------
    std::vector<std::vector<std::uint64_t>> fingerprints;
    std::vector<double> compiled_programs;
    LayerSamples layers;
    auto pass_fn = [&](bool traced) {
        std::unique_ptr<SweepCaches> fresh;
        const SweepCaches* caches = traced ? warm_timed.get() : warm_plain.get();
        if (!warm) {
            fresh = std::make_unique<SweepCaches>(traced);
            caches = fresh.get();
        }
        const verify::VerifyCacheStats cache_before = caches->oracle->stats();
        const verify::ScreenStats screen_before = caches->oracle->screen_stats();
        const llm::PromptCacheStats prompts_before = caches->prompts->stats();
        const SeamCounter* interp = interpret_counter(*caches->oracle);
        const double interp_ms_before = interp ? interp->ms() : 0.0;
        const std::uint64_t interp_calls_before = interp ? interp->calls.load() : 0;
        const double outer_before = traced ? caches->llm_outer->ms() : 0.0;
        const double sim_before = traced ? caches->llm_sim->ms() : 0.0;
        const std::uint64_t calls_before =
            traced ? caches->llm_outer->calls.load() : 0;
        if (traced) {
            Tracer::global().clear();
            Tracer::global().set_enabled(true);
        }
        const std::vector<std::size_t> order = seeded_order(
            config.seed, "sweep-pass-" + std::to_string(fingerprints.size()),
            setup.corpus.size());
        SweepPass pass = sweep_pass(setup, *caches, order, traced);
        Tracer::global().set_enabled(false);
        outcome.attempted += pass.fingerprints.size();
        fingerprints.push_back(std::move(pass.fingerprints));
        if (!traced) return pass.wall_ms;

        double busy_ms = 0.0;
        for (double ms : pass.latencies) busy_ms += ms;
        layers.add("core.repair_ms.p50", quantile(pass.latencies, 0.50));
        layers.add("core.repair_ms.p99", quantile(pass.latencies, 0.99));
        layers.add("core.fast_thinking.self_ms", self_ms(span::kFast));
        layers.add("core.slow_thinking.self_ms", self_ms(span::kSlow));
        const double outer_ms = caches->llm_outer->ms() - outer_before;
        const double sim_ms = caches->llm_sim->ms() - sim_before;
        layers.add("llm.calls", static_cast<double>(
                                    caches->llm_outer->calls.load() - calls_before));
        layers.add("llm.sim_ms", sim_ms);
        layers.add("llm.cache_ms", outer_ms - sim_ms);
        const llm::PromptCacheStats prompts_after = caches->prompts->stats();
        const std::uint64_t hits = prompts_after.hits - prompts_before.hits;
        const std::uint64_t lookups =
            hits + prompts_after.misses - prompts_before.misses;
        layers.add("llm.cache_hit_ratio",
                   lookups == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(lookups));
        const double interp_ms = interp->ms() - interp_ms_before;
        layers.add("verify.interpret_calls",
                   static_cast<double>(interp->calls.load() - interp_calls_before));
        layers.add("verify.interpret_ms", interp_ms);
        layers.add("verify.interpret_share",
                   busy_ms > 0.0 ? interp_ms / busy_ms : 0.0);
        const OracleDelta delta =
            oracle_delta(cache_before, screen_before, *caches->oracle);
        add_oracle_layers(layers, delta);
        compiled_programs.push_back(
            static_cast<double>(delta.cache.program_misses));
        double consults = 0.0;
        double skips = 0.0;
        for (const SpanRecorder* recorder : Tracer::global().recorders()) {
            consults += static_cast<double>(recorder->kb_consults);
            skips += static_cast<double>(recorder->kb_skips);
        }
        layers.add("kb.consults", consults);
        layers.add("kb.skips", skips);
        return pass.wall_ms;
    };
    std::vector<double> walls;
    std::vector<double> traced_walls;
    run_passes(config.seconds, config.trace, walls, traced_walls, pass_fn);

    // --- reference check (outside timing) -----------------------------------
    const std::vector<std::uint64_t> reference = sweep_reference(setup);
    for (const auto& pass : fingerprints) {
        outcome.failed += count_mismatches(pass, reference);
    }
    log(name, std::to_string(fingerprints.size()) + " passes, " +
                  std::to_string(outcome.failed) + " mismatches vs reference");

    MetricSheet& m = outcome.metrics;
    if (!config.trace) {
        const double wall = best_wall_ms(walls);
        m.set("setup_s", median(setup_seconds), "s");
        m.set("cases_per_s",
              wall > 0.0 ? 1000.0 * static_cast<double>(kSweepCases) / wall : 0.0,
              "1/s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        return outcome;
    }

    declare_layer_metrics(m);
    layers.flush(m);
    const ReplayTimes replay = replay_layers(captured_programs(), 3);
    set_replay_layers(m, replay, median(compiled_programs));
    outcome.failed += replay.mismatches;
    m.set("bench.tracing_overhead", median(traced_walls) / median(walls),
          "ratio");
    m.set("error_rate",
          static_cast<double>(outcome.failed) /
              static_cast<double>(outcome.attempted),
          "ratio");
    if (!config.span_path.empty()) Tracer::global().write(config.span_path);
    log(name, "replayed " + std::to_string(replay.programs) + " programs");
    return outcome;
}

namespace {

/// Cases per forge slice: one per builtin generator.
std::size_t slice_size() {
    return gen::GeneratorRegistry::builtin().ids().size();
}

/// Slices per forge pass: the same case count as a sweep corpus.
std::size_t slices_per_pass() {
    return (kSweepCases + slice_size() - 1) / slice_size();
}

gen::ForgeOptions slice_options(std::uint64_t content_seed, std::size_t slice,
                                const verify::Oracle* oracle) {
    gen::ForgeOptions options;
    options.seed = support::derive_seed(
        content_seed, "forge-slice-" + std::to_string(slice));
    options.count = slice_size();
    options.oracle = oracle;
    return options;
}

struct ForgePass {
    double wall_ms = 0.0;
    std::vector<std::uint64_t> fingerprints;  // corpus bytes, in slice order
    gen::ForgeStats stats;
    std::size_t cases = 0;
};

/// One pass: every slice, in `order`, through one Oracle and its cache.
ForgePass forge_pass(std::uint64_t content_seed,
                     const std::vector<std::size_t>& order,
                     const verify::Oracle& oracle) {
    ForgePass pass;
    pass.fingerprints.resize(order.size());
    const auto start = Clock::now();
    for (std::size_t slice : order) {
        const ScopedSpan span(span::kForge, static_cast<std::int32_t>(slice));
        gen::ForgeStats stats;
        const dataset::Corpus corpus = gen::forge_corpus(
            slice_options(content_seed, slice, &oracle), &stats);
        pass.stats.attempts += stats.attempts;
        pass.cases += corpus.size();
        pass.fingerprints[slice] =
            fnv1a(kFnvOffset, gen::corpus_to_string(corpus));
    }
    pass.wall_ms = ms_since(start);
    return pass;
}

/// Rotates the calling thread over the CPUs it may run on, one per call.
/// On a shared VM each vCPU's speed moves with its neighbours' load, so a
/// single-threaded workload left on one CPU can spend a whole run on a
/// slow one; rotating lets the fastest-pass statistic see every CPU. The
/// destructor restores the original mask.
class CpuRotation {
  public:
    CpuRotation() {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
        }
    }
    ~CpuRotation() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next() {
        if (cpus_.empty()) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[calls_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t calls_ = 0;
};

/// Cache-off reference bytes for every slice.
std::vector<std::uint64_t> forge_reference(std::uint64_t content_seed) {
    verify::OracleOptions options;
    options.caching = false;
    const verify::Oracle oracle(std::move(options));
    std::vector<std::uint64_t> out;
    for (std::size_t slice = 0; slice < slices_per_pass(); ++slice) {
        out.push_back(fnv1a(
            kFnvOffset, gen::corpus_to_string(gen::forge_corpus(
                            slice_options(content_seed, slice, &oracle)))));
    }
    return out;
}

}  // namespace

RunOutcome run_forge(const RunConfig& config) {
    const char* name = "forge";
    RunOutcome outcome;
    const std::vector<std::size_t> order =
        seeded_order(config.seed, "forge-order", slices_per_pass());

    // Set-up: one untimed forge pass of other content, so lazy process
    // state (generator registry, allocator arenas, page faults) is paid
    // before timing.
    std::vector<double> setup_seconds;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        (void)forge_pass(kContentSeed + 1000 * static_cast<std::uint64_t>(i + 1),
                         order, *fresh_oracle(false));
        setup_seconds.push_back(ms_since(start) / 1000.0);
    }

    std::vector<std::vector<std::uint64_t>> fingerprints;
    std::vector<double> compiled_programs;
    LayerSamples layers;
    CpuRotation rotation;
    auto pass_fn = [&](bool traced) {
        rotation.next();
        // A fresh Oracle and cache per pass.
        const std::shared_ptr<verify::Oracle> oracle = fresh_oracle(traced);
        if (traced) {
            Tracer::global().clear();
            Tracer::global().set_enabled(true);
        }
        ForgePass pass = forge_pass(kContentSeed, order, *oracle);
        Tracer::global().set_enabled(false);
        outcome.attempted += pass.cases;
        fingerprints.push_back(std::move(pass.fingerprints));
        if (!traced) return pass.wall_ms;
        const SeamCounter& interp = *interpret_counter(*oracle);
        layers.add("gen.attempts", static_cast<double>(pass.stats.attempts));
        layers.add("gen.accept_ratio",
                   pass.stats.attempts == 0
                       ? 0.0
                       : static_cast<double>(pass.cases) /
                             static_cast<double>(pass.stats.attempts));
        layers.add("gen.verify_ms", interp.ms());
        layers.add("gen.generate_ms", pass.wall_ms - interp.ms());
        layers.add("verify.interpret_calls",
                   static_cast<double>(interp.calls.load()));
        layers.add("verify.interpret_ms", interp.ms());
        layers.add("verify.interpret_share",
                   pass.wall_ms > 0.0 ? interp.ms() / pass.wall_ms : 0.0);
        const OracleDelta delta = oracle_delta({}, {}, *oracle);
        add_oracle_layers(layers, delta);
        compiled_programs.push_back(
            static_cast<double>(delta.cache.program_misses));
        return pass.wall_ms;
    };
    std::vector<double> walls;
    std::vector<double> traced_walls;
    run_passes(config.seconds, config.trace, walls, traced_walls, pass_fn);

    const std::vector<std::uint64_t> reference = forge_reference(kContentSeed);
    std::uint64_t mismatched_slices = 0;
    for (const auto& pass : fingerprints) {
        mismatched_slices += count_mismatches(pass, reference);
    }
    // A mismatched slice fails every case in it.
    outcome.failed = mismatched_slices * slice_size();
    log(name, std::to_string(fingerprints.size()) + " passes, " +
                  std::to_string(mismatched_slices) +
                  " slices differ from the cache-off forge");

    MetricSheet& m = outcome.metrics;
    const double cases_per_pass =
        static_cast<double>(slices_per_pass() * slice_size());
    if (!config.trace) {
        const double wall = best_wall_ms(walls);
        m.set("setup_s", median(setup_seconds), "s");
        m.set("cases_per_s", wall > 0.0 ? 1000.0 * cases_per_pass / wall : 0.0,
              "1/s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        return outcome;
    }
    declare_layer_metrics(m);
    layers.flush(m);
    const ReplayTimes replay = replay_layers(captured_programs(), 3);
    set_replay_layers(m, replay, median(compiled_programs));
    outcome.failed += replay.mismatches;
    m.set("bench.tracing_overhead", median(traced_walls) / median(walls),
          "ratio");
    m.set("error_rate",
          static_cast<double>(outcome.failed) /
              static_cast<double>(outcome.attempted),
          "ratio");
    if (!config.span_path.empty()) Tracer::global().write(config.span_path);
    log(name, "replayed " + std::to_string(replay.programs) + " programs");
    return outcome;
}

}  // namespace rbbench
