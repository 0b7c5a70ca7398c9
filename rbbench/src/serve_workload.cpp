// serve-open-loop: an in-process RepairServer (default frontend, two
// workers) fed by the single-threaded open-loop generator over pipelined
// connections — reactor + workers + generator stay within four threads.
//
// Every phase starts a fresh server and replays the same traffic into it:
// an untimed warm-up that touches every catalog case once (standard corpus
// plus a forged slice), then the timed part — zipf-drawn catalog cases
// with a fixed set of never-seen forged cases interleaved, so the caches
// are warm for repeat traffic and cold for new traffic, as in production.
// The content is fixed; the run seed draws the zipf sequence, where the new
// cases land, the warm-up order and the arrival times (a Poisson process
// with same-instant bursts, scaled to each phase's fixed rate):
//   saturate — the repeat traffic, all due at once, a few times over on one
//              warm server: capacity (serve.capacity_rps);
//   low/high — fixed rates near 0.5 and 0.9 of the lowest capacity
//              measured; cases_per_s is the completion rate at low;
//   ladder   — (traced runs) fixed rising rates; max_rate_rps is the
//              highest rung whose p99 meets kLatencyLimitMs with no
//              failures and no backlog left when the schedule ends.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "seams.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "support/zipf.hpp"
#include "workloads.hpp"

namespace rbbench {

namespace gen = rustbrain::gen;
namespace kb = rustbrain::kb;
namespace serve = rustbrain::serve;
namespace support = rustbrain::support;

namespace {

// --- fixed workload shape ---------------------------------------------------
constexpr std::uint64_t kCatalogSeed = 2025;
constexpr std::size_t kForgedCases = 400;   // catalog = standard + this slice
constexpr std::uint64_t kFreshSeed = 4242;
constexpr std::size_t kFreshCases = 48;     // never-seen cases per phase
/// Timed requests per phase, per second of requested run time.
constexpr std::size_t kTimedRequestsPerSecond = 1000;
/// The ladder (traced runs only) replays this share of the timed traffic.
constexpr std::size_t kLadderShare = 4;
constexpr double kZipfSkew = 1.0;
constexpr std::size_t kBurstEvery = 16;     // every 16th arrival brings
constexpr std::size_t kBurstSize = 4;       // 4 more at the same instant
constexpr std::size_t kConnections = 4;
constexpr std::size_t kServerWorkers = 2;
constexpr int kSetups = 5;
constexpr int kSaturateRepeats = 3;

// Rates, fixed once from the saturated throughput this workload measured
// (16k-27k requests/s across runs on a 4-vCPU VM; METRICS.md): low ~0.5
// and high ~0.9 of the low end, and a ladder up past the high end.
constexpr double kLowRps = 8000.0;
constexpr double kHighRps = 14500.0;
constexpr double kLadderRps[] = {8000.0,  11000.0, 14000.0, 17000.0,
                                 20000.0, 23000.0, 26000.0};
constexpr double kLatencyLimitMs = 50.0;
/// A low phase whose generator ran later than this (p99 send lag) measured
/// the machine rather than the server: it is invalid, and it is driven
/// again on a fresh server, at most kLowAttempts times in all.
constexpr double kMaxSendLagMs = 25.0;
constexpr int kLowAttempts = 3;
constexpr double kTimeoutMs = 30000.0;

const char* const kEngine = "rustbrain";

struct ServeSetup {
    std::vector<dataset::UbCase> catalog;  // warm-up covers all of it
    std::vector<dataset::UbCase> fresh;    // first seen in the timed part
    std::unique_ptr<kb::KnowledgeBase> knowledge;
};

dataset::Corpus forge_slice(std::uint64_t seed, std::size_t count) {
    gen::ForgeOptions forge;
    forge.seed = seed;
    forge.count = count;
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(std::move(oracle_options));
    forge.oracle = &oracle;
    return gen::forge_corpus(forge);
}

ServeSetup make_serve_setup() {
    ServeSetup setup;
    const dataset::Corpus standard = dataset::Corpus::standard();
    setup.catalog = standard.cases();
    const dataset::Corpus forged = forge_slice(kCatalogSeed, kForgedCases);
    setup.catalog.insert(setup.catalog.end(), forged.cases().begin(),
                         forged.cases().end());
    setup.fresh = forge_slice(kFreshSeed, kFreshCases).cases();
    setup.knowledge = std::make_unique<kb::KnowledgeBase>();
    kb::seed_from_corpus(standard, *setup.knowledge);
    return setup;
}

const dataset::UbCase& case_at(const ServeSetup& setup, std::size_t index) {
    return index < setup.catalog.size()
               ? setup.catalog[index]
               : setup.fresh[index - setup.catalog.size()];
}

/// The seeded request trace. Case indices address the catalog, then the
/// fresh cases; unit_due averages one arrival per unit.
struct Trace {
    std::vector<std::size_t> warmup;  // every catalog index once
    std::vector<std::size_t> draws;   // zipf draws over the catalog
    std::vector<std::size_t> cases;   // the draws with fresh cases mixed in
    std::vector<double> unit_due;
};

Trace make_trace(std::uint64_t seed, const ServeSetup& setup,
                 std::size_t requests) {
    support::Rng rng(support::derive_seed(seed, "serve-trace"));
    const std::size_t catalog = setup.catalog.size();
    Trace trace;
    trace.warmup.resize(catalog);
    for (std::size_t i = 0; i < catalog; ++i) trace.warmup[i] = i;
    for (std::size_t i = catalog; i > 1; --i) {
        std::swap(trace.warmup[i - 1], trace.warmup[rng.next_below(i)]);
    }
    const support::ZipfSampler sampler(catalog, kZipfSkew);
    for (std::size_t i = 0; i < requests; ++i) {
        trace.draws.push_back(sampler.sample(rng));
    }
    trace.cases = trace.draws;
    // Each fresh case replaces one draw, at a seeded position.
    for (std::size_t f = 0; f < setup.fresh.size() && f < requests; ++f) {
        std::size_t slot = rng.next_below(requests);
        while (trace.cases[slot] >= catalog) slot = (slot + 1) % requests;
        trace.cases[slot] = catalog + f;
    }
    double clock = 0.0;
    while (trace.unit_due.size() < requests) {
        clock += -std::log(1.0 - rng.next_double());
        trace.unit_due.push_back(clock);
        if (trace.unit_due.size() % kBurstEvery == 0) {
            for (std::size_t b = 0;
                 b < kBurstSize && trace.unit_due.size() < requests; ++b) {
                trace.unit_due.push_back(clock);
            }
        }
    }
    const double scale =
        static_cast<double>(requests) / trace.unit_due.back();
    for (double& due : trace.unit_due) due *= scale;
    return trace;
}

serve::RepairRequest make_request(const dataset::UbCase& ub_case,
                                  std::size_t ticket) {
    serve::RepairRequest request;
    request.ticket = std::to_string(ticket);
    request.engine = kEngine;
    request.options = "model=gpt-4";
    request.policy = "paper";
    request.ub_case = ub_case;
    return request;
}

/// ServiceQueue / ServiceComplete observer (the service serializes calls).
class ServiceEventSink final : public core::TraceSink {
  public:
    void on_event(const core::TraceEvent& event) override {
        const double ms = static_cast<double>(event.value) / 1000.0;
        if (event.kind == core::TraceEventKind::ServiceQueue) {
            queue_ms.push_back(ms);
        } else if (event.kind == core::TraceEventKind::ServiceComplete) {
            service_ms.push_back(ms);
        }
    }
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
};

/// Every request of one run, pre-rendered: the warm-up, the timed traffic
/// of the rate phases, and the repeat-only traffic the saturate phase
/// drives. Tickets number all of them consecutively in that order.
struct Traffic {
    std::vector<std::string> warmup_frames;
    std::vector<std::size_t> warmup_cases;
    std::vector<std::string> repeat_frames;
    std::vector<std::size_t> repeat_cases;
    std::vector<std::string> frames;
    std::vector<std::size_t> cases;
    std::vector<double> unit_due;
    std::size_t timed_ticket_base = 0;
    std::size_t repeat_ticket_base = 0;
    double render_ms = 0.0;  // client-side render_request time, summed
};

struct Phase {
    std::string name;
    double rate_rps = 0.0;  // 0 => everything due at once
    LoadReport warmup;
    LoadReport load;
    double wall_ms = 0.0;   // phase start -> last response
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    /// Saturate only: the throughput of each all-at-once drive of the
    /// repeat traffic on the warm server.
    std::vector<double> repeat_rps;
    /// Traced phases: each response's service time minus its queue time.
    std::vector<double> repair_ms;
    double lag_p99_ms = 0.0;
    double drain_ms = 0.0;  // last due -> last response
    double interpret_calls = 0.0;
    double interpret_ms = 0.0;
    OracleDelta oracle;
    std::uint64_t steals = 0;
    std::uint64_t shed = 0;
    std::uint64_t loop_wakeups = 0;
    std::uint64_t epollout_arms = 0;
    std::uint64_t prompt_hits = 0;
    std::uint64_t prompt_lookups = 0;
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
    [[nodiscard]] bool clean() const {
        return load.failed == 0 && load.shed == 0;
    }
};


Traffic make_traffic(const ServeSetup& setup, std::uint64_t seed,
                     std::size_t timed_requests) {
    const Trace trace = make_trace(seed, setup, timed_requests);
    Traffic traffic;
    std::size_t ticket = 0;
    auto render = [&](std::size_t index) {
        const auto start = Clock::now();
        std::string frame = serve::frame(
            serve::render_request(make_request(case_at(setup, index), ticket++)));
        traffic.render_ms += ms_since(start);
        return frame;
    };
    for (std::size_t index : trace.warmup) {
        traffic.warmup_frames.push_back(render(index));
        traffic.warmup_cases.push_back(index);
    }
    for (std::size_t index : trace.cases) {
        traffic.frames.push_back(render(index));
        traffic.cases.push_back(index);
    }
    for (std::size_t index : trace.draws) {
        traffic.repeat_frames.push_back(render(index));
        traffic.repeat_cases.push_back(index);
    }
    traffic.unit_due = trace.unit_due;
    traffic.timed_ticket_base = traffic.warmup_frames.size();
    traffic.repeat_ticket_base =
        traffic.timed_ticket_base + traffic.frames.size();
    return traffic;
}

/// The same traffic cut to its first `timed` timed requests.
Traffic prefix(const Traffic& traffic, std::size_t timed) {
    Traffic out = traffic;
    out.frames.resize(timed);
    out.cases.resize(timed);
    out.unit_due.resize(timed);
    out.repeat_frames.clear();
    out.repeat_cases.clear();
    return out;
}

/// A serial BatchRunner rendering of every distinct case the traffic asks
/// for, keyed by catalog index.
std::map<std::size_t, std::uint64_t> serve_reference(const ServeSetup& setup,
                                                     const Traffic& traffic) {
    std::vector<std::size_t> distinct(traffic.cases);
    distinct.insert(distinct.end(), traffic.warmup_cases.begin(),
                    traffic.warmup_cases.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<const dataset::UbCase*> cases;
    for (std::size_t index : distinct) cases.push_back(&case_at(setup, index));
    core::EngineOptions options = core::EngineOptions::parse("model=gpt-4");
    core::set_policy_option(options, "paper");
    core::EngineBuildContext context;
    context.knowledge_base = setup.knowledge.get();
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    context.oracle = std::make_shared<verify::Oracle>(std::move(oracle_options));
    const core::BatchRunner runner(kEngine, options, context,
                                   core::BatchOptions{1});
    const core::BatchReport report = runner.run(cases);
    std::map<std::size_t, std::uint64_t> out;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
        out[distinct[i]] = result_fingerprint(report.results[i]);
    }
    return out;
}

/// Checks every response against the reference as soon as a drive ends
/// (outside its timed window), then drops the responses so the harness's
/// own memory stays out of peak_rss_mb.
class Checker {
  public:
    explicit Checker(std::map<std::size_t, std::uint64_t> reference)
        : reference_(std::move(reference)) {}

    /// Failed, shed, misordered or wrong responses count as failed.
    void check(LoadReport& load, const std::vector<std::size_t>& cases,
               std::size_t ticket_base) {
        attempted += load.responses.size();
        failed += load.failed + load.shed;
        for (std::size_t i = 0; i < load.responses.size(); ++i) {
            const serve::RepairResponse& response = load.responses[i];
            if (!response.ok) continue;  // counted above
            if (response.ticket != std::to_string(ticket_base + i) ||
                result_fingerprint(response.result) !=
                    reference_.at(cases[i])) {
                ++failed;
            }
        }
        load.responses = {};
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::map<std::size_t, std::uint64_t> reference_;
};

Phase run_phase(const ServeSetup& setup, const Traffic& traffic,
                const std::string& name, double rate_rps, bool traced,
                Checker& checker) {
    Phase phase;
    phase.name = name;
    phase.rate_rps = rate_rps;
    std::vector<double> due(traffic.frames.size(), 0.0);
    if (rate_rps > 0.0) {
        for (std::size_t i = 0; i < due.size(); ++i) {
            due[i] = traffic.unit_due[i] * 1000.0 / rate_rps;
        }
    }

    ServiceEventSink sink;
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    std::shared_ptr<TimingOracle> timing;
    serve::ServerOptions options;
    options.service.workers = kServerWorkers;
    options.service.knowledge_base = setup.knowledge.get();
    if (traced) {
        timing = std::make_shared<TimingOracle>(std::move(oracle_options));
        options.service.oracle = timing;
        options.service.trace = &sink;
    } else {
        options.service.oracle =
            std::make_shared<verify::Oracle>(std::move(oracle_options));
    }
    double interpret_calls_before = 0.0;
    double interpret_ms_before = 0.0;
    verify::ScreenStats screen_before;
    serve::ServiceStats service_before;
    serve::ServerStats server_before;
    serve::ServiceStats service_after;
    serve::ServerStats server_after;
    {
        serve::RepairServer server(options);
        // Untimed warm-up: the same prefix, all due at once.
        phase.warmup = drive_open_loop(
            server.port(), kConnections, traffic.warmup_frames,
            std::vector<double>(traffic.warmup_frames.size(), 0.0), kTimeoutMs);
        checker.check(phase.warmup, traffic.warmup_cases, 0);
        service_before = server.service().stats();
        server_before = server.stats();
        if (timing != nullptr) {
            interpret_calls_before =
                static_cast<double>(timing->interpret_counter().calls.load());
            interpret_ms_before = timing->interpret_counter().ms();
            screen_before = timing->screen_stats();
        }
        sink.queue_ms.clear();
        sink.service_ms.clear();
        if (traced) {
            Tracer::global().clear();
            Tracer::global().set_enabled(true);
        }
        if (rate_rps > 0.0) {
            phase.load = drive_open_loop(server.port(), kConnections,
                                         traffic.frames, due, kTimeoutMs);
        } else {
            // Capacity for repeat traffic: every request due at once, on the
            // warm server, a few times over.
            const std::vector<double> at_once(traffic.repeat_frames.size(), 0.0);
            std::vector<double> walls;
            for (int r = 0; r < kSaturateRepeats; ++r) {
                if (r > 0) {
                    checker.check(phase.load, traffic.repeat_cases,
                                  traffic.repeat_ticket_base);
                }
                phase.load = drive_open_loop(server.port(), kConnections,
                                             traffic.repeat_frames, at_once,
                                             kTimeoutMs);
                walls.push_back(phase.load.last_done_ms);
                phase.repeat_rps.push_back(
                    phase.load.last_done_ms > 0.0
                        ? 1000.0 * static_cast<double>(phase.load.ok) /
                              phase.load.last_done_ms
                        : 0.0);
            }
            phase.wall_ms = median(walls);
        }
        Tracer::global().set_enabled(false);
        service_after = server.service().stats();
        server_after = server.stats();
        server.stop();
    }

    if (rate_rps > 0.0) phase.wall_ms = phase.load.last_done_ms;
    phase.p50_ms = quantile(phase.load.latency_ms, 0.50);
    phase.p99_ms = quantile(phase.load.latency_ms, 0.99);
    phase.lag_p99_ms = quantile(phase.load.send_lag_ms, 0.99);
    phase.drain_ms = phase.load.last_done_ms - (due.empty() ? 0.0 : due.back());
    phase.steals = service_after.scheduler.steals - service_before.scheduler.steals;
    phase.shed = service_after.shed - service_before.shed;
    phase.loop_wakeups = server_after.loop_wakeups - server_before.loop_wakeups;
    phase.epollout_arms = server_after.epollout_arms - server_before.epollout_arms;
    phase.prompt_hits =
        service_after.prompt_cache.hits - service_before.prompt_cache.hits;
    phase.prompt_lookups = phase.prompt_hits + service_after.prompt_cache.misses -
                           service_before.prompt_cache.misses;
    if (timing != nullptr) {
        phase.interpret_calls =
            static_cast<double>(timing->interpret_counter().calls.load()) -
            interpret_calls_before;
        phase.interpret_ms = timing->interpret_counter().ms() - interpret_ms_before;
        phase.oracle = oracle_delta(service_before.verify_cache, screen_before,
                                    *timing);
    }
    phase.queue_ms = std::move(sink.queue_ms);
    phase.service_ms = std::move(sink.service_ms);
    if (traced) {
        for (const serve::RepairResponse& response : phase.load.responses) {
            if (response.ok) {
                phase.repair_ms.push_back(response.service_ms - response.queue_ms);
            }
        }
    }
    if (rate_rps > 0.0) {
        checker.check(phase.load, traffic.cases, traffic.timed_ticket_base);
    } else {
        checker.check(phase.load, traffic.repeat_cases,
                      traffic.repeat_ticket_base);
    }
    std::fprintf(stderr,
                 "[serve-open-loop] %-10s rate %6.0f/s: wall %7.1f ms, p50 %.3f "
                 "p99 %.3f ms, lag p99 %.3f ms, ok %zu shed %zu "
                 "failed %zu\n",
                 name.c_str(), rate_rps, phase.wall_ms, phase.p50_ms,
                 phase.p99_ms, phase.lag_p99_ms, phase.load.ok,
                 phase.load.shed, phase.load.failed);
    return phase;
}

/// The low phase feeds cases_per_s, so an invalid attempt (see
/// kMaxSendLagMs) is dropped and the least late attempt is kept. The
/// responses of every attempt are checked all the same.
Phase run_low_phase(const ServeSetup& setup, const Traffic& traffic,
                    Checker& checker) {
    Phase low = run_phase(setup, traffic, "low", kLowRps, false, checker);
    for (int attempt = 1;
         attempt < kLowAttempts && low.lag_p99_ms > kMaxSendLagMs; ++attempt) {
        std::fprintf(stderr,
                     "[serve-open-loop] low phase invalid: the generator fell "
                     "%.3f ms behind (limit %.1f ms); driving it again\n",
                     low.lag_p99_ms, kMaxSendLagMs);
        Phase retry = run_phase(setup, traffic, "low", kLowRps, false, checker);
        if (retry.lag_p99_ms < low.lag_p99_ms) low = std::move(retry);
    }
    if (low.lag_p99_ms > kMaxSendLagMs) {
        std::fprintf(stderr,
                     "[serve-open-loop] warning: every low attempt was late; "
                     "cases_per_s comes from one %.3f ms behind\n",
                     low.lag_p99_ms);
    }
    return low;
}

}  // namespace

RunOutcome run_serve(const RunConfig& config) {
    RunOutcome outcome;

    // --- set-up: catalog + KB + server start, repeated ----------------------
    std::vector<double> setup_seconds;
    ServeSetup setup;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        setup = make_serve_setup();
        serve::ServerOptions options;
        options.service.workers = kServerWorkers;
        options.service.knowledge_base = setup.knowledge.get();
        serve::RepairServer server(options);
        setup_seconds.push_back(ms_since(start) / 1000.0);
        server.stop();
    }
    const auto timed_requests = static_cast<std::size_t>(
        config.seconds * static_cast<double>(kTimedRequestsPerSecond));
    const Traffic traffic = make_traffic(setup, config.seed, timed_requests);
    Checker checker(serve_reference(setup, traffic));

    // --- timed phases ---------------------------------------------------------
    std::vector<Phase> phases;
    phases.push_back(run_phase(setup, traffic, "saturate", 0.0, false, checker));
    phases.push_back(run_low_phase(setup, traffic, checker));
    phases.push_back(run_phase(setup, traffic, "high", kHighRps, false, checker));
    double max_rate = 0.0;
    const Traffic ladder = prefix(traffic, traffic.frames.size() / kLadderShare);
    if (config.trace) {
        // The ladder feeds only a per-layer metric, so it runs in traced
        // runs, on a shorter prefix of the same traffic.
        for (double rate : kLadderRps) {
            phases.push_back(
                run_phase(setup, ladder, "ladder", rate, false, checker));
            const Phase& rung = phases.back();
            if (!(rung.clean() && rung.p99_ms <= kLatencyLimitMs &&
                  rung.drain_ms <= kLatencyLimitMs)) {
                break;
            }
            max_rate = rate;
        }
        phases.push_back(
            run_phase(setup, traffic, "saturate+t", 0.0, true, checker));
        phases.push_back(
            run_phase(setup, traffic, "high+t", kHighRps, true, checker));
    }
    const Phase& saturate = phases[0];
    const Phase& low = phases[1];
    const Phase& high = phases[2];

    outcome.attempted = checker.attempted;
    outcome.failed = checker.failed;
    double lag_p99 = 0.0;
    for (const Phase& phase : phases) {
        lag_p99 = std::max(lag_p99, phase.lag_p99_ms);
    }
    std::fprintf(stderr,
                 "[serve-open-loop] %llu/%llu responses wrong or missing\n",
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.attempted));

    MetricSheet& m = outcome.metrics;
    if (!config.trace) {
        m.set("setup_s", median(setup_seconds), "s");
        // Completions per second while offered the low rate: equal to that
        // rate while the server keeps up, lower as soon as it does not.
        m.set("cases_per_s",
              low.wall_ms > 0.0 ? 1000.0 * static_cast<double>(low.load.ok) /
                                      low.wall_ms
                                : 0.0,
              "1/s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        return outcome;
    }

    const Phase& saturate_traced = phases[phases.size() - 2];
    const Phase& traced = phases.back();
    declare_layer_metrics(m);
    m.set("serve.p50_ms.low", low.p50_ms, "ms");
    m.set("serve.p99_ms.low", low.p99_ms, "ms");
    m.set("serve.p50_ms.high", high.p50_ms, "ms");
    m.set("serve.p99_ms.high", high.p99_ms, "ms");
    m.set("serve.max_rate_rps", max_rate, "1/s");
    m.set("serve.capacity_rps", median(saturate.repeat_rps), "1/s");
    m.set("serve.queue_ms.p50", quantile(traced.queue_ms, 0.50), "ms");
    m.set("serve.queue_ms.p99", quantile(traced.queue_ms, 0.99), "ms");
    m.set("serve.service_ms.p50", quantile(traced.service_ms, 0.50), "ms");
    const double rendered = static_cast<double>(
        traffic.warmup_frames.size() + traffic.frames.size() +
        traffic.repeat_frames.size());
    m.set("serve.wire_ms",
          traffic.render_ms / rendered +
              traced.load.parse_ms / static_cast<double>(traffic.frames.size()),
          "ms");
    m.set("serve.loop_wakeups", static_cast<double>(traced.loop_wakeups),
          "count");
    m.set("serve.epollout_arms", static_cast<double>(traced.epollout_arms),
          "count");
    m.set("serve.shed", static_cast<double>(traced.shed), "count");
    m.set("support.steals", static_cast<double>(traced.steals), "count");
    const std::vector<double>& repair_ms = traced.repair_ms;
    m.set("core.repair_ms.p50", quantile(repair_ms, 0.50), "ms");
    m.set("core.repair_ms.p99", quantile(repair_ms, 0.99), "ms");
    m.set("llm.calls", static_cast<double>(traced.prompt_lookups), "count");
    m.set("llm.cache_hit_ratio",
          traced.prompt_lookups == 0
              ? 0.0
              : static_cast<double>(traced.prompt_hits) /
                    static_cast<double>(traced.prompt_lookups),
          "ratio");
    m.set("verify.interpret_calls", traced.interpret_calls, "count");
    m.set("verify.interpret_ms", traced.interpret_ms, "ms");
    double busy_ms = 0.0;
    for (double ms : repair_ms) busy_ms += ms;
    m.set("verify.interpret_share",
          busy_ms > 0.0 ? traced.interpret_ms / busy_ms : 0.0, "ratio");
    LayerSamples layers;
    add_oracle_layers(layers, traced.oracle);
    layers.flush(m);
    const ReplayTimes replay = replay_layers(captured_programs(), 3);
    set_replay_layers(m, replay,
                      static_cast<double>(traced.oracle.cache.program_misses));
    outcome.failed += replay.mismatches;
    m.set("loadgen.send_lag.p99_ms", lag_p99, "ms");
    m.set("bench.tracing_overhead", saturate_traced.wall_ms / saturate.wall_ms,
          "ratio");
    m.set("error_rate",
          static_cast<double>(outcome.failed) /
              static_cast<double>(outcome.attempted),
          "ratio");
    if (!config.span_path.empty()) Tracer::global().write(config.span_path);
    return outcome;
}

}  // namespace rbbench
