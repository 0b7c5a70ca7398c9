// serve::RepairService + RepairServer/RepairClient — the service answers
// exactly what a directly-built registry engine answers, deterministic
// run_batch is byte-identical to a serial BatchRunner sweep at any worker
// count (forged cases included), strategy errors come back as ok=false
// responses, feedback warms across opted-in requests, stats add up, and
// the loopback socket path round-trips real repairs plus the bad-request
// error path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace rustbrain::serve {
namespace {

/// Shared fixtures: one standard corpus and one seeded knowledge base per
/// process (seeding verifies every rule — not free).
const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const kb::KnowledgeBase& knowledge_base() {
    static const kb::KnowledgeBase kbase = [] {
        kb::KnowledgeBase fresh;
        kb::seed_from_corpus(corpus(), fresh);
        return fresh;
    }();
    return kbase;
}

ServiceOptions service_options(std::size_t workers = 1) {
    ServiceOptions options;
    options.workers = workers;
    options.knowledge_base = &knowledge_base();
    return options;
}

TEST(RepairServiceTest, RepairMatchesADirectlyBuiltRegistryEngine) {
    RepairService service(service_options());
    const dataset::UbCase& ub_case = corpus().cases().front();

    RepairRequest request;
    request.ticket = "direct-compare";
    request.ub_case = ub_case;
    const RepairResponse response = service.repair(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.ticket, "direct-compare");
    EXPECT_EQ(response.result.case_id, ub_case.id);

    core::EngineBuildContext context;
    context.knowledge_base = &knowledge_base();
    const auto engine = core::EngineRegistry::builtin().build(
        "rustbrain", {}, context);
    EXPECT_EQ(render_case_result(response.result),
              render_case_result(engine->repair(ub_case)));
}

TEST(RepairServiceTest, RunBatchAtFourWorkersIsByteIdenticalToSerialSweep) {
    // Deterministic mode: ordered merge + per-request engines + bit-identity
    // caches => the rendered results cannot depend on the worker count.
    // 24 hand-written cases plus 4 forged ones the caches have never seen.
    const std::size_t kStandard = 24;
    const std::size_t kForged = 4;
    const std::size_t kCases = kStandard + kForged;
    ASSERT_GE(corpus().size(), kStandard);
    std::vector<dataset::UbCase> subset(corpus().cases().begin(),
                                        corpus().cases().begin() + kStandard);
    gen::ForgeOptions forge_options;
    forge_options.seed = 2025;
    forge_options.count = kForged;
    const dataset::Corpus forged = gen::forge_corpus(forge_options);
    ASSERT_EQ(forged.size(), kForged);
    subset.insert(subset.end(), forged.cases().begin(), forged.cases().end());

    RepairService service(service_options(/*workers=*/4));
    std::vector<RepairRequest> requests;
    for (const dataset::UbCase& ub_case : subset) {
        RepairRequest request;
        request.ub_case = ub_case;
        requests.push_back(std::move(request));
    }
    const std::vector<RepairResponse> responses =
        service.run_batch(std::move(requests));
    ASSERT_EQ(responses.size(), kCases);

    core::EngineBuildContext context;
    context.knowledge_base = &knowledge_base();
    const core::BatchRunner serial("rustbrain", {}, context,
                                   core::BatchOptions{1});
    const core::BatchReport report = serial.run(dataset::Corpus(subset));
    ASSERT_EQ(report.results.size(), kCases);
    for (std::size_t i = 0; i < kCases; ++i) {
        ASSERT_TRUE(responses[i].ok) << responses[i].error;
        EXPECT_EQ(render_case_result(responses[i].result),
                  render_case_result(report.results[i]))
            << subset[i].id;
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kCases);
    EXPECT_EQ(stats.completed, kCases);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.scheduler.submitted, kCases);
    EXPECT_GE(stats.queue_ms_total, 0.0);
    EXPECT_GE(stats.queue_ms_max, 0.0);
    EXPECT_GE(stats.service_ms_total, stats.queue_ms_total);
    EXPECT_EQ(service.workers(), 4u);
}

TEST(RepairServiceTest, UnknownStrategyComesBackAsAnErrorResponse) {
    RepairService service(service_options());
    RepairRequest request;
    request.engine = "no-such-engine";
    request.ub_case = corpus().cases().front();
    const RepairResponse response = service.repair(request);
    EXPECT_FALSE(response.ok);
    // The registry's help text travels back to the client verbatim.
    EXPECT_NE(response.error.find("unknown engine id 'no-such-engine'"),
              std::string::npos)
        << response.error;
    EXPECT_NE(response.error.find("rustbrain"), std::string::npos);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);

    // One typo never poisons the queue: the next request succeeds.
    request.engine.clear();
    EXPECT_TRUE(service.repair(request).ok);
}

TEST(RepairServiceTest, MistypedDefaultsFailAtConstructionNotPerRequest) {
    ServiceOptions bad_engine = service_options();
    bad_engine.default_engine = "no-such-engine";
    EXPECT_THROW((RepairService(bad_engine)), std::invalid_argument);

    ServiceOptions bad_policy = service_options();
    bad_policy.default_policy = "no-such-policy";
    EXPECT_THROW((RepairService(bad_policy)), std::invalid_argument);
}

TEST(RepairServiceTest, FeedbackWarmsAcrossOptedInRequests) {
    RepairService service(service_options());
    EXPECT_EQ(service.feedback_snapshot().records(), 0u);

    RepairRequest request;
    request.use_feedback = true;
    request.ub_case = corpus().cases().front();
    ASSERT_TRUE(service.repair(request).ok);

    // The repair's slow-thinking evaluations were journaled into the warm
    // store, and the service accounted for exactly that delta.
    const core::FeedbackStore after_one = service.feedback_snapshot();
    EXPECT_GT(after_one.records(), 0u);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.feedback_requests, 1u);
    EXPECT_EQ(stats.feedback_records_absorbed, after_one.records());

    // A second opted-in request keeps absorbing only its own delta.
    ASSERT_TRUE(service.repair(request).ok);
    stats = service.stats();
    EXPECT_EQ(stats.feedback_requests, 2u);
    EXPECT_EQ(stats.feedback_records_absorbed,
              service.feedback_snapshot().records());

    // Requests that do not opt in leave the warm store untouched.
    request.use_feedback = false;
    const std::uint64_t before = service.feedback_snapshot().records();
    ASSERT_TRUE(service.repair(request).ok);
    EXPECT_EQ(service.feedback_snapshot().records(), before);
    EXPECT_EQ(service.stats().feedback_requests, 2u);
}

TEST(RepairServiceTest, SharedCachesWarmAcrossRepeatedRequests) {
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    ServiceOptions options = service_options();
    options.oracle =
        std::make_shared<const verify::Oracle>(std::move(oracle_options));
    RepairService service(options);
    RepairRequest request;
    request.ub_case = corpus().cases().front();
    const std::string first =
        render_case_result(service.repair(request).result);
    const ServiceStats cold = service.stats();
    const std::string second =
        render_case_result(service.repair(request).result);
    const ServiceStats warm = service.stats();
    // Bit-identity: the warm answer is the cold answer.
    EXPECT_EQ(first, second);
    // ... and it actually came from the shared stores.
    EXPECT_GT(warm.prompt_cache.hits, cold.prompt_cache.hits);
    EXPECT_GT(warm.verify_cache.report_hits, cold.verify_cache.report_hits);
}

TEST(RepairServerTest, LoopbackEndToEndIncludingTheBadRequestPath) {
    ServerOptions options;
    options.service = service_options();
    options.port = 0;  // ephemeral
    RepairServer server(options);
    ASSERT_GT(server.port(), 0u);

    RepairClient client(server.port());
    RepairRequest request;
    request.ticket = "e2e-0";
    request.ub_case = corpus().cases().front();
    const RepairResponse response = client.repair(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.ticket, "e2e-0");
    EXPECT_EQ(response.result.case_id, request.ub_case.id);
    // The socket hop is render/parse, so the result matches an in-process
    // repair byte for byte.
    EXPECT_EQ(render_case_result(response.result),
              render_case_result(
                  server.service().repair(request).result));

    // A garbage frame gets a well-formed error response, not a hangup.
    const RepairResponse bad =
        parse_response(client.roundtrip_raw("not a rustbrain request"));
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("wire format error"), std::string::npos)
        << bad.error;

    // The connection survived the bad frame.
    request.ticket = "e2e-1";
    EXPECT_TRUE(client.repair(request).ok);

    server.stop();
    EXPECT_EQ(server.requests_served(), 3u);
}

TEST(RepairServerTest, DeeplyNestedSourceGetsAFramedResponse) {
    // 60 000 unary minus signs: far past the parser's nesting cap, and
    // under the wire's kMaxSourceBytes, so the request reaches an engine.
    ServerOptions options;
    options.service = service_options();
    RepairServer server(options);

    RepairClient client(server.port());
    RepairRequest request;
    request.ticket = "deep";
    request.ub_case = corpus().cases().front();
    request.ub_case.buggy_source =
        "fn main() { let x = " + std::string(60'000, '-') + "1; }";
    ASSERT_LE(request.ub_case.buggy_source.size(), kMaxSourceBytes);
    const RepairResponse response = client.repair(request);
    EXPECT_EQ(response.ticket, "deep");
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_FALSE(response.result.pass);

    // The server is still up and answering on the same connection.
    request.ticket = "after";
    request.ub_case = corpus().cases().front();
    EXPECT_TRUE(client.repair(request).ok);
    server.stop();
}

TEST(RepairServerTest, OverCapAllocationGetsAFindingAndServingGoesOn) {
    // alloc(100000000, 8) once ended the process with std::bad_alloc; the
    // per-run memory cap turns it into an Alloc finding.
    ServerOptions options;
    options.service = service_options();
    RepairServer server(options);

    RepairClient client(server.port());
    RepairRequest request;
    request.ticket = "huge";
    request.ub_case = corpus().cases().front();
    request.ub_case.buggy_source =
        "fn main() {\n    unsafe {\n        let p = alloc(100000000, 8);\n"
        "        dealloc(p, 100000000, 8);\n    }\n}\n";
    const RepairResponse response = client.repair(request);
    EXPECT_EQ(response.ticket, "huge");
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_FALSE(response.result.error_trajectory.empty());
    EXPECT_GE(response.result.error_trajectory.front(), 1u);

    request.ticket = "after";
    request.ub_case = corpus().cases().front();
    EXPECT_TRUE(client.repair(request).ok);
    server.stop();
}

TEST(RepairServerTest, OverCapArrayRepeatGetsAFindingAndServingGoesOn) {
    // [0; 100000000] once built 10^8 values and ended the process with
    // std::bad_alloc; the repeat is now checked against the memory cap
    // first, so the request gets its finding back in a frame.
    ServerOptions options;
    options.service = service_options();
    RepairServer server(options);

    RepairClient client(server.port());
    RepairRequest request;
    request.ticket = "repeat";
    request.ub_case = corpus().cases().front();
    request.ub_case.buggy_source =
        "fn main() {\n    let a = [0; 100000000];\n    print_int(a[0]);\n}\n";
    const RepairResponse response = client.repair(request);
    EXPECT_EQ(response.ticket, "repeat");
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_FALSE(response.result.error_trajectory.empty());
    EXPECT_GE(response.result.error_trajectory.front(), 1u);

    request.ticket = "after";
    request.ub_case = corpus().cases().front();
    EXPECT_TRUE(client.repair(request).ok);
    server.stop();
}

TEST(RepairServerTest, ServeOnceShutsDownAfterTheRequestBudget) {
    ServerOptions options;
    options.service = service_options();
    options.max_requests = 2;
    RepairServer server(options);

    RepairClient client(server.port());
    RepairRequest request;
    request.ub_case = corpus().cases().front();
    EXPECT_TRUE(client.repair(request).ok);
    EXPECT_TRUE(client.repair(request).ok);
    server.wait();  // returns because the budget is exhausted
    EXPECT_EQ(server.requests_served(), 2u);
}

TEST(RepairServiceTest, QueuePercentilesReportedAndStatsStayConsistent) {
    RepairService service(service_options(/*workers=*/2));
    const std::size_t kCases = 12;
    std::vector<RepairRequest> requests;
    for (std::size_t i = 0; i < kCases; ++i) {
        RepairRequest request;
        request.ub_case = corpus().cases()[i % corpus().size()];
        requests.push_back(std::move(request));
    }
    (void)service.run_batch(std::move(requests));
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, kCases);
    EXPECT_EQ(stats.shed, 0u);
    // Percentiles come from the reservoir of per-request queue_ms samples:
    // monotone in the fraction and bounded by the observed maximum.
    EXPECT_GE(stats.queue_ms_p50, 0.0);
    EXPECT_LE(stats.queue_ms_p50, stats.queue_ms_p95);
    EXPECT_LE(stats.queue_ms_p95, stats.queue_ms_p99);
    EXPECT_LE(stats.queue_ms_p99, stats.queue_ms_max);
}

TEST(RepairServiceTest, DestroyedWithQueuedRequestsRunsEachCallbackOnce) {
    // One worker, a backlog, and no wait: the service's destructor must run
    // every queued repair, each callback once, while the stores the repairs
    // read are still alive.
    constexpr std::size_t kRequests = 6;
    std::vector<std::atomic<int>> calls(kRequests);
    std::atomic<std::size_t> ok{0};
    {
        RepairService service(service_options(/*workers=*/1));
        for (std::size_t i = 0; i < kRequests; ++i) {
            RepairRequest request;
            request.ticket = std::to_string(i);
            request.ub_case = corpus().cases()[i % corpus().size()];
            service.submit_async(std::move(request),
                                 [&, i](RepairResponse response) {
                                     ++calls[i];
                                     if (response.ok &&
                                         response.ticket == std::to_string(i)) {
                                         ++ok;
                                     }
                                 });
        }
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(calls[i].load(), 1) << "request " << i;
    }
    EXPECT_EQ(ok.load(), kRequests);
}

/// Holds every dequeued request at its ServiceQueue event until released,
/// so an admitted request provably stays in flight while the test submits.
class QueueGate final : public core::TraceSink {
  public:
    void on_event(const core::TraceEvent& event) override {
        if (event.kind == core::TraceEventKind::ServiceQueue) opened_.wait();
    }
    void open() { gate_.set_value(); }

  private:
    std::promise<void> gate_;
    std::shared_future<void> opened_ = gate_.get_future().share();
};

TEST(RepairServiceTest, MaxInflightShedsSynchronouslyWithRetryAdvice) {
    QueueGate gate;
    ServiceOptions options = service_options(/*workers=*/1);
    options.max_inflight = 1;
    options.trace = &gate;
    RepairService service(options);
    // Saturate the one admission slot, then submit more without waiting:
    // everything past the slot must shed immediately, synchronously on the
    // submitting thread, with the request never queued. The gate keeps the
    // admitted request from finishing early on a busy machine.
    std::vector<std::future<RepairResponse>> futures;
    for (std::size_t i = 0; i < 8; ++i) {
        RepairRequest request;
        request.ticket = "s-" + std::to_string(i);
        request.ub_case = corpus().cases().front();
        futures.push_back(service.submit(std::move(request)));
    }
    gate.open();
    std::size_t ok = 0;
    std::size_t shed = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const RepairResponse response = futures[i].get();
        EXPECT_EQ(response.ticket, "s-" + std::to_string(i));
        if (response.shed) {
            ++shed;
            EXPECT_FALSE(response.ok);
            EXPECT_GE(response.retry_after_ms, 1.0);
        } else {
            ASSERT_TRUE(response.ok) << response.error;
            ++ok;
        }
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(shed, 7u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.shed, shed);
    EXPECT_EQ(stats.completed, ok);
}

}  // namespace
}  // namespace rustbrain::serve
