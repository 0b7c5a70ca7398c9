// Outside-seam timing kit: everything the benchmark learns about where time
// goes, it learns by wrapping the library's public seams — never by
// instrumenting the library itself.
//
//   * TimingOracle — a verify::Oracle subclass overriding the virtual
//     interpret(): counts and times every real interpretation and captures
//     the (source, inputs) pair for layer replay;
//   * timed_backend_factory — an llm::LlmBackend decorator; placed inside
//     llm::caching_backend_factory it times the simulated model, placed
//     outside it times model + cache;
//   * StageSpanSink — a core::TraceSink turning StageEnter/StageExit events
//     into steady_clock spans and tallying KB consults/skips;
//   * timed_engine_factory — a core::EngineFactory that builds registry
//     engines one per worker and times every RepairEngine::repair call.
//
// Spans (name, start, end, parent, case id) go to a per-thread
// SpanRecorder owned by the process-wide Tracer. They stay in memory and
// are written out once, when the run ends. Tracing off means no recorder:
// every seam then reduces to its counters (or to the plain library object,
// which is what untraced runs use).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "core/trace.hpp"
#include "dataset/corpus.hpp"
#include "llm/backend.hpp"
#include "verify/oracle.hpp"

namespace rbbench {

namespace dataset = rustbrain::dataset;
namespace llm = rustbrain::llm;
namespace miri = rustbrain::miri;
namespace verify = rustbrain::verify;

struct Span {
    const char* name = "";  // static storage
    double start_ms = 0.0;  // since the Tracer's epoch
    double end_ms = 0.0;
    std::int32_t parent = -1;  // index into the same recorder, -1 = root
    std::int32_t case_id = -1;
};

/// A program the Oracle really interpreted, kept for layer replay.
struct CapturedProgram {
    std::uint64_t fingerprint = 0;
    std::string source;
    std::vector<std::vector<std::int64_t>> inputs;
};

/// One thread's spans. Only its own thread writes to it; readers wait until
/// the traced work has joined.
class SpanRecorder {
  public:
    /// Opens a span under the innermost open one; a child inherits its
    /// parent's case id unless one is given.
    std::int32_t open(const char* name, std::int32_t case_id = -1);
    void close(std::int32_t index);
    /// Closes the innermost open span called `name` (StageExit events carry
    /// only the stage name).
    void close_named(const char* name);
    void capture(const verify::CompiledProgram& compiled,
                 const std::vector<std::vector<std::int64_t>>& inputs);
    void clear();

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] const std::vector<CapturedProgram>& captured() const {
        return captured_;
    }

    std::uint64_t kb_consults = 0;
    std::uint64_t kb_skips = 0;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::unordered_set<std::uint64_t> seen_;
    std::vector<CapturedProgram> captured_;
};

/// Process-wide registry of per-thread recorders.
class Tracer {
  public:
    static Tracer& global();

    void set_enabled(bool enabled) { enabled_.store(enabled); }
    [[nodiscard]] bool enabled() const { return enabled_.load(); }
    /// This thread's recorder (registered on first use), or null when
    /// tracing is off.
    SpanRecorder* recorder();
    /// Drops every recorded span. Call only while no traced work runs.
    void clear();
    [[nodiscard]] std::vector<const SpanRecorder*> recorders() const;
    [[nodiscard]] double now_ms() const { return ms_since(epoch_); }

    /// Tab-separated dump: recorder, index, name, start, end, parent, case.
    bool write(const std::string& path) const;

  private:
    Tracer() : epoch_(Clock::now()) {}

    Clock::time_point epoch_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<SpanRecorder>> recorders_;
};

/// RAII span on this thread's recorder (a no-op when tracing is off).
class ScopedSpan {
  public:
    explicit ScopedSpan(const char* name, std::int32_t case_id = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* recorder_;
    std::int32_t index_ = -1;
};

/// Call count plus busy time of one seam, summed over threads.
struct SeamCounter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};

    void add(Clock::time_point start);
    [[nodiscard]] double ms() const { return static_cast<double>(nanos.load()) / 1e6; }
};

class TimingOracle final : public verify::Oracle {
  public:
    explicit TimingOracle(verify::OracleOptions options = {})
        : Oracle(std::move(options)) {}

    [[nodiscard]] const SeamCounter& interpret_counter() const {
        return interpret_;
    }

  protected:
    [[nodiscard]] miri::MiriReport interpret(
        const verify::CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets)
        const override;

  private:
    mutable SeamCounter interpret_;
};

/// Wraps every session `inner` opens in a decorator that times complete()
/// into `counter` and records a span called `span_name`.
llm::BackendFactory timed_backend_factory(llm::BackendFactory inner,
                                          const char* span_name,
                                          std::shared_ptr<SeamCounter> counter);

/// Turns engine stage events into spans on the emitting thread's recorder.
class StageSpanSink final : public core::TraceSink {
  public:
    void on_event(const core::TraceEvent& event) override;
};

/// Per-worker repair latencies, written by exactly one worker each.
struct CaseLatencies {
    explicit CaseLatencies(std::size_t workers) : per_worker(workers) {}
    std::vector<std::vector<double>> per_worker;
    [[nodiscard]] std::vector<double> all() const;
};

/// Engines built from the registry one per worker (exactly what
/// BatchRunner's registry constructor does), each repair timed into
/// `latencies`; with `stage_spans` every engine also reports to a
/// StageSpanSink and each repair is a "core.repair" span.
core::EngineFactory timed_engine_factory(const std::string& engine_id,
                                         const core::EngineOptions& options,
                                         core::EngineBuildContext context,
                                         const dataset::Corpus* corpus,
                                         CaseLatencies* latencies,
                                         bool stage_spans);

/// Span names used across the kit.
namespace span {
inline constexpr const char* kRepair = "core.repair";
inline constexpr const char* kFast = "core.fast_thinking";
inline constexpr const char* kSlow = "core.slow_thinking";
inline constexpr const char* kStage = "core.stage";
inline constexpr const char* kLlmOuter = "llm.cache";
inline constexpr const char* kLlmSim = "llm.sim";
inline constexpr const char* kInterpret = "verify.interpret";
inline constexpr const char* kForge = "gen.forge";
}  // namespace span

/// Self time of every span called `name` — its duration minus what its
/// direct children cover — summed over all recorders, in ms.
double self_ms(const char* name);

}  // namespace rbbench
