#include "seams.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

namespace rbbench {

namespace {

thread_local SpanRecorder* t_recorder = nullptr;

bool same_name(const char* a, const char* b) {
    return a == b || std::strcmp(a, b) == 0;
}

std::uint64_t capture_key(std::uint64_t fingerprint,
                          const std::vector<std::vector<std::int64_t>>& inputs) {
    std::uint64_t h = fingerprint ^ 0x9E3779B97F4A7C15ULL;
    for (const auto& run : inputs) {
        h = (h ^ run.size()) * 1099511628211ULL;
        for (std::int64_t value : run) {
            h = (h ^ static_cast<std::uint64_t>(value)) * 1099511628211ULL;
        }
    }
    return h;
}

class TimedBackend final : public llm::LlmBackend {
  public:
    TimedBackend(std::unique_ptr<llm::LlmBackend> inner, const char* span_name,
                 std::shared_ptr<SeamCounter> counter)
        : inner_(std::move(inner)),
          span_name_(span_name),
          counter_(std::move(counter)) {}

    llm::ChatResponse complete(const llm::ChatRequest& request) override {
        const ScopedSpan span(span_name_);
        const auto start = Clock::now();
        llm::ChatResponse response = inner_->complete(request);
        counter_->add(start);
        return response;
    }
    [[nodiscard]] std::uint64_t calls_served() const override {
        return inner_->calls_served();
    }
    // Transparent: decorated sessions must describe (and therefore key
    // caches) exactly like the bare ones.
    [[nodiscard]] std::string description() const override {
        return inner_->description();
    }

  private:
    std::unique_ptr<llm::LlmBackend> inner_;
    const char* span_name_;
    std::shared_ptr<SeamCounter> counter_;
};

const char* stage_span_name(const std::string& label) {
    if (label == "fast_thinking") return span::kFast;
    if (label == "slow_thinking") return span::kSlow;
    return span::kStage;
}

}  // namespace

std::int32_t SpanRecorder::open(const char* name, std::int32_t case_id) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    if (case_id < 0 && parent >= 0) case_id = spans_[parent].case_id;
    const double now = Tracer::global().now_ms();
    spans_.push_back({name, now, now, parent, case_id});
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void SpanRecorder::close(std::int32_t index) {
    spans_[index].end_ms = Tracer::global().now_ms();
    // Spans close innermost-first; tolerate an unbalanced stage stream by
    // also popping anything opened above `index`.
    while (!open_.empty()) {
        const std::int32_t top = open_.back();
        open_.pop_back();
        if (top == index) break;
        spans_[top].end_ms = spans_[index].end_ms;
    }
}

void SpanRecorder::close_named(const char* name) {
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
        if (same_name(spans_[*it].name, name)) {
            close(*it);
            return;
        }
    }
}

void SpanRecorder::capture(const verify::CompiledProgram& compiled,
                           const std::vector<std::vector<std::int64_t>>& inputs) {
    if (!seen_.insert(capture_key(compiled.fingerprint, inputs)).second) return;
    captured_.push_back({compiled.fingerprint, compiled.source, inputs});
}

void SpanRecorder::clear() {
    spans_.clear();
    open_.clear();
    seen_.clear();
    captured_.clear();
    kb_consults = 0;
    kb_skips = 0;
}

Tracer& Tracer::global() {
    static Tracer tracer;
    return tracer;
}

SpanRecorder* Tracer::recorder() {
    if (!enabled()) return nullptr;
    if (t_recorder == nullptr) {
        // Recorders live as long as the process, so a thread-local pointer
        // can never dangle even after its thread's pool is torn down.
        const std::lock_guard<std::mutex> lock(mutex_);
        recorders_.push_back(std::make_unique<SpanRecorder>());
        t_recorder = recorders_.back().get();
    }
    return t_recorder;
}

void Tracer::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& recorder : recorders_) recorder->clear();
}

std::vector<const SpanRecorder*> Tracer::recorders() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const SpanRecorder*> out;
    for (const auto& recorder : recorders_) out.push_back(recorder.get());
    return out;
}

bool Tracer::write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "recorder\tindex\tname\tstart_ms\tend_ms\tparent\tcase\n");
    const std::vector<const SpanRecorder*> all = recorders();
    for (std::size_t r = 0; r < all.size(); ++r) {
        const std::vector<Span>& spans = all[r]->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            std::fprintf(file, "%zu\t%zu\t%s\t%.6f\t%.6f\t%d\t%d\n", r, i,
                         spans[i].name, spans[i].start_ms, spans[i].end_ms,
                         spans[i].parent, spans[i].case_id);
        }
    }
    return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::int32_t case_id)
    : recorder_(Tracer::global().recorder()) {
    if (recorder_ != nullptr) index_ = recorder_->open(name, case_id);
}

ScopedSpan::~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
}

void SeamCounter::add(Clock::time_point start) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
    calls.fetch_add(1, std::memory_order_relaxed);
    nanos.fetch_add(static_cast<std::uint64_t>(elapsed.count()),
                    std::memory_order_relaxed);
}

miri::MiriReport TimingOracle::interpret(
    const verify::CompiledProgram& compiled,
    const std::vector<std::vector<std::int64_t>>& input_sets) const {
    const ScopedSpan span(span::kInterpret);
    const auto start = Clock::now();
    miri::MiriReport report = Oracle::interpret(compiled, input_sets);
    interpret_.add(start);
    if (SpanRecorder* recorder = Tracer::global().recorder()) {
        recorder->capture(compiled, input_sets);
    }
    return report;
}

llm::BackendFactory timed_backend_factory(llm::BackendFactory inner,
                                          const char* span_name,
                                          std::shared_ptr<SeamCounter> counter) {
    if (!inner) inner = llm::sim_backend_factory();
    return [inner = std::move(inner), span_name, counter = std::move(counter)](
               const llm::ModelProfile& profile,
               std::uint64_t session_seed) -> std::unique_ptr<llm::LlmBackend> {
        return std::make_unique<TimedBackend>(inner(profile, session_seed),
                                              span_name, counter);
    };
}

void StageSpanSink::on_event(const core::TraceEvent& event) {
    SpanRecorder* recorder = Tracer::global().recorder();
    if (recorder == nullptr) return;
    switch (event.kind) {
        case core::TraceEventKind::StageEnter:
            recorder->open(stage_span_name(event.label));
            break;
        case core::TraceEventKind::StageExit:
            recorder->close_named(stage_span_name(event.label));
            break;
        case core::TraceEventKind::KbConsult:
            ++recorder->kb_consults;
            break;
        case core::TraceEventKind::KbSkip:
            ++recorder->kb_skips;
            break;
        default:
            break;
    }
}

std::vector<double> CaseLatencies::all() const {
    std::vector<double> out;
    for (const auto& worker : per_worker) {
        out.insert(out.end(), worker.begin(), worker.end());
    }
    return out;
}

core::EngineFactory timed_engine_factory(const std::string& engine_id,
                                         const core::EngineOptions& options,
                                         core::EngineBuildContext context,
                                         const dataset::Corpus* corpus,
                                         CaseLatencies* latencies,
                                         bool stage_spans) {
    // Same wiring as BatchRunner's registry constructor: no shared mutable
    // feedback store, no shared sink.
    context.feedback = nullptr;
    context.trace = nullptr;
    return [engine_id, options, context, corpus, latencies,
            stage_spans](std::size_t worker) -> core::RepairFn {
        std::shared_ptr<core::RepairEngine> engine =
            core::EngineRegistry::builtin().build(engine_id, options, context);
        std::shared_ptr<StageSpanSink> sink;
        if (stage_spans) {
            sink = std::make_shared<StageSpanSink>();
            engine->set_trace_sink(sink.get());
        }
        std::vector<double>* out = &latencies->per_worker.at(worker);
        return [engine, sink, corpus, out](const dataset::UbCase& ub_case) {
            std::int32_t case_id = -1;
            if (corpus != nullptr && !corpus->cases().empty()) {
                const dataset::UbCase* base = corpus->cases().data();
                if (&ub_case >= base && &ub_case < base + corpus->size()) {
                    case_id = static_cast<std::int32_t>(&ub_case - base);
                }
            }
            const ScopedSpan span(span::kRepair, case_id);
            const auto start = Clock::now();
            core::CaseResult result = engine->repair(ub_case);
            out->push_back(ms_since(start));
            return result;
        };
    };
}

double self_ms(const char* name) {
    double total = 0.0;
    for (const SpanRecorder* recorder : Tracer::global().recorders()) {
        const std::vector<Span>& spans = recorder->spans();
        std::vector<double> child_cover(spans.size(), 0.0);
        for (const Span& s : spans) {
            if (s.parent >= 0) child_cover[s.parent] += s.end_ms - s.start_ms;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (same_name(spans[i].name, name)) {
                total += (spans[i].end_ms - spans[i].start_ms) - child_cover[i];
            }
        }
    }
    return total;
}

}  // namespace rbbench
