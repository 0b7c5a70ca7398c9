// Engineering micro-benchmarks (google-benchmark) for the substrates that
// rbbench's per-layer replay does not time: printing, the interpreter-tier
// ladder on synthetic loop-, call- and memory-heavy workloads, the Oracle
// uncached and memoized, a warm prompt-cache hit, pruning, vectorization, KB query, rule
// application, and the front end's allocation pattern over the seed-42
// forged corpus (parse, clone, teardown), the Oracle's uncached
// interpretation of that corpus, case generation alone over one pass of
// rbbench's `forge` workload, one forge slice of that workload, and the
// sweep's set-up (forge plus KB seeding). Type check, lowering, bytecode
// compile,
// screening and corpus interpretation are rbbench's `lang.*`, `miri.*`,
// `vm.*` and `screen.*` metrics (rbbench/METRICS.md). Not a paper figure —
// performance guardrails for the toolchain the experiments run on.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <optional>

#include "analysis/prune.hpp"
#include "analysis/vectorize.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "gen/registry.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/typecheck.hpp"
#include "llm/caching_backend.hpp"
#include "llm/rules.hpp"
#include "support/rng.hpp"
#include "miri/interp.hpp"
#include "verify/oracle.hpp"
#include "vm/vm.hpp"

namespace {

using namespace rustbrain;

const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const std::string& sample_source() {
    static const std::string source =
        corpus().find("uninit/partial_init_0")->buggy_source;
    return source;
}

void BM_Print(benchmark::State& state) {
    auto program = lang::try_parse(sample_source());
    for (auto _ : state) {
        std::string out = lang::print_program(*program);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Print);

// Workload for the interpreter ladder. The corpus fixes are a few
// statements each, so a run through them measures allocation setup and
// teardown — identical across execution tiers — rather than the cost of
// interpreting code. This program is the opposite shape: one hot loop,
// sixteen named locals referenced from a wide arithmetic expression, so
// the ladder exposes the actual per-tier difference (tree-walk resolves
// every name at runtime by scanning the environment and recurses through
// the expression tree; the VM resolves names to slots at compile time and
// replaces tree recursion with flat bytecode dispatch).
const char* interp_ladder_source() {
    return R"(
fn main() {
    let mut value_00: i64 = 3;
    let mut value_01: i64 = 10;
    let mut value_02: i64 = 17;
    let mut value_03: i64 = 24;
    let mut value_04: i64 = 31;
    let mut value_05: i64 = 38;
    let mut value_06: i64 = 45;
    let mut value_07: i64 = 52;
    let mut value_08: i64 = 59;
    let mut value_09: i64 = 66;
    let mut value_10: i64 = 73;
    let mut value_11: i64 = 80;
    let mut value_12: i64 = 87;
    let mut value_13: i64 = 94;
    let mut value_14: i64 = 101;
    let mut value_15: i64 = 108;
    let mut acc: i64 = 1;
    let mut i: i64 = 0;
    while i < 400 {
        acc = (acc * 31 + value_00 * 2 + value_01 * 3 + value_02 * 4 +
               value_03 * 5 + value_04 * 6 + value_05 * 7 + value_06 * 8 +
               value_07 * 9 + value_08 * 10 + value_09 * 11 + value_10 * 12 +
               value_11 * 13 + value_12 * 14 + value_13 * 15 + value_14 * 16 +
               value_15 * 17) % 1000003;
        value_00 = (value_00 + value_01) % 65521;
        value_04 = (value_04 + value_05) % 65521;
        value_08 = (value_08 + value_09) % 65521;
        value_12 = (value_12 + value_13) % 65521;
        i = i + 1;
    }
    print_int(acc);
}
)";
}

// Call-heavy ladder workload: deep direct recursion (fib re-enters the
// dispatcher through real frames) plus a long `become` chain (frame reuse
// in place). Exercises enter_function / Ret / TailCall, where fusion and
// promotion barely apply — the rung ratios show dispatch + frame overhead,
// not arithmetic.
const char* interp_call_ladder_source() {
    return R"(
fn fib(n: i64) -> i64 {
    if n < 2 {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
fn spin(n: i64, acc: i64) -> i64 {
    if n == 0 {
        return acc;
    }
    become spin(n - 1, acc + n);
}
fn main() {
    let mut total: i64 = 0;
    let mut i: i64 = 0;
    while i < 6 {
        total = (total + fib(13) + spin(600, 0)) % 1000003;
        i = i + 1;
    }
    print_int(total);
}
)";
}

// Memory-heavy ladder workload: array writes through computed indices and
// whole-array reads through a reference parameter. Every access goes
// through MemoryModel (bounds, borrows, init tracking) — the registers
// never see these values, so the rung ratios isolate dispatch over a
// memory-model-bound program.
const char* interp_memory_ladder_source() {
    return R"(
fn sum(r: &[i64; 16]) -> i64 {
    let mut acc: i64 = 0;
    let mut i: i64 = 0;
    while i < 16 {
        acc = acc + r[i];
        i = i + 1;
    }
    return acc;
}
fn main() {
    let mut a: [i64; 16] = [3, 10, 17, 24, 31, 38, 45, 52,
                            59, 66, 73, 80, 87, 94, 101, 108];
    let mut acc: i64 = 0;
    let mut i: i64 = 0;
    while i < 150 {
        a[i % 16] = (a[(i + 1) % 16] + i) % 65521;
        acc = (acc + sum(&a)) % 1000003;
        i = i + 1;
    }
    print_int(acc);
}
)";
}

// The execution-tier ladder: each workload on the tree walk and on the VM,
// with the bytecode compiled once up front (the Oracle's program cache
// amortizes it the same way).
enum class Rung { Tree, Vm };

void BM_InterpRung(benchmark::State& state, const char* source, Rung rung) {
    auto program = lang::try_parse(source);
    lang::type_check(*program);
    const vm::VmProgram bytecode =
        rung == Rung::Vm ? vm::compile(*program) : vm::VmProgram{};
    for (auto _ : state) {
        miri::RunResult result;
        switch (rung) {
            case Rung::Tree: {
                miri::Interpreter interp(*program, {});
                result = interp.run();
                break;
            }
            case Rung::Vm: {
                vm::Vm machine(*program, bytecode, {});
                result = machine.run();
                break;
            }
        }
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK_CAPTURE(BM_InterpRung, loop_heavy_tree, interp_ladder_source(),
                  Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, loop_heavy_vm, interp_ladder_source(),
                  Rung::Vm);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_tree, interp_call_ladder_source(),
                  Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_vm, interp_call_ladder_source(),
                  Rung::Vm);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_tree,
                  interp_memory_ladder_source(), Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_vm,
                  interp_memory_ladder_source(), Rung::Vm);

void BM_OracleUncached(benchmark::State& state) {
    const auto* ub_case = corpus().find("uninit/partial_init_0");
    verify::OracleOptions options;
    options.caching = false;
    const verify::Oracle oracle(std::move(options));
    for (auto _ : state) {
        auto report =
            oracle.test_source(ub_case->reference_fix, ub_case->inputs);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_OracleUncached);

void BM_OracleMemoized(benchmark::State& state) {
    const auto* ub_case = corpus().find("uninit/partial_init_0");
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    const verify::Oracle oracle(std::move(options));
    for (auto _ : state) {
        auto report =
            oracle.test_source(ub_case->reference_fix, ub_case->inputs);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_OracleMemoized);

/// CachingBackend's hit path: the call key of a rendered apply_rule prompt
/// (1,096 bytes with its code) and a PromptCache lookup that copies out a
/// code-block response, cycling over 1,024 warm calls of one session.
void BM_PromptCacheHit(benchmark::State& state) {
    const auto* ub_case = corpus().find("uninit/partial_init_0");
    llm::PromptSpec spec;
    spec.task = "apply_rule";
    spec.fields["rule"] = "init-before-read";
    spec.fields["error_category"] = "uninit";
    spec.fields["error_message"] =
        "using uninitialized memory: reading 8 bytes at alloc 3+0";
    spec.exemplar_rules = {"init-before-read", "zero-init-buffer"};
    spec.code = ub_case->buggy_source + ub_case->reference_fix;
    llm::ChatRequest request;
    request.messages.push_back({llm::Role::User, spec.render()});
    llm::ChatResponse response;
    response.content = "```rust\n" + ub_case->reference_fix + "```\n";
    response.prompt_tokens = llm::estimate_tokens(request.messages[0].content);
    response.completion_tokens = llm::estimate_tokens(response.content);

    constexpr std::uint64_t kCalls = 1024;
    llm::PromptCache cache;
    for (std::uint64_t sequence = 0; sequence < kCalls; ++sequence) {
        request.sequence = sequence;
        cache.insert(llm::call_key("gpt-4", 7, request), response);
    }
    std::uint64_t sequence = 0;
    for (auto _ : state) {
        request.sequence = sequence++ % kCalls;
        auto hit = cache.lookup(llm::call_key("gpt-4", 7, request));
        benchmark::DoNotOptimize(hit);
    }
    state.counters["prompt_bytes"] =
        static_cast<double>(request.messages[0].content.size());
    if (cache.stats().misses != 0) state.SkipWithError("a warm lookup missed");
}
BENCHMARK(BM_PromptCacheHit);

void BM_PruneAst(benchmark::State& state) {
    auto program = lang::try_parse(sample_source());
    for (auto _ : state) {
        auto pruned = analysis::prune_ast(*program);
        benchmark::DoNotOptimize(pruned);
    }
}
BENCHMARK(BM_PruneAst);

void BM_Vectorize(benchmark::State& state) {
    auto program = lang::try_parse(sample_source());
    for (auto _ : state) {
        auto vec = analysis::vectorize(*program);
        benchmark::DoNotOptimize(vec);
    }
}
BENCHMARK(BM_Vectorize);

void BM_KbQuery(benchmark::State& state) {
    static const kb::KnowledgeBase kbase = [] {
        kb::KnowledgeBase k;
        kb::seed_from_corpus(corpus(), k);
        return k;
    }();
    auto program = lang::try_parse(sample_source());
    const auto probe = analysis::vectorize(*program);
    for (auto _ : state) {
        auto hits = kbase.query(probe, 3, 0.6);
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_KbQuery);

void BM_RuleApply(benchmark::State& state) {
    const auto* ub_case = corpus().find("danglingpointer/use_after_free_0");
    auto program = lang::try_parse(ub_case->buggy_source);
    const llm::RepairRule* rule = llm::find_rule("move-dealloc-to-end");
    miri::Finding finding;
    finding.category = miri::UbCategory::DanglingPointer;
    for (auto _ : state) {
        auto patched = rule->apply(*program, finding);
        benchmark::DoNotOptimize(patched);
    }
}
BENCHMARK(BM_RuleApply);

/// The 1,120 sources (buggy and fix) of the 560-case, seed-42 forge that
/// the sweep benchmark runs.
const std::vector<std::string>& forged_sources() {
    static const std::vector<std::string> sources = [] {
        gen::ForgeOptions options;
        options.seed = 42;
        options.count = 560;
        const dataset::Corpus forged = gen::forge_corpus(options);
        std::vector<std::string> out;
        for (const dataset::UbCase& ub_case : forged.cases()) {
            out.push_back(ub_case.buggy_source);
            out.push_back(ub_case.reference_fix);
        }
        return out;
    }();
    return sources;
}

std::vector<lang::Program> parse_forged() {
    std::vector<lang::Program> programs;
    programs.reserve(forged_sources().size());
    for (const std::string& source : forged_sources()) {
        programs.push_back(std::move(*lang::try_parse(source)));
    }
    return programs;
}

// One iteration lexes, parses and renumbers all 1,120 sources; the
// programs are dropped outside the timed region (BM_TeardownForged times
// that). main() keeps the freed heap mapped, so the next iteration reuses
// it instead of faulting in fresh pages.
void BM_ParseForged(benchmark::State& state) {
    std::vector<std::optional<lang::Program>> programs;
    programs.reserve(forged_sources().size());
    for (auto _ : state) {
        for (const std::string& source : forged_sources()) {
            programs.push_back(lang::try_parse(source));
        }
        state.PauseTiming();
        programs.clear();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(forged_sources().size()));
}
BENCHMARK(BM_ParseForged);

void BM_CloneForged(benchmark::State& state) {
    const std::vector<lang::Program> programs = parse_forged();
    std::vector<lang::Program> clones;
    clones.reserve(programs.size());
    for (auto _ : state) {
        for (const lang::Program& program : programs) {
            clones.push_back(program.clone());
        }
        state.PauseTiming();
        clones.clear();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(programs.size()));
}
BENCHMARK(BM_CloneForged);

void BM_TeardownForged(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<lang::Program> programs = parse_forged();
        state.ResumeTiming();
        programs.clear();
        benchmark::DoNotOptimize(programs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(forged_sources().size()));
}
BENCHMARK(BM_TeardownForged);

// One 16-case forge slice (one case per builtin generator), as rbbench's
// `forge` workload runs them over its content seed 42: generation, the
// Oracle's compile and the acceptance runs, on a fresh cached Oracle per
// iteration so every program is new to it. The Oracle is made and dropped
// outside the timed region.
void BM_ForgeSliceForged(benchmark::State& state) {
    gen::ForgeOptions options;
    options.seed = support::derive_seed(42, "forge-slice-0");
    options.count = 16;
    std::optional<verify::Oracle> oracle;
    for (auto _ : state) {
        state.PauseTiming();
        verify::OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<verify::VerifyCache>();
        oracle.emplace(std::move(oracle_options));
        options.oracle = &*oracle;
        state.ResumeTiming();
        const dataset::Corpus corpus = gen::forge_corpus(options);
        benchmark::DoNotOptimize(corpus.size());
        state.PauseTiming();
        oracle.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(options.count));
}
BENCHMARK(BM_ForgeSliceForged);

/// The generator and Rng seed of every attempt one rbbench `forge` pass
/// makes: its 35 slices of 16 cases over content seed 42, each attempt
/// replayed up to the case the slice accepted.
struct ForgeAttempt {
    const gen::CaseGenerator* generator;
    std::uint64_t stream;
};

const std::vector<ForgeAttempt>& forge_pass_attempts() {
    static const std::vector<std::unique_ptr<gen::CaseGenerator>> generators = [] {
        std::vector<std::unique_ptr<gen::CaseGenerator>> out;
        const gen::GeneratorRegistry& registry = gen::GeneratorRegistry::builtin();
        for (const std::string& id : registry.ids()) out.push_back(registry.build(id));
        return out;
    }();
    static const std::vector<ForgeAttempt> attempts = [] {
        std::vector<ForgeAttempt> out;
        const std::size_t slice_cases = generators.size();
        for (std::size_t slice = 0; slice * slice_cases < 560; ++slice) {
            gen::ForgeOptions options;
            options.seed = support::derive_seed(42, "forge-slice-" + std::to_string(slice));
            options.count = slice_cases;
            const dataset::Corpus corpus = gen::forge_corpus(options);
            for (std::size_t serial = 0; serial < corpus.size(); ++serial) {
                const gen::CaseGenerator& generator = *generators[serial];
                const dataset::UbCase& accepted = corpus.cases()[serial];
                for (int attempt = 0;; ++attempt) {
                    const std::uint64_t stream = support::derive_seed(
                        options.seed, generator.id() + "/" + std::to_string(serial) +
                                          "/" + std::to_string(attempt));
                    out.push_back({&generator, stream});
                    support::Rng rng(stream);
                    const gen::CaseGenerator::Parsed parsed = generator.generate_parsed(rng);
                    if (parsed.value.buggy_source == accepted.buggy_source &&
                        parsed.value.reference_fix == accepted.reference_fix) {
                        break;
                    }
                }
            }
        }
        return out;
    }();
    return attempts;
}

// generate_parsed alone — draft, render, mutate, print, and the programs
// handed to the Oracle — over every attempt of one rbbench `forge` pass,
// with no Oracle involved.
void BM_GenerateForged(benchmark::State& state) {
    const std::vector<ForgeAttempt>& attempts = forge_pass_attempts();
    for (auto _ : state) {
        for (const ForgeAttempt& attempt : attempts) {
            support::Rng rng(attempt.stream);
            gen::CaseGenerator::Parsed parsed = attempt.generator->generate_parsed(rng);
            benchmark::DoNotOptimize(parsed);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(attempts.size()));
}
BENCHMARK(BM_GenerateForged);

// The sweep's set-up as rbbench's `sweep-cold` runs it: a 560-case forge on
// a fresh cached Oracle, then kb::seed_from_corpus into a fresh KB. Seeding
// runs on the process-wide Oracle, so each iteration forges content no
// earlier one did (seeds 1042, 2042, ... in call order, fixed by the
// iteration count) and its compiles miss that cache as a set-up's do.
void BM_SweepSetup(benchmark::State& state) {
    static std::uint64_t forged = 0;
    std::optional<verify::Oracle> oracle;
    for (auto _ : state) {
        state.PauseTiming();
        verify::OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<verify::VerifyCache>();
        oracle.emplace(std::move(oracle_options));
        gen::ForgeOptions options;
        options.seed = 42 + 1000 * ++forged;
        options.count = 560;
        options.oracle = &*oracle;
        kb::KnowledgeBase knowledge;
        state.ResumeTiming();
        const dataset::Corpus corpus = gen::forge_corpus(options);
        kb::seed_from_corpus(corpus, knowledge);
        state.PauseTiming();
        oracle.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_SweepSetup)->Unit(benchmark::kMillisecond)->Iterations(4);

/// The Oracle with its uncached unit of work callable.
class OpenOracle : public verify::Oracle {
  public:
    using verify::Oracle::Oracle;
    using verify::Oracle::interpret;
};

// One iteration interprets the seed-42 forge's 1,120 compiled programs
// (buggy and fix) on their inputs, with caching off, as the Oracle does on
// a report-cache miss: the tree walk, restarted on the VM past 2^10 steps.
// Compiling is outside the timed region.
void BM_InterpretForged(benchmark::State& state) {
    gen::ForgeOptions options;
    options.seed = 42;
    options.count = 560;
    const dataset::Corpus forged = gen::forge_corpus(options);
    verify::OracleOptions oracle_options;
    oracle_options.caching = false;
    const OpenOracle oracle(std::move(oracle_options));
    struct Run {
        std::shared_ptr<const verify::CompiledProgram> compiled;
        const std::vector<std::vector<std::int64_t>>* inputs;
    };
    std::vector<Run> runs;
    for (const dataset::UbCase& ub_case : forged.cases()) {
        for (const std::string* source :
             {&ub_case.buggy_source, &ub_case.reference_fix}) {
            runs.push_back({oracle.compile(*source), &ub_case.inputs});
        }
    }
    for (auto _ : state) {
        for (const Run& run : runs) {
            auto report = oracle.interpret(*run.compiled, *run.inputs);
            benchmark::DoNotOptimize(report);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(runs.size()));
}
BENCHMARK(BM_InterpretForged);

void BM_CorpusBuild(benchmark::State& state) {
    for (auto _ : state) {
        auto c = dataset::Corpus::standard();
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CorpusBuild);

}  // namespace

int main(int argc, char** argv) {
    // The *Forged benchmarks free their programs in a paused region. With
    // glibc's default trim threshold that returns the heap top to the
    // kernel, and every timed iteration then pays page faults for memory
    // the last one used. A 1 GiB threshold keeps the freed heap mapped, so
    // the timed regions run on a warm heap, as a long-running process does.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
