// Engineering micro-benchmarks (google-benchmark) for the substrates that
// rbbench's per-layer replay does not time: printing, the interpreter-tier
// ladder on synthetic loop-, call- and memory-heavy workloads, the Oracle
// uncached and memoized, pruning, vectorization, KB query, rule
// application. Parse, type check, lowering, bytecode compile and optimize,
// screening and corpus interpretation are rbbench's `lang.*`, `miri.*`,
// `vm.*` and `screen.*` metrics (rbbench/METRICS.md). Not a paper figure —
// performance guardrails for the toolchain the experiments run on.
#include <benchmark/benchmark.h>

#include "analysis/prune.hpp"
#include "analysis/vectorize.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/typecheck.hpp"
#include "llm/rules.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "verify/oracle.hpp"
#include "vm/peephole.hpp"
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

// The execution-tier ladder: each workload on the tree walk, the VM on
// raw bytecode, and the VM on vm::optimize output, with the bytecode
// compiled once up front (the Oracle's program cache amortizes it the
// same way).
enum class Rung { Tree, Vm, VmOpt };

void BM_InterpRung(benchmark::State& state, const char* source, Rung rung) {
    auto program = lang::try_parse(source);
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    const bool wants_vm = rung == Rung::Vm || rung == Rung::VmOpt;
    const vm::VmProgram bytecode =
        wants_vm ? vm::compile(*program, lowered) : vm::VmProgram{};
    const vm::VmProgram optimized =
        rung == Rung::VmOpt ? vm::optimize(bytecode) : vm::VmProgram{};
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
            case Rung::VmOpt: {
                vm::Vm machine(*program, optimized, {});
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
BENCHMARK_CAPTURE(BM_InterpRung, loop_heavy_vm_opt, interp_ladder_source(),
                  Rung::VmOpt);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_tree, interp_call_ladder_source(),
                  Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_vm, interp_call_ladder_source(),
                  Rung::Vm);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_vm_opt,
                  interp_call_ladder_source(), Rung::VmOpt);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_tree,
                  interp_memory_ladder_source(), Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_vm,
                  interp_memory_ladder_source(), Rung::Vm);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_vm_opt,
                  interp_memory_ladder_source(), Rung::VmOpt);

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

void BM_CorpusBuild(benchmark::State& state) {
    for (auto _ : state) {
        auto c = dataset::Corpus::standard();
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CorpusBuild);

}  // namespace

BENCHMARK_MAIN();
