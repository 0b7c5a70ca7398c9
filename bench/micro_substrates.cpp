// Engineering micro-benchmarks (google-benchmark) for the substrates:
// parser, type checker, interpreter, pruning, vectorization, KB query,
// rule application. Not a paper figure — performance guardrails for the
// toolchain the experiments run on.
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
#include "miri/mirilite.hpp"
#include "screen/screen.hpp"
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

void BM_Parse(benchmark::State& state) {
    for (auto _ : state) {
        auto program = lang::try_parse(sample_source());
        benchmark::DoNotOptimize(program);
    }
}
BENCHMARK(BM_Parse);

void BM_TypeCheck(benchmark::State& state) {
    auto program = lang::try_parse(sample_source());
    for (auto _ : state) {
        lang::Program clone = program->clone();
        const bool ok = lang::type_check(clone);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_TypeCheck);

void BM_Print(benchmark::State& state) {
    auto program = lang::try_parse(sample_source());
    for (auto _ : state) {
        std::string out = lang::print_program(*program);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Print);

void BM_MiriRun(benchmark::State& state) {
    const auto* ub_case = corpus().find("uninit/partial_init_0");
    miri::MiriLite miri;
    for (auto _ : state) {
        auto report = miri.test_source(ub_case->reference_fix, ub_case->inputs);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_MiriRun);

void BM_MiriThreadedRun(benchmark::State& state) {
    const auto* ub_case = corpus().find("datarace/counter_0");
    miri::MiriLite miri;
    for (auto _ : state) {
        auto report = miri.test_source(ub_case->reference_fix, ub_case->inputs);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_MiriThreadedRun);

// Workload for the interpreter ladder. The corpus fixes are a few
// statements each, so a run through them measures allocation setup and
// teardown — identical across execution tiers — rather than the cost of
// interpreting code. This program is the opposite shape: one hot loop,
// sixteen named locals referenced from a wide arithmetic expression, so
// the ladder exposes the actual per-tier difference (tree-walk resolves
// every name at runtime by scanning the environment and recurses through
// the expression tree; the slot interpreter and the VM resolve names to
// slots at lower/compile time, and the VM additionally replaces tree
// recursion with flat bytecode dispatch).
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

// The execution-tier ladder, all rungs over interp_ladder_source():
// tree-walk interpretation, slot-lowered interpretation, bytecode-VM
// interpretation, and the VM's one-time compile cost.
void BM_InterpTreeWalk(benchmark::State& state) {
    auto program = lang::try_parse(interp_ladder_source());
    lang::type_check(*program);
    for (auto _ : state) {
        miri::Interpreter interp(*program, {});
        auto result = interp.run();
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InterpTreeWalk);

void BM_InterpSlotLowered(benchmark::State& state) {
    auto program = lang::try_parse(interp_ladder_source());
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    for (auto _ : state) {
        miri::Interpreter interp(*program, {}, {}, &lowered);
        auto result = interp.run();
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InterpSlotLowered);

void BM_InterpVm(benchmark::State& state) {
    // Bytecode-VM rung of the interp ladder: same workload, bytecode
    // compiled once up front (the Oracle's program cache amortizes it the
    // same way), each iteration pays dispatch + memory model only.
    auto program = lang::try_parse(interp_ladder_source());
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    const vm::VmProgram bytecode = vm::compile(*program, lowered);
    for (auto _ : state) {
        vm::Vm machine(*program, bytecode, {});
        auto result = machine.run();
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InterpVm);

void BM_InterpVmOpt(benchmark::State& state) {
    // Optimized-VM rung: same bytecode after vm::optimize (threaded
    // dispatch is always on; this adds superinstructions and register
    // promotion). Byte-identical results; this rung is the headline
    // loop-heavy speedup over BM_InterpTreeWalk.
    auto program = lang::try_parse(interp_ladder_source());
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    const vm::VmProgram bytecode = vm::compile(*program, lowered);
    const vm::VmProgram optimized = vm::optimize(bytecode);
    for (auto _ : state) {
        vm::Vm machine(*program, optimized, {});
        auto result = machine.run();
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InterpVmOpt);

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

enum class Rung { Tree, Slot, Vm, VmOpt };

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
            case Rung::Slot: {
                miri::Interpreter interp(*program, {}, {}, &lowered);
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
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_tree, interp_call_ladder_source(),
                  Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_slot, interp_call_ladder_source(),
                  Rung::Slot);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_vm, interp_call_ladder_source(),
                  Rung::Vm);
BENCHMARK_CAPTURE(BM_InterpRung, call_heavy_vm_opt,
                  interp_call_ladder_source(), Rung::VmOpt);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_tree,
                  interp_memory_ladder_source(), Rung::Tree);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_slot,
                  interp_memory_ladder_source(), Rung::Slot);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_vm,
                  interp_memory_ladder_source(), Rung::Vm);
BENCHMARK_CAPTURE(BM_InterpRung, memory_heavy_vm_opt,
                  interp_memory_ladder_source(), Rung::VmOpt);

void BM_VmOptimize(benchmark::State& state) {
    // The peephole-pass-cost column: fusion + promotion over the compiled
    // loop ladder. Like BM_VmCompile, paid once per distinct source.
    auto program = lang::try_parse(interp_ladder_source());
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    const vm::VmProgram bytecode = vm::compile(*program, lowered);
    for (auto _ : state) {
        vm::VmProgram optimized = vm::optimize(bytecode);
        benchmark::DoNotOptimize(optimized);
    }
}
BENCHMARK(BM_VmOptimize);

void BM_VmCompile(benchmark::State& state) {
    // The bytecode-compile-cost column: AST -> flat instruction array.
    // Paid once per distinct source (compile-once cache), so it amortizes
    // across every later vm interpretation.
    auto program = lang::try_parse(interp_ladder_source());
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    for (auto _ : state) {
        vm::VmProgram bytecode = vm::compile(*program, lowered);
        benchmark::DoNotOptimize(bytecode);
    }
}
BENCHMARK(BM_VmCompile);

void BM_ScreenOnly(benchmark::State& state) {
    // The screening rung of the ladder: abstract interpretation over the
    // already-compiled program, no MiriLite run (this workload screens
    // ProvenSafe, the case where the Oracle skips interpretation entirely).
    const auto* ub_case = corpus().find("uninit/partial_init_0");
    auto program = lang::try_parse(ub_case->reference_fix);
    lang::type_check(*program);
    const miri::LoweredProgram lowered = miri::lower_program(*program);
    for (auto _ : state) {
        auto result =
            screen::screen_program(*program, lowered, ub_case->inputs, {});
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ScreenOnly);

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

void BM_OracleUncachedVm(benchmark::State& state) {
    // vm-under-oracle, fully uncached: front end + slot lowering +
    // bytecode compile + VM execution every iteration (the worst case the
    // compile-once cache exists to avoid).
    const auto* ub_case = corpus().find("uninit/partial_init_0");
    verify::OracleOptions options;
    options.caching = false;
    options.interp = verify::InterpTier::Vm;
    const verify::Oracle oracle(std::move(options));
    for (auto _ : state) {
        auto report =
            oracle.test_source(ub_case->reference_fix, ub_case->inputs);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_OracleUncachedVm);

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
