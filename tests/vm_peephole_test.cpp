// vm::optimize — the legality contract of DESIGN.md §11, tested from both
// ends: structurally (each superinstruction is actually emitted for its
// pattern, jump targets survive the rewrite, promoted frames get
// registers) and observationally (for every fused opcode, findings,
// outputs, spans, and above all *step counts* are byte-identical to the
// tree walk and to the unoptimized VM; five forged corpora render
// bit-identically with vm-opt on every run and on the tree walk; and the
// tree tier never pays for a bytecode compile at all).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "identity_matrix.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "serve/wire.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/peephole.hpp"
#include "vm/vm.hpp"

namespace rustbrain {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

/// Parse → typecheck → lower → compile → optimize, keeping every owner
/// alive together (VmProgram borrows type and name storage from program).
struct Compiled {
    lang::Program program;
    miri::LoweredProgram lowered;
    vm::VmProgram raw;
    vm::VmProgram optimized;

    explicit Compiled(const std::string& source)
        : program([&] {
              std::string error;
              auto parsed = lang::try_parse(source, &error);
              if (!parsed) throw std::runtime_error("parse: " + error);
              return std::move(*parsed);
          }()) {
        std::string error;
        if (!lang::type_check(program, &error)) {
            throw std::runtime_error("typecheck: " + error);
        }
        lowered = miri::lower_program(program);
        raw = vm::compile(program, lowered);
        optimized = vm::optimize(raw);
    }
};

std::size_t count_ops(const vm::VmProgram& program, vm::Op op) {
    std::size_t n = 0;
    for (const vm::Instr& instr : program.code) {
        if (instr.op == op) ++n;
    }
    return n;
}

void expect_runs_equal(const miri::RunResult& want, const miri::RunResult& got,
                       const std::string& context) {
    EXPECT_EQ(want.steps, got.steps) << context;
    EXPECT_EQ(want.output, got.output) << context;
    ASSERT_EQ(want.finding.has_value(), got.finding.has_value()) << context;
    if (!want.finding) return;
    EXPECT_EQ(want.finding->to_string(), got.finding->to_string()) << context;
    EXPECT_EQ(want.finding->span.begin, got.finding->span.begin) << context;
    EXPECT_EQ(want.finding->span.end, got.finding->span.end) << context;
}

/// Tree walk vs unoptimized VM vs optimized VM, byte-compared run for run.
/// vm::Vm is driven directly on both bytecode builds: the Oracle's vm tier
/// only ever runs the optimized one.
void expect_opt_exact(const std::string& source, const Inputs& inputs = {},
                      miri::InterpLimits limits = {}) {
    const Compiled compiled(source);
    for (const auto& run_inputs : inputs.empty() ? Inputs{{}} : inputs) {
        miri::Interpreter tree_walk(compiled.program, run_inputs, limits);
        const miri::RunResult reference = tree_walk.run();
        for (const bool opt : {false, true}) {
            vm::Vm machine(compiled.program,
                           opt ? compiled.optimized : compiled.raw, run_inputs,
                           limits);
            expect_runs_equal(reference, machine.run(),
                              std::string(opt ? "vm-opt" : "vm") + "\n" +
                                  source);
        }
    }
}

/// One pattern exemplar per fused opcode: the source must make the
/// optimizer emit the opcode (asserted structurally — a silently dead
/// pattern would make the step-count assertion vacuous), and the fused
/// replay must report the exact step count of its unfused expansion.
struct FusedCase {
    vm::Op op;
    const char* name;
    const char* source;
};

const std::vector<FusedCase>& fused_cases() {
    static const std::vector<FusedCase> cases = {
        {vm::Op::BinaryLocals, "BinaryLocals",
         "fn main() { let a = 3; let b = 4; let c = a + b; print_int(c); }"},
        {vm::Op::BinaryLocalImm, "BinaryLocalImm",
         "fn main() { let a = 3; let c = a * 10; print_int(c); }"},
        {vm::Op::StoreLocal, "StoreLocal",
         "fn main() { let mut x = 0; x = 5; print_int(x); }"},
        {vm::Op::CompareBranch, "CompareBranch",
         "fn main() { let mut i = 0; let n = 4;\n"
         "  while i * 2 < n * 3 { i = i + 1; } print_int(i); }"},
        {vm::Op::StepN, "StepN",
         "fn main() { let x = ((1 + 2) + 3) + 4; print_int(x); }"},
        {vm::Op::BinaryAccImm, "BinaryAccImm",
         "fn main() { let a = 3; let b = 4;\n"
         "  let y = a * 31 + b * 2; print_int(y); }"},
        {vm::Op::BinaryStackImm, "BinaryStackImm",
         "fn main() { let a = 3; let b = 4;\n"
         "  let y = (a + b) % 7; print_int(y); }"},
        {vm::Op::LocalsBranch, "LocalsBranch",
         "fn main() { let mut i = 0; let n = 5;\n"
         "  while i < n { i = i + 1; } print_int(i); }"},
        {vm::Op::LocalImmBranch, "LocalImmBranch",
         "fn main() { let mut i = 0;\n"
         "  while i < 5 { i = i + 1; } print_int(i); }"},
    };
    return cases;
}

TEST(VmPeepholeTest, EveryFusedOpcodeIsEmittedForItsPattern) {
    for (const FusedCase& fused : fused_cases()) {
        SCOPED_TRACE(fused.name);
        const Compiled compiled(fused.source);
        EXPECT_EQ(count_ops(compiled.raw, fused.op), 0u)
            << "vm::compile must never emit superinstructions";
        EXPECT_GE(count_ops(compiled.optimized, fused.op), 1u)
            << fused.source;
    }
}

TEST(VmPeepholeTest, EveryFusedOpcodeReplaysItsExpansionStepCounts) {
    for (const FusedCase& fused : fused_cases()) {
        SCOPED_TRACE(fused.name);
        expect_opt_exact(fused.source);
    }
}

TEST(VmPeepholeTest, StepLimitPanicsIdenticallyInsideFusedWindows) {
    // Crossing max_steps mid-superinstruction forces the slow replay
    // paths of StepN / step2: the panic's span and the step snapshot must
    // match the tree walk at every possible crossing point.
    const char* source =
        "fn main() { let mut i = 0; let mut acc = 1;\n"
        "  while i < 100000 {\n"
        "    acc = (acc * 31 + i * 2) % 1000003;\n"
        "    i = i + 1;\n"
        "  } print_int(acc); }";
    for (const std::uint64_t max_steps :
         {std::uint64_t{7}, std::uint64_t{50}, std::uint64_t{51},
          std::uint64_t{52}, std::uint64_t{53}, std::uint64_t{54},
          std::uint64_t{200}, std::uint64_t{2001}}) {
        SCOPED_TRACE(max_steps);
        miri::InterpLimits limits;
        limits.max_steps = max_steps;
        expect_opt_exact(source, {}, limits);
    }
}

TEST(VmPeepholeTest, JumpTargetsAreRemappedAcrossFusedWindows) {
    // Branch-dense control flow: every if/else arm and loop back-edge
    // lands on a window *boundary* after fusion shrinks the code, or the
    // remap would throw / the outputs would diverge.
    const char* source =
        "fn main() {\n"
        "  let mut i = 0; let mut evens = 0; let mut odds = 0;\n"
        "  while i < 25 {\n"
        "    if (i % 2) == 0 { evens = evens + i; }\n"
        "    else { if i > 12 { odds = odds + i * 3; }\n"
        "           else { odds = odds + 1; } }\n"
        "    i = i + 1;\n"
        "  }\n"
        "  print_int(evens); print_int(odds);\n"
        "}";
    const Compiled compiled(source);
    EXPECT_LT(compiled.optimized.code.size(), compiled.raw.code.size())
        << "fusion must actually shrink this program";
    expect_opt_exact(source);
}

TEST(VmPeepholeTest, PromotionKeepsTheObservableAddressStreamExact) {
    // `a` is a promotable integer local; `b` escapes through &b. The
    // printed address of b is part of the observable output, so register
    // promotion must keep the allocation (address/id) stream of promoted
    // slots via shadow allocations — or the printed value would shift.
    const char* source =
        "fn main() {\n"
        "  let a: i64 = 41;\n"
        "  let b: i64 = 1;\n"
        "  let p = &b as *const i64;\n"
        "  print_int((p as usize) as i64);\n"
        "  print_int(a + b);\n"
        "}";
    const Compiled compiled(source);
    ASSERT_GE(compiled.optimized.main_fn, 0);
    const vm::VmFunction& main_fn =
        compiled.optimized.functions[static_cast<std::size_t>(
            compiled.optimized.main_fn)];
    EXPECT_GE(main_fn.reg_count, 1u) << "`a` must be register-promoted";
    expect_opt_exact(source);
}

TEST(VmPeepholeTest, TreeTierNeverCompilesBytecode) {
    // Laziness is part of the contract: bytecode (and the optimize pass)
    // are built on first vm-tier use, so a tree-tier oracle must leave
    // both process-wide counters untouched.
    const char* source = "fn main() { print_int(6 * 7); }";
    const std::uint64_t compiles_before =
        vm::CompileStats::bytecode_compiles.load();
    const std::uint64_t passes_before =
        vm::CompileStats::optimize_passes.load();
    {
        verify::OracleOptions options;
        options.caching = false;
        options.interp = verify::InterpTier::Tree;
        const verify::Oracle oracle(options);
        for (int i = 0; i < 3; ++i) {
            const miri::MiriReport report = oracle.test_source(source, {});
            EXPECT_EQ(report.outputs.front().front(), "42");
        }
    }
    EXPECT_EQ(vm::CompileStats::bytecode_compiles.load(), compiles_before);
    EXPECT_EQ(vm::CompileStats::optimize_passes.load(), passes_before);

    // Running the VM pays for the bytecode compile and the optimize pass,
    // on first use.
    {
        verify::OracleOptions options;
        options.caching = false;
        const verify::identity::VmEverywhereOracle oracle(options);
        (void)oracle.test_source(source, {});
    }
    EXPECT_GT(vm::CompileStats::bytecode_compiles.load(), compiles_before);
    EXPECT_GT(vm::CompileStats::optimize_passes.load(), passes_before);
}

TEST(VmPeepholeTest, FiveForgedCorporaRenderByteIdenticalOptOnVsOff) {
    // The torture screw: five independently forged corpora, every case
    // swept through the full repair engine, rendered with the serving
    // codec, and byte-compared between vm-opt on every run and the tree
    // walk. Any divergence in any fused replay shows up here.
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);
    for (const unsigned seed : {11u, 22u, 33u, 44u, 55u}) {
        SCOPED_TRACE(seed);
        gen::ForgeOptions forge_options;
        forge_options.seed = seed;
        forge_options.count = 32;
        verify::OracleOptions forge_oracle_options;
        forge_oracle_options.cache =
            std::make_shared<verify::VerifyCache>();
        const verify::Oracle forge_oracle(std::move(forge_oracle_options));
        forge_options.oracle = &forge_oracle;
        const dataset::Corpus corpus = gen::forge_corpus(forge_options);
        ASSERT_EQ(corpus.size(), 32u);

        auto render_all = [&](const verify::identity::Row& row) {
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = verify::identity::make_oracle(
                row, verify::identity::options_for(row));
            const core::BatchRunner runner("rustbrain", {}, context,
                                           core::BatchOptions{1});
            const core::BatchReport report = runner.run(corpus);
            std::vector<std::string> rendered;
            rendered.reserve(report.results.size());
            for (const core::CaseResult& result : report.results) {
                rendered.push_back(serve::render_case_result(result));
            }
            return rendered;
        };
        const std::vector<std::string> vm_opt =
            render_all(verify::identity::kVm);
        const std::vector<std::string> tree =
            render_all(verify::identity::kReference);
        ASSERT_EQ(vm_opt.size(), tree.size());
        for (std::size_t i = 0; i < vm_opt.size(); ++i) {
            EXPECT_EQ(vm_opt[i], tree[i]) << "case " << corpus.cases()[i].id;
        }
    }
}

}  // namespace
}  // namespace rustbrain
