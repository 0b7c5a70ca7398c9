// vm::optimize is a shim that returns its input: the VM runs vm::compile
// output as it stands (DESIGN.md §11). The sources below are the
// instruction windows the retired pass used to fuse — runs of Steps,
// local loads, literal operands and compare-and-branch loop heads — kept
// as VM-against-tree-walk cases because each packs several step() calls
// and memory accesses close together, and a max_steps sweep crosses them
// at every point.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/interp.hpp"
#include "vm/bytecode.hpp"
#include "vm/peephole.hpp"
#include "vm/vm.hpp"

namespace rustbrain {
namespace {

/// Parse → typecheck → compile, keeping both owners alive together
/// (VmProgram borrows type and name storage from program).
struct Compiled {
    lang::Program program;
    vm::VmProgram code;

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
        code = vm::compile(program);
    }
};

/// Tree walk vs VM, byte-compared run for run.
void expect_vm_exact(const std::string& source, miri::InterpLimits limits = {}) {
    const Compiled compiled(source);
    const miri::RunResult want =
        miri::Interpreter(compiled.program, {}, limits).run();
    const miri::RunResult got =
        vm::Vm(compiled.program, compiled.code, {}, limits).run();
    EXPECT_EQ(want.steps, got.steps) << source;
    EXPECT_EQ(want.output, got.output) << source;
    ASSERT_EQ(want.finding.has_value(), got.finding.has_value()) << source;
    if (!want.finding) return;
    EXPECT_EQ(want.finding->to_string(), got.finding->to_string()) << source;
    EXPECT_EQ(want.finding->span.begin, got.finding->span.begin) << source;
    EXPECT_EQ(want.finding->span.end, got.finding->span.end) << source;
}

TEST(VmPeepholeTest, OptimizeReturnsItsInputUnchanged) {
    const Compiled compiled(
        "fn main() { let mut i = 0; while i < 5 { i = i + 1; } print_int(i); }");
    const vm::VmProgram optimized = vm::optimize(compiled.code);
    ASSERT_EQ(optimized.code.size(), compiled.code.code.size());
    for (std::size_t pc = 0; pc < optimized.code.size(); ++pc) {
        const vm::Instr& want = compiled.code.code[pc];
        const vm::Instr& got = optimized.code[pc];
        SCOPED_TRACE(pc);
        EXPECT_EQ(want.op, got.op);
        EXPECT_EQ(want.small, got.small);
        EXPECT_EQ(want.flag, got.flag);
        EXPECT_EQ(want.a, got.a);
        EXPECT_EQ(want.b, got.b);
        EXPECT_EQ(want.span, got.span);
        EXPECT_EQ(want.type, got.type);
        EXPECT_EQ(want.aux, got.aux);
        EXPECT_EQ(want.imm, got.imm);
    }
}

TEST(VmPeepholeTest, EveryFusedOpcodeReplaysItsExpansionStepCounts) {
    // One source per retired superinstruction, named after it.
    const std::vector<std::pair<const char*, const char*>> cases = {
        {"BinaryLocals",
         "fn main() { let a = 3; let b = 4; let c = a + b; print_int(c); }"},
        {"BinaryLocalImm",
         "fn main() { let a = 3; let c = a * 10; print_int(c); }"},
        {"StoreLocal", "fn main() { let mut x = 0; x = 5; print_int(x); }"},
        {"CompareBranch",
         "fn main() { let mut i = 0; let n = 4;\n"
         "  while i * 2 < n * 3 { i = i + 1; } print_int(i); }"},
        {"StepN", "fn main() { let x = ((1 + 2) + 3) + 4; print_int(x); }"},
        {"BinaryAccImm",
         "fn main() { let a = 3; let b = 4;\n"
         "  let y = a * 31 + b * 2; print_int(y); }"},
        {"BinaryStackImm",
         "fn main() { let a = 3; let b = 4;\n"
         "  let y = (a + b) % 7; print_int(y); }"},
        {"LocalsBranch",
         "fn main() { let mut i = 0; let n = 5;\n"
         "  while i < n { i = i + 1; } print_int(i); }"},
        {"LocalImmBranch",
         "fn main() { let mut i = 0;\n"
         "  while i < 5 { i = i + 1; } print_int(i); }"},
    };
    for (const auto& [name, source] : cases) {
        SCOPED_TRACE(name);
        expect_vm_exact(source);
    }
}

TEST(VmPeepholeTest, StepLimitPanicsIdenticallyInsideFusedWindows) {
    // Crossing max_steps inside a run of back-to-back steps: the panic's
    // span and the step snapshot must match the tree walk at every
    // crossing point.
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
        expect_vm_exact(source, limits);
    }
}

}  // namespace
}  // namespace rustbrain
