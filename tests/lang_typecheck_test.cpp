#include "lang/typecheck.hpp"

#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "miri/mirilite.hpp"
#include "support/diagnostics.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::lang {
namespace {

Program parse_ok(std::string_view source) {
    std::string error;
    auto program = try_parse(source, &error);
    EXPECT_TRUE(program.has_value()) << error;
    return program ? std::move(*program) : Program{};
}

void expect_checks(std::string_view source) {
    Program program = parse_ok(source);
    std::string error;
    EXPECT_TRUE(type_check(program, &error)) << error << "\nsource:\n" << source;
}

void expect_rejects(std::string_view source, std::string_view needle = "") {
    Program program = parse_ok(source);
    std::string error;
    const bool ok = type_check(program, &error);
    EXPECT_FALSE(ok) << "expected type error for:\n" << source;
    if (!ok && !needle.empty()) {
        EXPECT_NE(error.find(needle), std::string::npos)
            << "diagnostic was:\n" << error;
    }
}

TEST(TypecheckTest, AcceptsMinimalMain) { expect_checks("fn main() { }"); }

TEST(TypecheckTest, RequiresMain) {
    expect_rejects("fn helper() { }", "no 'main'");
}

TEST(TypecheckTest, MainSignatureConstraints) {
    expect_rejects("fn main(x: i32) { }", "'main' must take no parameters");
    expect_rejects("fn main() -> i32 { return 1; }", "'main' must return ()");
}

TEST(TypecheckTest, DuplicateFunctionNames) {
    expect_rejects("fn f() { } fn f() { } fn main() { }", "duplicate function");
}

std::string type_error(const std::string& source) {
    Program program = parse_ok(source);
    std::string error;
    EXPECT_FALSE(type_check(program, &error));
    return error;
}

std::string copies(const std::string& item, int count) {
    std::string source;
    for (int i = 0; i < count; ++i) source += item;
    return source + "fn main() { }";
}

TEST(TypecheckTest, EachLaterDuplicateIsReportedOnceAgainstTheFirst) {
    // Two names duplicated once each: one error per pair, in the order of
    // the first copies (here `b`'s pair comes first).
    const std::string pairs =
        type_error("fn b() { } fn a() { } fn b() { } fn a() { } fn main() { }");
    EXPECT_LT(pairs.find("duplicate function 'b'"),
              pairs.find("duplicate function 'a'"));
    // Three copies are two errors, not one per pair of copies.
    const std::string three = type_error(copies("static S: i64 = 1; ", 3));
    std::size_t errors = 0;
    for (std::size_t at = three.find("duplicate static 'S'");
         at != std::string::npos; at = three.find("duplicate static 'S'", at + 1)) {
        ++errors;
    }
    EXPECT_EQ(errors, 2u) << three;
}

TEST(TypecheckTest, DuplicateMessagesGrowLinearlyWithTheCopies) {
    // A pairwise scan emits n(n-1)/2 errors for n copies (about 20 MB for
    // 1,000 copies of `fn f() {}`). One copy per line, so every copy past
    // the 100th has a three-digit location.
    const std::size_t at100 = type_error(copies("fn f() { }\n", 100)).size();
    const std::size_t at200 = type_error(copies("fn f() { }\n", 200)).size();
    const std::size_t at400 = type_error(copies("fn f() { }\n", 400)).size();
    EXPECT_EQ(at400 - at200, 2 * (at200 - at100));
    EXPECT_LT(at400, 400u * 100u);
}

TEST(TypecheckTest, ACompileErrorCarriesAtMost64Diagnostics) {
    // 4,000 copies are 3,999 duplicates. The finding keeps the first 64
    // and counts the rest.
    const std::string source = copies("fn f() { }\n", 4000);
    const std::string full = type_error(source);
    const std::string expected =
        full.substr(0, [&] {
            std::size_t at = 0;
            for (int line = 0; line < 64; ++line) at = full.find('\n', at) + 1;
            return at;
        }()) +
        "... and 3935 more\n";
    const miri::MiriReport direct = miri::MiriLite().test_source(source, {{}});
    const miri::MiriReport oracle = verify::Oracle().test_source(source, {{}});
    for (const miri::MiriReport* report : {&direct, &oracle}) {
        ASSERT_EQ(report->findings.size(), 1u);
        EXPECT_EQ(report->findings[0].category, miri::UbCategory::CompileError);
        EXPECT_EQ(report->findings[0].message, expected);
        EXPECT_LT(report->findings[0].message.size(), 64u * 80u);
    }
    // At the cap (65 copies, 64 duplicates) the message is the type
    // checker's, byte for byte.
    const std::string at_cap = copies("fn f() { }\n", 65);
    const miri::MiriReport small = verify::Oracle().test_source(at_cap, {{}});
    ASSERT_EQ(small.findings.size(), 1u);
    EXPECT_EQ(small.findings[0].message, type_error(at_cap));
    EXPECT_EQ(support::cap_summary(type_error(at_cap)), type_error(at_cap));
}

TEST(TypecheckTest, ItemLookupsProbeOneItemPerName) {
    // Each of 4,000 functions calls the one before it. A linear scan per
    // call site would look at about 8 million items; the name maps look
    // at one per call, plus one for `main`.
    std::string source = "fn f0() { }\n";
    for (int i = 1; i < 4000; ++i) {
        source += "fn f" + std::to_string(i) + "() { f" + std::to_string(i - 1) + "(); }\n";
    }
    source += "static S: i64 = 1;\nfn main() { f3999(); let s = S; }\n";
    Program program = parse_ok(source);
    support::DiagnosticEngine diagnostics;
    TypeChecker checker(diagnostics);
    ASSERT_TRUE(checker.check(program)) << diagnostics.summary();
    // 3,999 + 1 calls, one static read, `main`.
    EXPECT_EQ(checker.items_probed(), 4002u);
}

TEST(TypecheckTest, LiteralAdoptsDeclaredType) {
    Program program = parse_ok("fn main() { let x: i64 = 5; }");
    ASSERT_TRUE(type_check(program));
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    EXPECT_EQ(let.init->type, Type::i64());
}

TEST(TypecheckTest, LiteralDefaultsToI32) {
    Program program = parse_ok("fn main() { let x = 5; }");
    ASSERT_TRUE(type_check(program));
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    EXPECT_EQ(let.init->type, Type::i32());
}

TEST(TypecheckTest, BinaryTypeMismatchRejected) {
    expect_rejects("fn main() { let a: i32 = 1; let b: i64 = 2; let c = a + b; }",
                   "type mismatch");
}

TEST(TypecheckTest, LiteralInfersFromOtherSide) {
    expect_checks("fn main() { let a: i64 = 5; let b = a + 1; let c = 1 + a; }");
}

TEST(TypecheckTest, ConditionsMustBeBool) {
    expect_rejects("fn main() { if 1 { } }", "must be bool");
    expect_rejects("fn main() { while 0 { } }", "must be bool");
}

TEST(TypecheckTest, AssignmentRules) {
    expect_checks("fn main() { let mut x = 1; x = 2; }");
    expect_rejects("fn main() { let x = 1; x = 2; }", "not mutable");
    expect_rejects("fn main() { let mut x = 1; x = true; }", "mismatch");
    expect_rejects("fn main() { 1 = 2; }", "not a place");
}

TEST(TypecheckTest, ReturnTypeChecked) {
    expect_checks("fn f() -> i32 { return 1; } fn main() { }");
    expect_rejects("fn f() -> i32 { return true; } fn main() { }", "return type");
    expect_rejects("fn f() -> i32 { return; } fn main() { }", "bare 'return'");
}

TEST(TypecheckTest, UnsafeRequiredForRawDeref) {
    expect_rejects(
        "fn main() { let x = 5; let p = &x as *const i32; let y = *p; }",
        "unsafe");
    expect_checks(
        "fn main() { let x = 5; let p = &x as *const i32; unsafe { let y = *p; } }");
}

TEST(TypecheckTest, RefDerefIsSafe) {
    expect_checks("fn main() { let x = 5; let r = &x; let y = *r; }");
}

TEST(TypecheckTest, UnsafeRequiredForUnsafeFnCall) {
    expect_rejects("unsafe fn danger() { } fn main() { danger(); }", "unsafe");
    expect_checks("unsafe fn danger() { } fn main() { unsafe { danger(); } }");
}

TEST(TypecheckTest, UnsafeFnBodyIsUnsafeContext) {
    expect_checks(
        "unsafe fn danger(p: *const i32) -> i32 { return *p; } fn main() { }");
}

TEST(TypecheckTest, StaticMutNeedsUnsafe) {
    expect_rejects("static mut G: i64 = 0; fn main() { G = 1; }", "unsafe");
    expect_rejects("static mut G: i64 = 0; fn main() { let x = G; }", "unsafe");
    expect_checks("static mut G: i64 = 0; fn main() { unsafe { G = 1; } }");
}

TEST(TypecheckTest, PlainStaticReadIsSafe) {
    expect_checks("static LIMIT: i64 = 10; fn main() { let x = LIMIT; }");
}

TEST(TypecheckTest, StaticInitMustBeConstant) {
    expect_rejects("static G: i64 = input(0); fn main() { }", "literal");
}

TEST(TypecheckTest, StaticInitNamesNothingAtAnyDepth) {
    // Neither a name nor a call may hide inside an array initializer: no
    // initializer can then read a static before it is set.
    expect_rejects(
        "static A: [i64; 1] = [B]; static B: i64 = 1; "
        "fn main() { print_int(A[0]); }",
        "literal");
    expect_rejects(
        "static A: [i64; 1] = [f()]; static B: i64 = 1; "
        "fn f() -> i64 { return B; } fn main() { print_int(A[0]); }",
        "literal");
    expect_rejects("static B: i64 = 1; static A: [i64; 2] = [B; 2]; fn main() { }",
                   "literal");
    expect_checks("static A: [i64; 3] = [1, 2, 3]; static Z: [bool; 2] = [true; 2]; "
                  "fn main() { }");
}

TEST(TypecheckTest, FnPointerLocalShadowsAFunctionItemInCallPosition) {
    // Call position tries intrinsics, then a local of fn-pointer type, then
    // the function item — the order every tier runs.
    constexpr const char* kItems =
        "fn f(x: i64) -> i64 { return x; } "
        "fn g(x: i64, y: i64) -> i64 { return x + y; } ";
    expect_rejects(std::string(kItems) +
                       "fn main() { let f: fn(i64, i64) -> i64 = g; print_int(f(5)); }",
                   "call argument count mismatch for 'f'");
    Program program = parse_ok(
        std::string(kItems) +
        "fn main() { let f: fn(i64, i64) -> i64 = g; print_int(f(1, 2)); }");
    ASSERT_TRUE(type_check(program));
    const auto& print = static_cast<const CallExpr&>(
        *static_cast<const ExprStmt&>(*program.functions[2].body.statements[1]).expr);
    EXPECT_EQ(print.binding, (Binding{Binding::Kind::Intrinsic,
                                      static_cast<std::int32_t>(IntrinsicId::PrintInt)}));
    const auto& call = static_cast<const CallExpr&>(*print.args[0]);
    EXPECT_EQ(call.binding, (Binding{Binding::Kind::Local, 0}));
    // A local of another type does not shadow the item.
    Program item = parse_ok(std::string(kItems) +
                            "fn main() { let f: i64 = 1; print_int(f(5) + f); }");
    ASSERT_TRUE(type_check(item));
    const auto& sum = static_cast<const BinaryExpr&>(
        *static_cast<const CallExpr&>(
             *static_cast<const ExprStmt&>(*item.functions[2].body.statements[1]).expr)
             .args[0]);
    EXPECT_EQ(static_cast<const CallExpr&>(*sum.lhs).binding,
              (Binding{Binding::Kind::Function, 0}));
    EXPECT_EQ(static_cast<const VarRefExpr&>(*sum.rhs).binding,
              (Binding{Binding::Kind::Local, 0}));
}

TEST(TypecheckTest, StaticInitTypeMismatch) {
    expect_rejects("static G: i64 = true; fn main() { }", "initialized with");
}

TEST(TypecheckTest, SharedRefToMutPtrRejected) {
    expect_rejects("fn main() { let x = 1; let p = &x as *mut i32; }",
                   "read-only");
    expect_checks("fn main() { let mut x = 1; let p = &mut x as *mut i32; }");
}

TEST(TypecheckTest, AddrOfMutNeedsMutPlace) {
    expect_rejects("fn main() { let x = 1; let r = &mut x; }", "not mutable");
}

TEST(TypecheckTest, ArrayDecayCast) {
    expect_checks("fn main() { let a = [1, 2, 3]; let p = &a as *const i32; }");
}

TEST(TypecheckTest, IntToFnPtrNeedsUnsafe) {
    expect_rejects(
        "fn f() { } fn main() { let a = f as usize; let g = a as fn(); }",
        "unsafe");
    expect_checks(
        "fn f() { } fn main() { let a = f as usize; unsafe { let g = a as fn(); } }");
}

TEST(TypecheckTest, FnPtrSignatureTransmuteNeedsUnsafe) {
    expect_rejects(
        "fn f(x: i32) -> i32 { return x; } "
        "fn main() { let g = (f as fn(i32) -> i32) as fn(i64) -> i64; }",
        "unsafe");
}

TEST(TypecheckTest, IndexingRules) {
    expect_checks("fn main() { let a = [1, 2, 3]; let x = a[0]; }");
    expect_checks("fn main() { let a = [1, 2]; let r = &a; let x = r[1]; }");
    expect_rejects("fn main() { let x = 5; let y = x[0]; }", "cannot index");
    expect_rejects(
        "fn main() { let a = [1, 2]; unsafe { let p = &a as *const i32; let x = p[0]; } }",
        "cannot index");
}

TEST(TypecheckTest, CallArityAndTypes) {
    expect_rejects("fn f(a: i32) { } fn main() { f(); }", "expects 1 arguments");
    expect_rejects("fn f(a: i32) { } fn main() { f(true); }", "argument 1");
    expect_rejects("fn main() { nosuch(); }", "unknown function");
}

TEST(TypecheckTest, FnPointerFlow) {
    expect_checks(R"(
fn double(x: i32) -> i32 { return x * 2; }
fn main() {
    let f: fn(i32) -> i32 = double;
    let y = f(21);
    print_int(y as i64);
})");
}

TEST(TypecheckTest, BecomeChecksSignatures) {
    expect_checks(
        "fn f(n: i32) -> i32 { if n <= 0 { return 0; } become f(n - 1); } fn main() { }");
    expect_rejects(
        "fn g() -> i64 { return 1; } fn f() -> i32 { become g(); } fn main() { }",
        "become target returns");
    expect_rejects(
        "fn g(x: i32) -> i32 { return x; } fn f() -> i32 { become g(); } fn main() { }",
        "argument count");
}

TEST(TypecheckTest, IntrinsicSignatures) {
    expect_checks("fn main() { unsafe { let p = alloc(8, 8); dealloc(p, 8, 8); } }");
    expect_rejects("fn main() { let p = alloc(8); }", "expects 2 arguments");
    expect_rejects("fn main() { unsafe { dealloc(1, 8, 8); } }", "raw pointer");
    expect_rejects("fn main() { assert(1); }", "bool");
    expect_checks("fn f() { } fn main() { let h = spawn(f); join(h); }");
    expect_rejects("fn f(x: i32) { } fn main() { let h = spawn(f); }",
                   "no parameters");
    expect_checks(
        "static mut V: i64 = 0; fn main() { unsafe { "
        "let p = &mut V as *mut i64; atomic_store(p, 5); "
        "let x = atomic_load(p as *const i64); let y = atomic_fetch_add(p, 1); } }");
    expect_rejects("fn main() { unsafe { atomic_load(5 as *const i32); } }",
                   "atomic_load");
}

TEST(TypecheckTest, DeallocRequiresUnsafe) {
    expect_rejects("fn main() { let p = alloc(8, 8); dealloc(p, 8, 8); }", "unsafe");
}

TEST(TypecheckTest, OffsetRequiresUnsafe) {
    expect_rejects(
        "fn main() { let p = alloc(8, 8); let q = offset(p, 1); }", "unsafe");
}

TEST(TypecheckTest, ShadowingAllowed) {
    expect_checks("fn main() { let x = 1; let x = true; let y = x && false; }");
}

TEST(TypecheckTest, ScopesEnd) {
    expect_rejects("fn main() { { let inner = 1; } let y = inner; }", "unknown name");
}

TEST(TypecheckTest, NegOnUnsignedRejected) {
    expect_rejects("fn main() { let x: u32 = 5; let y = -x; }", "signed");
}

TEST(TypecheckTest, ComparisonsYieldBool) {
    Program program = parse_ok("fn main() { let b = 1 < 2; }");
    ASSERT_TRUE(type_check(program));
    const auto& let = static_cast<const LetStmt&>(*program.functions[0].body.statements[0]);
    EXPECT_EQ(let.init->type, Type::boolean());
}

TEST(TypecheckTest, PointerComparisonAllowed) {
    expect_checks(
        "fn main() { let x = 1; let p = &x as *const i32; let q = p; "
        "let same = p == q; }");
}

TEST(TypecheckTest, AnnotatesExpressionTypes) {
    Program program = parse_ok(
        "fn main() { let x = 5; let p = &x as *const i32; unsafe { let y = *p; } }");
    ASSERT_TRUE(type_check(program));
    const auto& unsafe_stmt =
        static_cast<const UnsafeStmt&>(*program.functions[0].body.statements[2]);
    const auto& let = static_cast<const LetStmt&>(*unsafe_stmt.block.statements[0]);
    EXPECT_EQ(let.init->type, Type::i32());
}

}  // namespace
}  // namespace rustbrain::lang
