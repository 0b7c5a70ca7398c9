// One positive (UB detected) and one negative (fixed code passes) test per
// UB category — the ground truth the whole repair pipeline rests on.
#include <gtest/gtest.h>

#include "miri/mirilite.hpp"

namespace rustbrain::miri {
namespace {

MiriReport run(const std::string& source,
               std::vector<std::vector<std::int64_t>> inputs = {}) {
    MiriLite miri;
    return miri.test_source(source, inputs);
}

void expect_ub(const std::string& source, UbCategory category,
               std::vector<std::vector<std::int64_t>> inputs = {}) {
    const MiriReport report = run(source, std::move(inputs));
    ASSERT_FALSE(report.passed()) << "expected UB in:\n" << source;
    EXPECT_TRUE(report.has_category(category))
        << "expected " << ub_category_label(category) << ", got:\n"
        << report.summary() << "\nsource:\n"
        << source;
}

void expect_pass(const std::string& source,
                 std::vector<std::vector<std::int64_t>> inputs = {}) {
    const MiriReport report = run(source, std::move(inputs));
    EXPECT_TRUE(report.passed()) << report.summary() << "\nsource:\n" << source;
}

// --- alloc -----------------------------------------------------------------

TEST(MiriAlloc, DoubleFree) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
        dealloc(p, 8, 8);
        dealloc(p, 8, 8);
    }
})",
              UbCategory::Alloc);
}

TEST(MiriAlloc, WrongLayoutFree) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(16, 8);
        dealloc(p, 8, 8);
    }
})",
              UbCategory::Alloc);
}

TEST(MiriAlloc, Leak) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
    }
})",
              UbCategory::Alloc);
}

TEST(MiriAlloc, FreeingStackMemory) {
    expect_ub(R"(
fn main() {
    let mut x = 5;
    unsafe {
        let p = &mut x as *mut i32 as *mut u8;
        dealloc(p, 4, 4);
    }
})",
              UbCategory::Alloc);
}

TEST(MiriAlloc, DeallocNotAtStart) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(16, 8);
        let q = offset(p, 8);
        dealloc(q, 16, 8);
    }
})",
              UbCategory::Alloc);
}

TEST(MiriAlloc, InvalidAlignment) {
    expect_ub("fn main() { unsafe { let p = alloc(8, 3); dealloc(p, 8, 3); } }",
              UbCategory::Alloc);
}

TEST(MiriAlloc, CorrectLifecyclePasses) {
    expect_pass(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
        let q = p as *mut i64;
        *q = 41;
        print_int(*q + 1);
        dealloc(p, 8, 8);
    }
})");
}

// --- dangling pointer -------------------------------------------------------

TEST(MiriDangling, UseAfterFree) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8) as *mut i64;
        *p = 1;
        dealloc(p as *mut u8, 8, 8);
        print_int(*p);
    }
})",
              UbCategory::DanglingPointer);
}

TEST(MiriDangling, EscapedStackPointer) {
    expect_ub(R"(
fn main() {
    let mut p = 0 as *const i32;
    {
        let x = 5;
        p = &x as *const i32;
    }
    unsafe {
        print_int(*p as i64);
    }
})",
              UbCategory::DanglingPointer);
}

TEST(MiriDangling, NullDeref) {
    expect_ub(R"(
fn main() {
    let p = 0 as *const i32;
    unsafe {
        let x = *p;
    }
})",
              UbCategory::DanglingPointer);
}

TEST(MiriDangling, CopyBeforeScopeEndPasses) {
    expect_pass(R"(
fn main() {
    let mut v = 0;
    {
        let x = 5;
        let p = &x as *const i32;
        unsafe { v = *p; }
    }
    print_int(v as i64);
})");
}

// --- panic -------------------------------------------------------------------

TEST(MiriPanic, ExplicitPanic) {
    expect_ub("fn main() { panic(); }", UbCategory::Panic);
}

TEST(MiriPanic, AssertFailure) {
    expect_ub("fn main() { assert(1 == 2); }", UbCategory::Panic);
}

TEST(MiriPanic, DivideByZero) {
    expect_ub("fn main() { let x = input(0) as i32; let y = 10 / x; }",
              UbCategory::Panic, {{0}});
}

TEST(MiriPanic, IndexOutOfBounds) {
    expect_ub(R"(
fn main() {
    let a = [1, 2, 3];
    let i = input(0) as usize;
    print_int(a[i] as i64);
})",
              UbCategory::Panic, {{5}});
}

TEST(MiriPanic, AddOverflow) {
    expect_ub(R"(
fn main() {
    let big: i32 = 2147483647;
    let x = big + 1;
})",
              UbCategory::Panic);
}

TEST(MiriPanic, MulOverflowI64) {
    expect_ub(R"(
fn main() {
    let big: i64 = 4611686018427387904;
    let x = big * 4;
})",
              UbCategory::Panic);
}

TEST(MiriPanic, UnsignedSubOverflow) {
    expect_ub("fn main() { let a: u32 = 1; let b = a - 2; }", UbCategory::Panic);
}

TEST(MiriPanic, ShiftOverflow) {
    expect_ub("fn main() { let a: i32 = 1; let s = input(0) as usize; let b = a << s; }",
              UbCategory::Panic, {{40}});
}

TEST(MiriPanic, NegateMinValue) {
    expect_ub("fn main() { let m: i32 = -2147483647 - 1; let x = -m; }",
              UbCategory::Panic);
}

TEST(MiriPanic, StepLimitAsInfiniteLoop) {
    expect_ub("fn main() { let mut i = 0; while i < 10 { i = i * 1; } }",
              UbCategory::Panic);
}

TEST(MiriPanic, StackOverflow) {
    expect_ub(R"(
fn rec(n: i64) -> i64 {
    return rec(n + 1);
}
fn main() { let x = rec(0); })",
              UbCategory::Panic);
}

TEST(MiriPanic, GuardedIndexPasses) {
    expect_pass(R"(
fn main() {
    let a = [1, 2, 3];
    let i = input(0) as usize;
    if i < 3 {
        print_int(a[i] as i64);
    } else {
        print_int(0 - 1);
    }
})",
                {{5}, {1}});
}

// --- provenance ---------------------------------------------------------------

TEST(MiriProvenance, IntToPtrRoundTrip) {
    expect_ub(R"(
fn main() {
    let x = 5;
    let addr = &x as *const i32 as usize;
    let p = addr as *const i32;
    unsafe {
        print_int(*p as i64);
    }
})",
              UbCategory::Provenance);
}

TEST(MiriProvenance, OutOfBoundsOffset) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
        let q = offset(p, 16);
        dealloc(p, 8, 8);
    }
})",
              UbCategory::Provenance);
}

TEST(MiriProvenance, OutOfBoundsAccessOnePastEnd) {
    // offset to one-past-end is legal; dereferencing it is not.
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
        let q = offset(p, 8);
        let v = *q;
        dealloc(p, 8, 8);
    }
})",
              UbCategory::Provenance);
}

TEST(MiriProvenance, InBoundsOffsetPasses) {
    expect_pass(R"(
fn main() {
    unsafe {
        let p = alloc(4, 4);
        let q = offset(p, 3);
        *q = 7;
        print_int(*q as i64);
        dealloc(p, 4, 4);
    }
})");
}

TEST(MiriProvenance, OffsetWhoseByteDeltaOverflowsIsOutOfBounds) {
    // 2^62 elements of 8 bytes: the byte delta overflows i64 (it would
    // wrap to 0 and leave the pointer where it was).
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8) as *mut i64;
        let q = offset(p, 4611686018427387904);
        *q = 1;
        dealloc(p as *mut u8, 8, 8);
    }
})",
              UbCategory::Provenance);
}

TEST(MiriProvenance, OffsetWhoseByteDeltaWrapsToAnElementIsOutOfBounds) {
    // (2^61 + 1) * 8 wraps to 8: unchecked, the write lands on element 1.
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(16, 8) as *mut i64;
        let q = offset(p, 2305843009213693953);
        *q = 7;
        print_int(*q);
        dealloc(p as *mut u8, 16, 8);
    }
})",
              UbCategory::Provenance);
}

TEST(MiriProvenance, OffsetWhoseAddressOverflowsIsOutOfBounds) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
        let q = offset(p, 9223372036854775807);
        dealloc(p, 8, 8);
    }
})",
              UbCategory::Provenance);
}

// --- uninit ---------------------------------------------------------------------

TEST(MiriUninit, ReadFreshHeap) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8) as *mut i64;
        print_int(*p);
        dealloc(p as *mut u8, 8, 8);
    }
})",
              UbCategory::Uninit);
}

TEST(MiriUninit, PartialInit) {
    expect_ub(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8);
        let first = p as *mut u8;
        *first = 1;
        let wide = p as *mut i64;
        print_int(*wide);
        dealloc(p, 8, 8);
    }
})",
              UbCategory::Uninit);
}

TEST(MiriUninit, FullInitPasses) {
    expect_pass(R"(
fn main() {
    unsafe {
        let p = alloc(8, 8) as *mut i64;
        *p = 99;
        print_int(*p);
        dealloc(p as *mut u8, 8, 8);
    }
})");
}

// --- both borrow -----------------------------------------------------------------

TEST(MiriBothBorrow, SharedInvalidatedByMut) {
    expect_ub(R"(
fn main() {
    let mut x = 5;
    let r1 = &x;
    let r2 = &mut x;
    *r2 = 6;
    print_int(*r1 as i64);
})",
              UbCategory::BothBorrow);
}

TEST(MiriBothBorrow, ReadAfterPlaceWrite) {
    // Writing through the variable itself invalidates the live shared ref.
    expect_ub(R"(
fn main() {
    let mut x = 5;
    let r = &x;
    x = 6;
    print_int(*r as i64);
})",
              UbCategory::BothBorrow);
}

TEST(MiriStackBorrowExtra, WriteThroughSharedDerivedRaw) {
    // A raw pointer derived from `&` is read-only; writing through it is a
    // stacked-borrows violation (raw-tag origin -> stackborrow).
    expect_ub(R"(
fn main() {
    let mut x = 5;
    let r = &x;
    let p = r as *const i32 as *mut i32;
    unsafe { *p = 6; }
})",
              UbCategory::StackBorrow);
}

TEST(MiriBothBorrow, SequentialBorrowsPass) {
    expect_pass(R"(
fn main() {
    let mut x = 5;
    let r1 = &x;
    print_int(*r1 as i64);
    let r2 = &mut x;
    *r2 = 6;
    print_int(x as i64);
})");
}

// --- data race --------------------------------------------------------------------

TEST(MiriDataRace, UnsyncStaticCounter) {
    expect_ub(R"(
static mut COUNTER: i64 = 0;
fn worker() {
    unsafe {
        COUNTER = COUNTER + 1;
    }
}
fn main() {
    let h1 = spawn(worker);
    let h2 = spawn(worker);
    join(h1);
    join(h2);
    unsafe { print_int(COUNTER); }
})",
              UbCategory::DataRace);
}

TEST(MiriDataRace, RacyReadVsWrite) {
    expect_ub(R"(
static mut FLAG: i64 = 0;
fn writer() {
    unsafe { FLAG = 1; }
}
fn reader() {
    unsafe { let v = FLAG; }
}
fn main() {
    let h1 = spawn(writer);
    let h2 = spawn(reader);
    join(h1);
    join(h2);
})",
              UbCategory::DataRace);
}

TEST(MiriDataRace, AtomicFixPasses) {
    expect_pass(R"(
static mut COUNTER: i64 = 0;
fn worker() {
    unsafe {
        let p = &mut COUNTER as *mut i64;
        let old = atomic_fetch_add(p, 1);
    }
}
fn main() {
    let h1 = spawn(worker);
    let h2 = spawn(worker);
    join(h1);
    join(h2);
    unsafe {
        let p = &mut COUNTER as *mut i64;
        print_int(atomic_load(p as *const i64));
    }
})");
}

TEST(MiriDataRace, MutexFixPasses) {
    expect_pass(R"(
static mut COUNTER: i64 = 0;
static mut LOCK: i64 = 0;
fn worker() {
    unsafe {
        mutex_lock(LOCK);
        COUNTER = COUNTER + 1;
        mutex_unlock(LOCK);
    }
}
fn main() {
    unsafe { LOCK = mutex_new(); }
    let h1 = spawn(worker);
    let h2 = spawn(worker);
    join(h1);
    join(h2);
    unsafe {
        mutex_lock(LOCK);
        print_int(COUNTER);
        mutex_unlock(LOCK);
    }
})");
}

TEST(MiriDataRace, JoinOrderingPasses) {
    // Sequential spawn+join: accesses ordered by the join edge.
    expect_pass(R"(
static mut V: i64 = 0;
fn worker() {
    unsafe { V = V + 1; }
}
fn main() {
    let h1 = spawn(worker);
    join(h1);
    let h2 = spawn(worker);
    join(h2);
    unsafe { print_int(V); }
})");
}

// --- func.call ------------------------------------------------------------------

TEST(MiriFuncCall, BogusAddress) {
    expect_ub(R"(
fn main() {
    unsafe {
        let f = 4096 as fn();
        f();
    }
})",
              UbCategory::FuncCall);
}

TEST(MiriFuncCall, DataPointerAsFunction) {
    expect_ub(R"(
fn main() {
    let x = 5;
    unsafe {
        let a = &x as *const i32 as usize;
        let f = a as fn();
        f();
    }
})",
              UbCategory::FuncCall);
}

TEST(MiriFuncCall, ValidRoundTripPasses) {
    expect_pass(R"(
fn hello() { print_int(7); }
fn main() {
    unsafe {
        let a = hello as usize;
        let f = a as fn();
        f();
    }
})");
}

// --- func.pointer ----------------------------------------------------------------

TEST(MiriFuncPointer, WrongSignature) {
    expect_ub(R"(
fn takes_i64(x: i64) -> i64 { return x; }
fn main() {
    unsafe {
        let a = takes_i64 as usize;
        let f = a as fn(i32) -> i32;
        let y = f(1);
    }
})",
              UbCategory::FuncPointer);
}

TEST(MiriFuncPointer, WrongArity) {
    expect_ub(R"(
fn two(a: i64, b: i64) -> i64 { return a + b; }
fn main() {
    unsafe {
        let addr = two as usize;
        let f = addr as fn(i64) -> i64;
        let y = f(1);
    }
})",
              UbCategory::FuncPointer);
}

TEST(MiriFuncPointer, MatchingSignaturePasses) {
    expect_pass(R"(
fn double(x: i64) -> i64 { return x * 2; }
fn main() {
    unsafe {
        let a = double as usize;
        let f = a as fn(i64) -> i64;
        print_int(f(21));
    }
})");
}

// --- stack borrow ------------------------------------------------------------------

TEST(MiriStackBorrow, RawInvalidatedByNewMutBorrow) {
    expect_ub(R"(
fn main() {
    let mut x = 5;
    let r1 = &mut x;
    let p = r1 as *mut i32;
    let r2 = &mut x;
    *r2 = 6;
    unsafe { *p = 7; }
})",
              UbCategory::StackBorrow);
}

TEST(MiriStackBorrow, RawOutlivesReborrow) {
    expect_ub(R"(
fn main() {
    let mut x = 1;
    let p = &mut x as *mut i32;
    let r = &mut x;
    *r = 2;
    unsafe { print_int(*p as i64); }
})",
              UbCategory::StackBorrow);
}

TEST(MiriStackBorrow, WellNestedRawUsePasses) {
    expect_pass(R"(
fn main() {
    let mut x = 5;
    let p = &mut x as *mut i32;
    unsafe {
        *p = 6;
        print_int(*p as i64);
    }
    let r2 = &mut x;
    *r2 = 7;
    print_int(x as i64);
})");
}

// --- validity ----------------------------------------------------------------------

TEST(MiriValidity, BadBool) {
    expect_ub(R"(
fn main() {
    let a: [u8; 1] = [2];
    let p = &a as *const u8 as *const bool;
    unsafe {
        let b = *p;
        print_bool(b);
    }
})",
              UbCategory::Validity);
}

TEST(MiriValidity, GoodBoolPasses) {
    expect_pass(R"(
fn main() {
    let a: [u8; 1] = [1];
    let p = &a as *const u8 as *const bool;
    unsafe {
        print_bool(*p);
    }
})");
}

// --- unaligned ----------------------------------------------------------------------

TEST(MiriUnaligned, MisalignedWideLoad) {
    expect_ub(R"(
fn main() {
    let a: [u32; 2] = [1, 2];
    unsafe {
        let p = &a as *const u32 as *const u8;
        let q = offset(p, 1) as *const u32;
        let v = *q;
    }
})",
              UbCategory::Unaligned);
}

TEST(MiriUnaligned, AlignedAccessPasses) {
    expect_pass(R"(
fn main() {
    let a: [u32; 2] = [1, 2];
    unsafe {
        let p = &a as *const u32 as *const u8;
        let q = offset(p, 4) as *const u32;
        print_int(*q as i64);
    }
})");
}

// --- concurrency ------------------------------------------------------------------

TEST(MiriConcurrency, DoubleJoin) {
    expect_ub(R"(
fn work() { }
fn main() {
    let h = spawn(work);
    join(h);
    join(h);
})",
              UbCategory::Concurrency);
}

TEST(MiriConcurrency, ThreadLeak) {
    expect_ub(R"(
fn work() { }
fn main() {
    let h = spawn(work);
})",
              UbCategory::Concurrency);
}

TEST(MiriConcurrency, SelfDeadlock) {
    expect_ub(R"(
static mut LOCK: i64 = 0;
fn main() {
    unsafe {
        LOCK = mutex_new();
        mutex_lock(LOCK);
        mutex_lock(LOCK);
    }
})",
              UbCategory::Concurrency);
}

TEST(MiriConcurrency, UnlockNotHeld) {
    expect_ub(R"(
static mut LOCK: i64 = 0;
fn main() {
    unsafe {
        LOCK = mutex_new();
        mutex_unlock(LOCK);
    }
})",
              UbCategory::Concurrency);
}

TEST(MiriConcurrency, InvalidJoinHandle) {
    expect_ub("fn main() { join(42); }", UbCategory::Concurrency);
}

TEST(MiriConcurrency, SpawnJoinPasses) {
    expect_pass(R"(
fn work() { print_int(3); }
fn main() {
    let h = spawn(work);
    join(h);
})");
}

// --- tail call ---------------------------------------------------------------------

TEST(MiriTailCall, SignatureMismatch) {
    expect_ub(R"(
fn real(x: i64) -> i64 { return x; }
fn trampoline() -> i32 {
    unsafe {
        let a = real as usize;
        let k = a as fn() -> i32;
        become k();
    }
}
fn main() {
    let v = trampoline();
})",
              UbCategory::TailCall);
}

TEST(MiriTailCall, BogusTarget) {
    expect_ub(R"(
fn trampoline() -> i32 {
    unsafe {
        let k = 4096 as fn() -> i32;
        become k();
    }
}
fn main() { let v = trampoline(); })",
              UbCategory::TailCall);
}

TEST(MiriTailCall, LocalEscapesIntoTailCallee) {
    // become kills the caller frame before the callee runs; a pointer to a
    // caller local handed to the callee (even as an argument, which is
    // evaluated before the frame dies) is dangling inside the callee.
    expect_ub(R"(
fn use_it(p: *const i32) -> i32 {
    unsafe {
        return *p;
    }
}
fn trampoline() -> i32 {
    let local = 42;
    become use_it(&local as *const i32);
}
fn main() {
    let v = trampoline();
})",
              UbCategory::TailCall);
}

TEST(MiriTailCall, DeepBecomeDoesNotOverflow) {
    // become must not grow the call stack: 5000 iterations with depth cap 200.
    expect_pass(R"(
fn count(n: i64) -> i64 {
    if n <= 0 {
        return 0;
    }
    become count(n - 1);
}
fn main() {
    print_int(count(5000));
})");
}

TEST(MiriTailCall, MatchingBecomePasses) {
    expect_pass(R"(
fn is_even(n: i64) -> bool {
    if n == 0 { return true; }
    become is_odd(n - 1);
}
fn is_odd(n: i64) -> bool {
    if n == 0 { return false; }
    become is_even(n - 1);
}
fn main() {
    print_bool(is_even(10));
    print_bool(is_odd(7));
})");
}

TEST(MiriTailCall, DeepMutualBecomeChainDoesNotOverflow) {
    // The trampoline must also flatten chains that alternate between
    // functions: 20000 mutual tail calls with depth cap 200.
    expect_pass(R"(
fn is_even(n: i64) -> bool {
    if n == 0 { return true; }
    become is_odd(n - 1);
}
fn is_odd(n: i64) -> bool {
    if n == 0 { return false; }
    become is_even(n - 1);
}
fn main() {
    print_bool(is_even(20000));
})");
}

TEST(MiriTailCall, BecomeNestedInBlocksUnwindsCleanly) {
    // A become buried in nested blocks: every enclosing scope must unwind
    // normally on the way out to the trampoline, at any chain length.
    expect_pass(R"(
fn count(n: i64) -> i64 {
    if n > 0 {
        unsafe {
            become count(n - 1);
        }
    }
    return 0;
}
fn main() {
    print_int(count(5000));
})");
}

TEST(MiriTailCall, ChainEndingInPanicKeepsFaultSiteSpan) {
    // UB at the end of a become chain must be attributed to the faulting
    // expression in the final callee, not to any become site the
    // trampoline flattened away.
    const MiriReport report = run(
        "fn h(n: i64) -> i64 { return 100 / n; }\n"
        "fn g(n: i64) -> i64 { become h(n); }\n"
        "fn f(n: i64) -> i64 { become g(n); }\n"
        "fn main() { let v = f(0); }\n");
    ASSERT_FALSE(report.passed());
    EXPECT_TRUE(report.has_category(UbCategory::Panic)) << report.summary();
    EXPECT_EQ(report.findings.front().span.line, 1u) << report.summary();
}

TEST(MiriTailCall, ChainEndingInDanglingAccessKeepsFaultSiteSpan) {
    // A caller local handed through two becomes: the access in the final
    // callee is TailCall UB, attributed to the deref site on line 1.
    const MiriReport report = run(
        "fn h(p: *const i32) -> i32 { unsafe { return *p; } }\n"
        "fn g(p: *const i32) -> i32 { become h(p); }\n"
        "fn f() -> i32 { let local = 7; become g(&local as *const i32); }\n"
        "fn main() { let v = f(); }\n");
    ASSERT_FALSE(report.passed());
    EXPECT_TRUE(report.has_category(UbCategory::TailCall)) << report.summary();
    EXPECT_EQ(report.findings.front().span.line, 1u) << report.summary();
}

TEST(MiriTailCall, BadTargetAttributedToBecomeSite) {
    // The become statement itself is the fault site when the target is
    // bogus — resolution happens before the trampoline bounces.
    const MiriReport report = run(
        "fn f() -> i64 {\n"
        "    unsafe {\n"
        "        let k = 4096 as fn() -> i64;\n"
        "        become k();\n"
        "    }\n"
        "}\n"
        "fn main() { let v = f(); }\n");
    ASSERT_FALSE(report.passed());
    EXPECT_TRUE(report.has_category(UbCategory::TailCall)) << report.summary();
    EXPECT_EQ(report.findings.front().span.line, 4u) << report.summary();
}

// --- compile errors & outputs ------------------------------------------------------

TEST(MiriDriver, CompileErrorReported) {
    const MiriReport report = run("fn main() { let x: i32 = true; }");
    ASSERT_FALSE(report.passed());
    EXPECT_TRUE(report.has_category(UbCategory::CompileError));
}

TEST(MiriDriver, ParseErrorReported) {
    const MiriReport report = run("fn main( {");
    ASSERT_FALSE(report.passed());
    EXPECT_TRUE(report.has_category(UbCategory::CompileError));
}

TEST(MiriDriver, OutputsCollectedPerInput) {
    const MiriReport report = run(R"(
fn main() {
    print_int(input(0) * 2);
})",
                                  {{3}, {10}});
    ASSERT_TRUE(report.passed()) << report.summary();
    ASSERT_EQ(report.outputs.size(), 2u);
    EXPECT_EQ(report.outputs[0], std::vector<std::string>{"6"});
    EXPECT_EQ(report.outputs[1], std::vector<std::string>{"20"});
}

TEST(MiriDriver, FindingsDedupAcrossInputs) {
    const MiriReport report = run("fn main() { panic(); }", {{1}, {2}, {3}});
    EXPECT_EQ(report.error_count(), 1u);
}

TEST(MiriDriver, DistinctFindingsPerInput) {
    const MiriReport report = run(R"(
fn main() {
    let sel = input(0);
    if sel == 0 {
        panic();
    } else {
        let p = 0 as *const i32;
        unsafe { let v = *p; }
    }
})",
                                  {{0}, {1}});
    EXPECT_EQ(report.error_count(), 2u);
}

TEST(MiriDriver, DeterministicAcrossRuns) {
    const std::string source = R"(
static mut COUNTER: i64 = 0;
fn worker() { unsafe { COUNTER = COUNTER + 1; } }
fn main() {
    let h = spawn(worker);
    join(h);
    unsafe { print_int(COUNTER); }
})";
    const MiriReport a = run(source);
    const MiriReport b = run(source);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.total_steps, b.total_steps);
}

}  // namespace
}  // namespace rustbrain::miri
