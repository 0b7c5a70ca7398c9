// Direct unit tests of the memory model: borrow stacks, provenance, vector
// clocks, epochs — below the interpreter.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "miri/memory.hpp"

namespace rustbrain::miri {
namespace {

using lang::Type;

/// Where a faulting call is made; the recorded finding must carry it.
const support::SourceSpan kSite{40, 52, 7, 3};

AccessCtx ctx(support::SourceSpan span = {}) {
    AccessCtx out;
    out.span = span;
    return out;
}

/// The one fault recorded since the last check, taken off `faults`, is
/// `category` with `message` at `span`.
::testing::AssertionResult Faulted(FaultRecord& faults, UbCategory category,
                                   const std::string& message,
                                   support::SourceSpan span = kSite) {
    const std::optional<Finding> finding = faults.take();
    if (!finding) return ::testing::AssertionFailure() << "no fault recorded";
    if (finding->category != category || finding->message != message ||
        finding->span.begin != span.begin || finding->span.end != span.end ||
        finding->span.line != span.line || finding->span.column != span.column) {
        return ::testing::AssertionFailure()
               << "recorded " << finding->to_string() << " (span "
               << finding->span.begin << ".." << finding->span.end << ")";
    }
    return ::testing::AssertionSuccess();
}

TEST(VectorClockTest, GetSetMerge) {
    VectorClock a;
    a.set(0, 3);
    a.set(2, 5);
    EXPECT_EQ(a.get(0), 3u);
    EXPECT_EQ(a.get(1), 0u);
    EXPECT_EQ(a.get(2), 5u);

    VectorClock b;
    b.set(1, 7);
    b.set(2, 1);
    a.merge(b);
    EXPECT_EQ(a.get(0), 3u);
    EXPECT_EQ(a.get(1), 7u);
    EXPECT_EQ(a.get(2), 5u);
}

TEST(VectorClockTest, Increment) {
    VectorClock a;
    a.increment(4);
    a.increment(4);
    EXPECT_EQ(a.get(4), 2u);
}

TEST(MemoryTest, AllocateAndRoundTripScalar) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    mem.store(p, Type::i64(), Value::scalar(0xDEADBEEF), ctx());
    const Value v = mem.load(p, Type::i64(), ctx());
    EXPECT_EQ(v.bits(), 0xDEADBEEFu);
}

TEST(MemoryTest, AddressesAligned) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId a = mem.allocate(1, 1, AllocKind::Stack, "a", {});
    const AllocId b = mem.allocate(8, 8, AllocKind::Stack, "b", {});
    EXPECT_EQ(mem.get(b).base % 8, 0u);
    EXPECT_NE(mem.get(a).base, mem.get(b).base);
}

TEST(MemoryTest, GuardGapBetweenAllocations) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId a = mem.allocate(8, 1, AllocKind::Stack, "a", {});
    const AllocId b = mem.allocate(8, 1, AllocKind::Stack, "b", {});
    EXPECT_GE(mem.get(b).base, mem.get(a).base + 8 + 16);
}

TEST(MemoryTest, UninitReadThrows) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(4, 4, AllocKind::Heap, "h", {});
    mem.load(mem.base_pointer(id), Type::i32(), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::Uninit,
                        "reading uninitialized memory in 'h' at offset 0"));
}

TEST(MemoryTest, PartialOverwriteClearsPointerProvenance) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId target = mem.allocate(4, 4, AllocKind::Stack, "t", {});
    const AllocId holder = mem.allocate(8, 8, AllocKind::Stack, "slot", {});
    lang::TypePool pool;
    const Type ptr_type = pool.raw_ptr(Type::i32(), false);

    mem.store(mem.base_pointer(holder), ptr_type,
              Value::pointer(mem.base_pointer(target)), ctx());
    // Clobber one byte of the stored pointer with an integer write.
    Pointer byte_ptr = mem.base_pointer(holder);
    mem.store(byte_ptr, Type::u8(), Value::scalar(0xFF), ctx());

    const Value reloaded = mem.load(mem.base_pointer(holder), ptr_type, ctx());
    EXPECT_FALSE(reloaded.as_ptr().has_provenance());
}

TEST(MemoryTest, StoredPointerKeepsProvenance) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId target = mem.allocate(4, 4, AllocKind::Stack, "t", {});
    const AllocId holder = mem.allocate(8, 8, AllocKind::Stack, "slot", {});
    lang::TypePool pool;
    const Type ptr_type = pool.raw_ptr(Type::i32(), false);
    mem.store(mem.base_pointer(holder), ptr_type,
              Value::pointer(mem.base_pointer(target)), ctx());
    const Value reloaded = mem.load(mem.base_pointer(holder), ptr_type, ctx());
    EXPECT_TRUE(reloaded.as_ptr().has_provenance());
    EXPECT_EQ(reloaded.as_ptr().alloc, target);
}

TEST(MemoryTest, OffsetStaysInBounds) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    const Pointer end = mem.offset_pointer(p, 8, {});  // one-past-end OK
    EXPECT_EQ(end.addr, p.addr + 8);
    EXPECT_EQ(mem.offset_pointer(p, 9, kSite), Pointer{});
    EXPECT_TRUE(Faulted(faults, UbCategory::Provenance,
                        "pointer arithmetic out of bounds: offset 9 from offset 0 "
                        "of 8-byte allocation 'h'"));
    EXPECT_EQ(mem.offset_pointer(p, -1, kSite), Pointer{});
    EXPECT_TRUE(Faulted(faults, UbCategory::Provenance,
                        "pointer arithmetic out of bounds: offset -1 from offset 0 "
                        "of 8-byte allocation 'h'"));
}

TEST(MemoryTest, RetagRefChainReadWrite) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());

    const Pointer unique = mem.retag_ref(base, 4, /*is_mut=*/true, {});
    mem.store(unique, Type::i32(), Value::scalar(6), ctx());
    EXPECT_EQ(mem.load(unique, Type::i32(), ctx()).bits(), 6u);
}

TEST(MemoryTest, WriteThroughBaseInvalidatesRef) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());
    const Pointer ref = mem.retag_ref(base, 4, /*is_mut=*/false, {});
    // Direct write via the base tag invalidates the shared ref above it.
    mem.store(base, Type::i32(), Value::scalar(9), ctx());
    mem.load(ref, Type::i32(), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::BothBorrow,
                        "read through an invalidated borrow of 'x' (tag no "
                        "longer on the borrow stack)"));
}

TEST(MemoryTest, ReadDoesNotInvalidateSharedRefs) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());
    const Pointer r1 = mem.retag_ref(base, 4, false, {});
    const Pointer r2 = mem.retag_ref(base, 4, false, {});
    // Reads through any shared path keep all shared refs alive.
    EXPECT_EQ(mem.load(r1, Type::i32(), ctx()).bits(), 5u);
    EXPECT_EQ(mem.load(r2, Type::i32(), ctx()).bits(), 5u);
    EXPECT_EQ(mem.load(base, Type::i32(), ctx()).bits(), 5u);
    EXPECT_EQ(mem.load(r1, Type::i32(), ctx()).bits(), 5u);
}

TEST(MemoryTest, RawFromSharedRefIsReadOnly) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());
    const Pointer shared = mem.retag_ref(base, 4, false, {});
    const Pointer raw = mem.retag_raw(shared, 4, /*writable=*/false, {});
    EXPECT_EQ(mem.load(raw, Type::i32(), ctx()).bits(), 5u);
    mem.store(raw, Type::i32(), Value::scalar(1), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::StackBorrow,
                        "write through a read-only borrow of 'x'"));
}

TEST(MemoryTest, KilledAllocationRejectsAccess) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer p = mem.base_pointer(id);
    mem.store(p, Type::i32(), Value::scalar(1), ctx());
    mem.kill(id);
    mem.load(p, Type::i32(), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::DanglingPointer,
                        "use after free: allocation 'x' is dead"));
}

TEST(MemoryTest, DeadAllocationsDropTheirBytesAndKeepTheirDiagnostics) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId x = mem.allocate(64, 8, AllocKind::Stack, "x", {});
    const AllocId y = mem.allocate(64, 8, AllocKind::Stack, "y", {});
    const AllocId h = mem.allocate(64, 8, AllocKind::Heap, "h", {});
    const AllocId leaked = mem.allocate(16, 8, AllocKind::Heap, "l", {});
    const Pointer px = mem.base_pointer(x);
    const Pointer py = mem.base_pointer(y);
    const Pointer ph = mem.base_pointer(h);
    // Per-byte state of every kind: bytes, init, a retagged borrow stack,
    // race epochs and stored pointer provenance.
    VectorClock vc;
    vc.set(0, 1);
    AccessCtx clocked;
    clocked.vc = &vc;
    mem.store(px, Type::i64(), Value::scalar(7), clocked);
    lang::TypePool pool;
    Pointer second = px;
    second.addr += 8;
    mem.store(second, pool.raw_ptr(Type::i64(), true), Value::pointer(py),
              ctx());
    const Pointer ref = mem.retag_ref(px, 8, /*is_mut=*/false, {});
    EXPECT_FALSE(faults.raised());
    EXPECT_EQ(mem.bytes_allocated(), 64u * 3 + 16);

    const std::size_t before = mem.footprint_bytes();
    mem.kill(x);
    EXPECT_LT(mem.footprint_bytes(), before);
    EXPECT_EQ(mem.bytes_allocated(), 64u * 2 + 16);
    const Allocation& dead = mem.get(x);
    EXPECT_FALSE(dead.live);
    EXPECT_EQ(dead.size, 64u);
    EXPECT_EQ(dead.label, "x");
    // The payload slot (bytes, init, borrow, race and provenance state) is
    // given back: only the header is left.
    EXPECT_EQ(dead.payload, kNoPayload);

    mem.load(px, Type::i64(), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::DanglingPointer,
                        "use after free: allocation 'x' is dead"));
    mem.store(ref, Type::i64(), Value::scalar(1), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::DanglingPointer,
                        "use after free: allocation 'x' is dead"));
    EXPECT_EQ(mem.retag_ref(px, 8, /*is_mut=*/true, kSite), Pointer{});
    EXPECT_TRUE(Faulted(faults, UbCategory::DanglingPointer,
                        "creating a reference into dead allocation 'x'"));
    EXPECT_EQ(mem.retag_raw(ref, 8, /*writable=*/false, kSite), Pointer{});
    EXPECT_TRUE(Faulted(faults, UbCategory::DanglingPointer,
                        "casting a reference into dead allocation 'x'"));
    EXPECT_EQ(mem.offset_pointer(px, 1, kSite, 8), Pointer{});
    EXPECT_TRUE(Faulted(faults, UbCategory::DanglingPointer,
                        "pointer arithmetic on dead allocation 'x'"));

    mem.kill_for_tail_call(y);
    EXPECT_EQ(mem.bytes_allocated(), 64u + 16);
    mem.load(py, Type::i64(), ctx(kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::TailCall,
                        "use after free: local 'y' died when its frame was "
                        "popped by a become tail call"));

    mem.deallocate(ph, 64, 8, {});
    EXPECT_FALSE(faults.raised());
    EXPECT_EQ(mem.bytes_allocated(), 16u);
    mem.deallocate(ph, 64, 8, kSite);
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "double free: allocation 'h' was already deallocated"));
    mem.kill(h);  // already dead: charged off once only
    mem.kill(x);
    EXPECT_EQ(mem.bytes_allocated(), 16u);

    const std::optional<Finding> leak = mem.check_leaks();
    ASSERT_TRUE(leak.has_value());
    EXPECT_EQ(leak->message,
              "memory leaked: 16-byte heap allocation was never deallocated");
    mem.deallocate(mem.base_pointer(leaked), 16, 8, {});
    EXPECT_FALSE(mem.check_leaks().has_value());
    EXPECT_EQ(mem.bytes_allocated(), 0u);
}

TEST(MemoryTest, DeadBytesLeaveTheRunCap) {
    // The cap counts live bytes: a dead allocation's size is free again.
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId big = mem.allocate(kMaxBytesPerRun - 8, 1, AllocKind::Stack,
                                     "big", {});
    EXPECT_EQ(mem.allocate(64, 1, AllocKind::Stack, "a", kSite), kNoAlloc);
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "out of memory: allocating 64 bytes passes the run's "
                        "cap of " +
                            std::to_string(kMaxBytesPerRun) + " bytes"));
    mem.kill(big);
    EXPECT_TRUE(mem.fits_in_cap(kMaxBytesPerRun, 1, kSite));
    EXPECT_NE(mem.allocate(64, 1, AllocKind::Stack, "a", {}), kNoAlloc);
    EXPECT_FALSE(faults.raised());
}

TEST(MemoryTest, LeakCheckFindsLiveHeap) {
    FaultRecord faults;
    MemoryModel mem(faults);
    mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const auto leak = mem.check_leaks();
    ASSERT_TRUE(leak.has_value());
    EXPECT_EQ(leak->category, UbCategory::Alloc);
}

TEST(MemoryTest, LeakCheckIgnoresStackAndStatic) {
    FaultRecord faults;
    MemoryModel mem(faults);
    mem.allocate(8, 8, AllocKind::Stack, "s", {});
    mem.allocate(8, 8, AllocKind::Static, "g", {});
    EXPECT_FALSE(mem.check_leaks().has_value());
}

TEST(MemoryTest, RaceDetectedBetweenUnorderedWrites) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Static, "g", {});
    const Pointer p = mem.base_pointer(id);

    VectorClock vc0;
    vc0.set(0, 1);
    VectorClock vc1;
    vc1.set(1, 1);  // thread 1 knows nothing of thread 0

    AccessCtx c0;
    c0.tid = 0;
    c0.vc = &vc0;
    mem.store(p, Type::i64(), Value::scalar(1), c0);

    AccessCtx c1;
    c1.tid = 1;
    c1.vc = &vc1;
    c1.span = kSite;
    mem.store(p, Type::i64(), Value::scalar(2), c1);
    EXPECT_TRUE(Faulted(faults, UbCategory::DataRace,
                        "write-after-write data race on 'g' between threads 0 "
                        "and 1"));
}

TEST(MemoryTest, NoRaceWhenOrdered) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Static, "g", {});
    const Pointer p = mem.base_pointer(id);

    VectorClock vc0;
    vc0.set(0, 1);
    AccessCtx c0;
    c0.tid = 0;
    c0.vc = &vc0;
    mem.store(p, Type::i64(), Value::scalar(1), c0);

    // Thread 1's clock includes thread 0's write (join/spawn edge).
    VectorClock vc1;
    vc1.set(0, 1);
    vc1.set(1, 1);
    AccessCtx c1;
    c1.tid = 1;
    c1.vc = &vc1;
    mem.store(p, Type::i64(), Value::scalar(2), c1);
    EXPECT_FALSE(faults.raised());
}

TEST(MemoryTest, BothAtomicIsNotARace) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Static, "g", {});
    const Pointer p = mem.base_pointer(id);

    VectorClock vc0;
    vc0.set(0, 1);
    AccessCtx c0;
    c0.tid = 0;
    c0.vc = &vc0;
    c0.atomic = true;
    mem.store(p, Type::i64(), Value::scalar(1), c0);

    VectorClock vc1;
    vc1.set(1, 1);
    AccessCtx c1;
    c1.tid = 1;
    c1.vc = &vc1;
    c1.atomic = true;
    mem.store(p, Type::i64(), Value::scalar(2), c1);
    EXPECT_FALSE(faults.raised());
}

TEST(MemoryTest, MixedAtomicNonAtomicRaces) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Static, "g", {});
    const Pointer p = mem.base_pointer(id);

    VectorClock vc0;
    vc0.set(0, 1);
    AccessCtx c0;
    c0.tid = 0;
    c0.vc = &vc0;
    c0.atomic = true;
    mem.store(p, Type::i64(), Value::scalar(1), c0);

    VectorClock vc1;
    vc1.set(1, 1);
    AccessCtx c1;
    c1.tid = 1;
    c1.vc = &vc1;
    c1.atomic = false;
    c1.span = kSite;
    mem.store(p, Type::i64(), Value::scalar(2), c1);
    EXPECT_TRUE(Faulted(faults, UbCategory::DataRace,
                        "write-after-write data race on 'g' between threads 0 "
                        "and 1"));
}

TEST(MemoryTest, DeallocValidation) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(16, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    mem.deallocate(p, 8, 8, kSite);  // wrong size
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "dealloc layout mismatch: allocated (size 16, align 8), "
                        "freed with (size 8, align 8)"));
    mem.deallocate(p, 16, 4, kSite);  // wrong align
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "dealloc layout mismatch: allocated (size 16, align 8), "
                        "freed with (size 16, align 4)"));
    Pointer inner = p;
    inner.addr += 8;
    mem.deallocate(inner, 16, 8, kSite);  // not start
    EXPECT_TRUE(Faulted(
        faults, UbCategory::Alloc,
        "dealloc pointer does not point to the start of the allocation"));
    // None of the failed frees touched the allocation.
    mem.deallocate(p, 16, 8, {});
    EXPECT_FALSE(faults.raised());
    mem.deallocate(p, 16, 8, kSite);  // double free
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "double free: allocation 'h' was already deallocated"));
}

TEST(MemoryTest, ArrayStoreLoadElementwise) {
    FaultRecord faults;
    MemoryModel mem(faults);
    lang::TypePool pool;
    const Type array_type = pool.array(Type::i32(), 3);
    const AllocId id = mem.allocate(array_type.size_bytes(),
                                    array_type.align_bytes(), AllocKind::Stack,
                                    "a", {});
    const Pointer p = mem.base_pointer(id);
    mem.store(p, array_type,
              Value::array({Value::scalar(10), Value::scalar(20), Value::scalar(30)}),
              ctx());
    const Value loaded = mem.load(p, array_type, ctx());
    ASSERT_EQ(loaded.as_array().size(), 3u);
    EXPECT_EQ(loaded.as_array()[1].bits(), 20u);
}

TEST(ValueTest, SignExtension) {
    EXPECT_EQ(Value::scalar(0xFF).as_signed(1), -1);
    EXPECT_EQ(Value::scalar(0x7F).as_signed(1), 127);
    EXPECT_EQ(Value::scalar(0xFFFF).as_signed(2), -1);
    EXPECT_EQ(Value::scalar(5).as_signed(8), 5);
}

TEST(ValueTest, FnAddrRoundTrip) {
    const auto addr = fn_index_to_addr(3);
    EXPECT_EQ(fn_addr_to_index(addr, 10), 3);
    EXPECT_EQ(fn_addr_to_index(addr, 2), FnPtrVal::kInvalidFn);
    EXPECT_EQ(fn_addr_to_index(addr + 1, 10), FnPtrVal::kInvalidFn);
    EXPECT_EQ(fn_addr_to_index(4096, 10), FnPtrVal::kInvalidFn);
}

TEST(ValueTest, TruncateToType) {
    EXPECT_EQ(truncate_to_type(0x1FF, Type::u8()), 0xFFu);
    EXPECT_EQ(truncate_to_type(0x1FF, Type::i64()), 0x1FFu);
    EXPECT_EQ(truncate_to_type(7, Type::unit()), 0u);
}

TEST(MemoryTest, RunCapCountsEveryAllocationUpToTheLastByte) {
    // reserve() charges the cap as allocate() does, so the edge is checked
    // without building 5 MiB of per-byte state.
    FaultRecord faults;
    MemoryModel mem(faults);
    mem.reserve(kMaxBytesPerRun - 2, 1, {});
    mem.allocate(1, 1, AllocKind::Heap, "heap", {});
    mem.reserve(0, 1, {});  // a unit local still takes one byte
    EXPECT_EQ(mem.bytes_allocated(), kMaxBytesPerRun);
    EXPECT_FALSE(faults.raised());
    EXPECT_EQ(mem.allocate(1, 1, AllocKind::Heap, "heap", kSite), kNoAlloc)
        << "allocation past the cap succeeded";
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "out of memory: allocating 1 bytes passes the run's cap of " +
                            std::to_string(kMaxBytesPerRun) + " bytes"));
    EXPECT_EQ(mem.bytes_allocated(), kMaxBytesPerRun);
}

TEST(MemoryTest, RunCapRejectsOneHugeAllocationBeforeMaterializing) {
    FaultRecord faults;
    MemoryModel mem(faults);
    EXPECT_EQ(mem.allocate(std::uint64_t{1} << 40, 8, AllocKind::Heap, "heap",
                           kSite),
              kNoAlloc);
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "out of memory: allocating 1099511627776 bytes passes "
                        "the run's cap of " +
                            std::to_string(kMaxBytesPerRun) + " bytes"));
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_EQ(mem.bytes_allocated(), 0u);
}

TEST(MemoryTest, RepeatCapCheckCountsWhatIsLeftAndChargesNothing) {
    FaultRecord faults;
    MemoryModel mem(faults);
    mem.reserve(kMaxBytesPerRun - 100, 1, {});
    EXPECT_TRUE(mem.fits_in_cap(25, 4, kSite));
    EXPECT_TRUE(mem.fits_in_cap(100, 0, kSite));  // one byte per element
    EXPECT_FALSE(faults.raised());
    EXPECT_EQ(mem.bytes_allocated(), kMaxBytesPerRun - 100);
    EXPECT_FALSE(mem.fits_in_cap(101, 0, kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "out of memory: allocating 101 bytes passes the run's "
                        "cap of " +
                            std::to_string(kMaxBytesPerRun) + " bytes"));
    // count * size past 2^64 saturates rather than wrapping under the cap.
    EXPECT_FALSE(mem.fits_in_cap(std::uint64_t{1} << 62, 8, kSite));
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "out of memory: allocating 18446744073709551615 bytes "
                        "passes the run's cap of " +
                            std::to_string(kMaxBytesPerRun) + " bytes"));
    EXPECT_EQ(mem.bytes_allocated(), kMaxBytesPerRun - 100);
}

TEST(MemoryTest, FirstFaultWinsAndFailedChecksLeaveStateAlone) {
    FaultRecord faults;
    MemoryModel mem(faults);
    const AllocId id = mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    mem.load(p, Type::i64(), ctx(kSite));  // uninit: the first fault
    const support::SourceSpan later{90, 95, 12, 1};
    EXPECT_EQ(mem.load(Pointer{}, Type::i64(), ctx(later)).bits(), 0u);
    mem.deallocate(p, 4, 8, later);
    EXPECT_TRUE(mem.get(id).live);  // the failed free changed nothing
    mem.store(p, Type::i64(), Value::scalar(7), ctx(later));
    EXPECT_TRUE(Faulted(faults, UbCategory::Uninit,
                        "reading uninitialized memory in 'h' at offset 0"));
    // A refused allocation is kNoAlloc: the null pointer, and kill ignores it.
    EXPECT_EQ(mem.allocate(8, 3, AllocKind::Stack, "odd", kSite), kNoAlloc);
    EXPECT_EQ(mem.base_pointer(kNoAlloc), Pointer{});
    mem.kill(kNoAlloc);
    EXPECT_TRUE(Faulted(faults, UbCategory::Alloc,
                        "invalid allocation alignment 3 (must be a power of two)"));
}

}  // namespace
}  // namespace rustbrain::miri
