// Direct unit tests of the memory model: borrow stacks, provenance, vector
// clocks, epochs — below the interpreter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "miri/memory.hpp"

namespace rustbrain::miri {
namespace {

using lang::Type;

AccessCtx ctx() { return AccessCtx{}; }

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
    MemoryModel mem;
    const AllocId id = mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    mem.store(p, Type::i64(), Value::scalar(0xDEADBEEF), ctx());
    const Value v = mem.load(p, Type::i64(), ctx());
    EXPECT_EQ(v.bits(), 0xDEADBEEFu);
}

TEST(MemoryTest, AddressesAligned) {
    MemoryModel mem;
    const AllocId a = mem.allocate(1, 1, AllocKind::Stack, "a", {});
    const AllocId b = mem.allocate(8, 8, AllocKind::Stack, "b", {});
    EXPECT_EQ(mem.get(b).base % 8, 0u);
    EXPECT_NE(mem.get(a).base, mem.get(b).base);
}

TEST(MemoryTest, GuardGapBetweenAllocations) {
    MemoryModel mem;
    const AllocId a = mem.allocate(8, 1, AllocKind::Stack, "a", {});
    const AllocId b = mem.allocate(8, 1, AllocKind::Stack, "b", {});
    EXPECT_GE(mem.get(b).base, mem.get(a).base + 8 + 16);
}

TEST(MemoryTest, UninitReadThrows) {
    MemoryModel mem;
    const AllocId id = mem.allocate(4, 4, AllocKind::Heap, "h", {});
    try {
        mem.load(mem.base_pointer(id), Type::i32(), ctx());
        FAIL() << "expected Uninit UB";
    } catch (const UbException& ub) {
        EXPECT_EQ(ub.finding.category, UbCategory::Uninit);
    }
}

TEST(MemoryTest, PartialOverwriteClearsPointerProvenance) {
    MemoryModel mem;
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
    MemoryModel mem;
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
    MemoryModel mem;
    const AllocId id = mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    const Pointer end = mem.offset_pointer(p, 8, {});  // one-past-end OK
    EXPECT_EQ(end.addr, p.addr + 8);
    EXPECT_THROW(mem.offset_pointer(p, 9, {}), UbException);
    EXPECT_THROW(mem.offset_pointer(p, -1, {}), UbException);
}

TEST(MemoryTest, RetagRefChainReadWrite) {
    MemoryModel mem;
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());

    const Pointer unique = mem.retag_ref(base, 4, /*is_mut=*/true, {});
    mem.store(unique, Type::i32(), Value::scalar(6), ctx());
    EXPECT_EQ(mem.load(unique, Type::i32(), ctx()).bits(), 6u);
}

TEST(MemoryTest, WriteThroughBaseInvalidatesRef) {
    MemoryModel mem;
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());
    const Pointer ref = mem.retag_ref(base, 4, /*is_mut=*/false, {});
    // Direct write via the base tag invalidates the shared ref above it.
    mem.store(base, Type::i32(), Value::scalar(9), ctx());
    try {
        mem.load(ref, Type::i32(), ctx());
        FAIL() << "expected borrow UB";
    } catch (const UbException& ub) {
        EXPECT_EQ(ub.finding.category, UbCategory::BothBorrow);
    }
}

TEST(MemoryTest, ReadDoesNotInvalidateSharedRefs) {
    MemoryModel mem;
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
    MemoryModel mem;
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer base = mem.base_pointer(id);
    mem.store(base, Type::i32(), Value::scalar(5), ctx());
    const Pointer shared = mem.retag_ref(base, 4, false, {});
    const Pointer raw = mem.retag_raw(shared, 4, /*writable=*/false, {});
    EXPECT_EQ(mem.load(raw, Type::i32(), ctx()).bits(), 5u);
    EXPECT_THROW(mem.store(raw, Type::i32(), Value::scalar(1), ctx()), UbException);
}

TEST(MemoryTest, KilledAllocationRejectsAccess) {
    MemoryModel mem;
    const AllocId id = mem.allocate(4, 4, AllocKind::Stack, "x", {});
    const Pointer p = mem.base_pointer(id);
    mem.store(p, Type::i32(), Value::scalar(1), ctx());
    mem.kill(id);
    try {
        mem.load(p, Type::i32(), ctx());
        FAIL() << "expected dangling UB";
    } catch (const UbException& ub) {
        EXPECT_EQ(ub.finding.category, UbCategory::DanglingPointer);
    }
}

TEST(MemoryTest, LeakCheckFindsLiveHeap) {
    MemoryModel mem;
    mem.allocate(8, 8, AllocKind::Heap, "h", {});
    const auto leak = mem.check_leaks();
    ASSERT_TRUE(leak.has_value());
    EXPECT_EQ(leak->category, UbCategory::Alloc);
}

TEST(MemoryTest, LeakCheckIgnoresStackAndStatic) {
    MemoryModel mem;
    mem.allocate(8, 8, AllocKind::Stack, "s", {});
    mem.allocate(8, 8, AllocKind::Static, "g", {});
    EXPECT_FALSE(mem.check_leaks().has_value());
}

TEST(MemoryTest, RaceDetectedBetweenUnorderedWrites) {
    MemoryModel mem;
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
    try {
        mem.store(p, Type::i64(), Value::scalar(2), c1);
        FAIL() << "expected data race";
    } catch (const UbException& ub) {
        EXPECT_EQ(ub.finding.category, UbCategory::DataRace);
    }
}

TEST(MemoryTest, NoRaceWhenOrdered) {
    MemoryModel mem;
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
    EXPECT_NO_THROW(mem.store(p, Type::i64(), Value::scalar(2), c1));
}

TEST(MemoryTest, BothAtomicIsNotARace) {
    MemoryModel mem;
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
    EXPECT_NO_THROW(mem.store(p, Type::i64(), Value::scalar(2), c1));
}

TEST(MemoryTest, MixedAtomicNonAtomicRaces) {
    MemoryModel mem;
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
    EXPECT_THROW(mem.store(p, Type::i64(), Value::scalar(2), c1), UbException);
}

TEST(MemoryTest, DeallocValidation) {
    MemoryModel mem;
    const AllocId id = mem.allocate(16, 8, AllocKind::Heap, "h", {});
    const Pointer p = mem.base_pointer(id);
    EXPECT_THROW(mem.deallocate(p, 8, 8, {}), UbException);   // wrong size
    EXPECT_THROW(mem.deallocate(p, 16, 4, {}), UbException);  // wrong align
    Pointer inner = p;
    inner.addr += 8;
    EXPECT_THROW(mem.deallocate(inner, 16, 8, {}), UbException);  // not start
    EXPECT_NO_THROW(mem.deallocate(p, 16, 8, {}));
    EXPECT_THROW(mem.deallocate(p, 16, 8, {}), UbException);  // double free
}

TEST(MemoryTest, ArrayStoreLoadElementwise) {
    MemoryModel mem;
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
    // Shadow allocations charge the cap like materialized ones, so the
    // edge is checked without building 5 MiB of per-byte state.
    MemoryModel mem;
    mem.allocate_shadow(kMaxBytesPerRun - 2, 1, AllocKind::Stack, "a", {});
    mem.allocate(1, 1, AllocKind::Heap, "heap", {});
    mem.reserve(0, 1, {});  // a unit local still takes one byte
    EXPECT_EQ(mem.bytes_allocated(), kMaxBytesPerRun);
    try {
        mem.allocate(1, 1, AllocKind::Heap, "heap", {});
        FAIL() << "allocation past the cap succeeded";
    } catch (const UbException& ub) {
        EXPECT_EQ(ub.finding.category, UbCategory::Alloc);
        EXPECT_EQ(ub.finding.message,
                  "out of memory: allocating 1 bytes passes the run's cap of " +
                      std::to_string(kMaxBytesPerRun) + " bytes");
    }
    EXPECT_EQ(mem.bytes_allocated(), kMaxBytesPerRun);
}

TEST(MemoryTest, RunCapRejectsOneHugeAllocationBeforeMaterializing) {
    MemoryModel mem;
    EXPECT_THROW(mem.allocate(std::uint64_t{1} << 40, 8, AllocKind::Heap, "heap", {}),
                 UbException);
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_EQ(mem.bytes_allocated(), 0u);
}

}  // namespace
}  // namespace rustbrain::miri
