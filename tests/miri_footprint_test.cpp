// What MiriLite's memory model and a verification run hold and allocate
// on the host, measured with counters rather than clocks (DESIGN.md §23):
// the footprint of a large fresh allocation, the bytes a dead allocation
// leaves behind, and the operator new calls one Oracle::interpret makes
// over the seed-42 forge.
//
// The binary replaces the global operator new with one that counts calls
// while a test asks it to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "gen/forge.hpp"
#include "miri/memory.hpp"
#include "verify/oracle.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

}  // namespace

void* operator new(std::size_t bytes) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_news.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* memory = std::malloc(bytes == 0 ? 1 : bytes)) return memory;
    throw std::bad_alloc();
}

void* operator new[](std::size_t bytes) { return operator new(bytes); }
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete[](void* memory) noexcept { std::free(memory); }
void operator delete[](void* memory, std::size_t) noexcept { std::free(memory); }

namespace rustbrain::miri {
namespace {

/// The Oracle with its uncached unit of work callable.
class OpenOracle : public verify::Oracle {
  public:
    using verify::Oracle::Oracle;
    using verify::Oracle::interpret;
};

/// Counts operator new calls while alive.
struct CountNews {
    CountNews() {
        g_news = 0;
        g_counting = true;
    }
    ~CountNews() { g_counting = false; }
    [[nodiscard]] std::size_t calls() const { return g_news.load(); }
};

TEST(FootprintTest, AFreshLargeAllocationCostsItsBytesAndAConstant) {
    // The per-byte model held about 50x its size here: a borrow stack, an
    // init flag and a byte per byte.
    FaultRecord faults;
    MemoryModel mem(faults);
    const std::size_t empty = mem.footprint_bytes();
    constexpr std::uint64_t kSize = 5'000'000;
    std::size_t news = 0;
    {
        const CountNews count;
        ASSERT_NE(mem.allocate(kSize, 1, AllocKind::Stack, "a", {}), kNoAlloc);
        news = count.calls();
    }
    EXPECT_LE(mem.footprint_bytes() - empty, kSize + 1024);
    // The record, payload-slot and tag lists grow once each, and the bytes
    // live out of line.
    EXPECT_LE(news, 4u);
    EXPECT_FALSE(faults.raised());
}

TEST(FootprintTest, DeadAllocationsLeaveASmallHeader) {
    // The per-byte model kept a 312-byte record per dead allocation.
    FaultRecord faults;
    MemoryModel mem(faults);
    const std::size_t empty = mem.footprint_bytes();
    constexpr std::size_t kCycles = 100'000;
    lang::TypePool pool;
    const lang::Type array = pool.array(lang::Type::i64(), 8);
    AccessCtx ctx;
    for (std::size_t i = 0; i < kCycles; ++i) {
        const AllocId id = mem.allocate(array.size_bytes(), array.align_bytes(),
                                        AllocKind::Stack, "a", {});
        mem.store(mem.base_pointer(id), lang::Type::i64(), Value::scalar(i), ctx);
        mem.kill(id);
    }
    EXPECT_FALSE(faults.raised());
    EXPECT_EQ(mem.bytes_allocated(), 0u);
    const double per_record =
        static_cast<double>(mem.footprint_bytes() - empty) / kCycles;
    EXPECT_LE(per_record, 96.0);
}

TEST(FootprintTest, AnInterpretAllocatesAtMost24Times) {
    // 48.8 operator new calls per interpret of this forge when every local
    // held three per-byte vectors and the Oracle copied its input sets.
    gen::ForgeOptions options;
    options.seed = 42;
    options.count = 560;
    const dataset::Corpus corpus = gen::forge_corpus(options);
    verify::OracleOptions oracle_options;
    oracle_options.caching = false;
    const OpenOracle oracle(std::move(oracle_options));

    std::size_t runs = 0;
    std::size_t news = 0;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        for (const std::string* source : {&ub_case.buggy_source, &ub_case.reference_fix}) {
            const std::shared_ptr<const verify::CompiledProgram> compiled =
                oracle.compile(*source);
            ASSERT_TRUE(compiled->ok()) << *source;
            const CountNews count;
            const MiriReport report = oracle.interpret(*compiled, ub_case.inputs);
            news += count.calls();
            ++runs;
        }
    }
    ASSERT_EQ(runs, 1120u);
    const double mean = static_cast<double>(news) / static_cast<double>(runs);
    EXPECT_LE(mean, 24.0);
    RecordProperty("allocations_per_interpret", std::to_string(mean));
}

}  // namespace
}  // namespace rustbrain::miri
