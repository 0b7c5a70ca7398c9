// The run-length memory model against the per-byte model it replaced
// (tests/memory_reference.hpp): seeded random sequences of allocations,
// stores, loads, retags, pointer arithmetic, kills, frees and clocked or
// atomic accesses go through both, and after every step both must have
// raised the same finding (category, message and span), returned the same
// value or pointer and charged the same live bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "memory_reference.hpp"
#include "miri/memory.hpp"
#include "support/rng.hpp"

namespace rustbrain::miri {
namespace {

using lang::Type;

::testing::AssertionResult SameValue(const Value& a, const Value& b) {
    if (a.kind() != b.kind()) {
        return ::testing::AssertionFailure() << "value kinds differ";
    }
    switch (a.kind()) {
        case Value::Kind::Unit: return ::testing::AssertionSuccess();
        case Value::Kind::Scalar:
            if (a.bits() == b.bits()) return ::testing::AssertionSuccess();
            return ::testing::AssertionFailure()
                   << "scalars " << a.bits() << " vs " << b.bits();
        case Value::Kind::Ptr:
            if (a.as_ptr() == b.as_ptr()) return ::testing::AssertionSuccess();
            return ::testing::AssertionFailure() << "pointers differ";
        case Value::Kind::Fn:
            if (a.as_fn() == b.as_fn()) return ::testing::AssertionSuccess();
            return ::testing::AssertionFailure() << "fn pointers differ";
        case Value::Kind::Array: {
            const auto& x = a.as_array();
            const auto& y = b.as_array();
            if (x.size() != y.size()) {
                return ::testing::AssertionFailure() << "array lengths differ";
            }
            for (std::size_t i = 0; i < x.size(); ++i) {
                auto same = SameValue(x[i], y[i]);
                if (!same) return same << " at element " << i;
            }
            return ::testing::AssertionSuccess();
        }
    }
    return ::testing::AssertionFailure() << "unknown value kind";
}

::testing::AssertionResult SameFinding(const std::optional<Finding>& a,
                                       const std::optional<Finding>& b) {
    if (a.has_value() != b.has_value()) {
        return ::testing::AssertionFailure()
               << "model: " << (a ? a->to_string() : "none")
               << ", reference: " << (b ? b->to_string() : "none");
    }
    if (!a) return ::testing::AssertionSuccess();
    if (a->category != b->category || a->message != b->message ||
        a->span.begin != b->span.begin || a->span.end != b->span.end ||
        a->span.line != b->span.line || a->span.column != b->span.column) {
        return ::testing::AssertionFailure() << "model: " << a->to_string()
                                             << ", reference: " << b->to_string();
    }
    return ::testing::AssertionSuccess();
}

/// Both models, driven by one seeded stream of operations.
class Differential {
  public:
    explicit Differential(std::uint64_t seed) : rng_(seed), model_(faults_), ref_(ref_faults_) {
        types_ = {Type::u8(),
                  Type::i32(),
                  Type::i64(),
                  Type::boolean(),
                  pool_.raw_ptr(Type::i32(), true),
                  pool_.raw_ptr(Type::u8(), false),
                  pool_.fn_ptr({}, Type::unit()),
                  pool_.array(Type::i32(), 3),
                  pool_.array(Type::u8(), 5)};
        for (int t = 0; t < 3; ++t) clocks_.emplace_back();
        for (VectorClock& clock : clocks_) clock.set(0, 1);
    }

    /// Findings raised so far, by category.
    std::map<UbCategory, int> tally;

    /// Runs `steps` operations; stops at the first disagreement.
    ::testing::AssertionResult run(int steps) {
        for (int step = 0; step < steps; ++step) {
            const std::string what = one_step();
            const std::optional<Finding> finding = faults_.take();
            auto same = SameFinding(finding, ref_faults_.take());
            if (!same) return same << " after step " << step << " (" << what << ")";
            if (finding) ++tally[finding->category];
            if (model_.bytes_allocated() != ref_.bytes_allocated()) {
                return ::testing::AssertionFailure()
                       << "bytes_allocated " << model_.bytes_allocated() << " vs "
                       << ref_.bytes_allocated() << " after step " << step << " ("
                       << what << ")";
            }
            if (!last_) {
                return last_ << " after step " << step << " (" << what << ")";
            }
        }
        return SameFinding(model_.check_leaks(), ref_.check_leaks());
    }

  private:
    static constexpr const char* kLabels[] = {"a", "b", "buf", "heap", "slot"};

    /// A pointer both models handed out, maybe nudged off its address.
    Pointer pick_pointer() {
        if (pointers_.empty() || rng_.chance(0.03)) {
            return Pointer{rng_.next_below(2) * 0x10010, kNoAlloc, kNoTag};
        }
        Pointer p = pointers_[rng_.next_below(pointers_.size())];
        if (rng_.chance(0.15)) p.addr += rng_.next_below(9);
        if (rng_.chance(0.03)) p.addr -= 1;
        return p;
    }

    AccessCtx pick_ctx() {
        AccessCtx ctx;
        ctx.span = support::SourceSpan{static_cast<std::uint32_t>(rng_.next_below(100)), 100, 1, 1};
        if (rng_.chance(0.3)) {
            ctx.tid = static_cast<ThreadId>(rng_.next_below(clocks_.size()));
            VectorClock& clock = clocks_[ctx.tid];
            if (rng_.chance(0.3)) clock.increment(ctx.tid);
            if (rng_.chance(0.1)) {
                clock.merge(clocks_[rng_.next_below(clocks_.size())]);
            }
            ctx.vc = &clock;
            ctx.atomic = rng_.chance(0.4);
        }
        return ctx;
    }

    Value pick_value(const Type& type) {
        if (type.is_array()) {
            std::vector<Value> elements;
            for (std::uint64_t i = 0; i < type.array_length(); ++i) {
                elements.push_back(pick_value(type.element()));
            }
            return Value::array(std::move(elements));
        }
        if (type.is_raw_ptr() && rng_.chance(0.7)) return Value::pointer(pick_pointer());
        if (type.is_fn_ptr() && rng_.chance(0.7)) {
            return Value::function(
                FnPtrVal{static_cast<std::int32_t>(rng_.next_below(3))});
        }
        if (type.is_bool()) return Value::scalar(rng_.next_below(3));
        return Value::scalar(rng_.next_u64());
    }

    /// Whether a retag of `size` bytes at `p` would reach the per-byte
    /// borrow stacks outside a live allocation.
    bool borrows_past_the_end(const Pointer& p, std::uint64_t size) {
        if (!p.has_provenance()) return false;
        const reference::Allocation& alloc = ref_.get(p.alloc);
        return alloc.live &&
               (p.addr < alloc.base ||
                p.addr + std::max<std::uint64_t>(size, 1) > alloc.base + alloc.size);
    }

    void remember(const Pointer& model, const Pointer& ref) {
        if (!(model == ref)) {
            last_ = ::testing::AssertionFailure() << "returned pointers differ";
            return;
        }
        if (model.has_provenance()) pointers_.push_back(model);
    }

    std::string one_step() {
        last_ = ::testing::AssertionSuccess();
        const std::uint64_t op = rng_.next_below(100);
        const support::SourceSpan span{static_cast<std::uint32_t>(rng_.next_below(100)), 100, 2, 3};
        if (op < 12 || pointers_.empty()) {
            static constexpr std::uint64_t kSizes[] = {0, 1, 2, 4, 8, 12, 16, 17, 24, 64};
            static constexpr std::uint64_t kAligns[] = {1, 2, 4, 8, 8, 3};
            const std::uint64_t size = kSizes[rng_.next_below(std::size(kSizes))];
            const std::uint64_t align = kAligns[rng_.next_below(std::size(kAligns))];
            const AllocKind kind = static_cast<AllocKind>(rng_.next_below(3));
            const char* label = kLabels[rng_.next_below(std::size(kLabels))];
            const AllocId a = model_.allocate(size, align, kind, label, span);
            const AllocId b = ref_.allocate(size, align, kind, label, span);
            if (a != b) last_ = ::testing::AssertionFailure() << "allocation ids differ";
            remember(model_.base_pointer(a), ref_.base_pointer(b));
            return "allocate";
        }
        if (op < 40) {
            const Type& type = types_[rng_.next_below(types_.size())];
            const Pointer p = pick_pointer();
            const Value value = pick_value(type);
            const AccessCtx ctx = pick_ctx();
            model_.store(p, type, value, ctx);
            ref_.store(p, type, value, ctx);
            return "store " + type.to_string();
        }
        if (op < 65) {
            const Type& type = types_[rng_.next_below(types_.size())];
            const Pointer p = pick_pointer();
            const AccessCtx ctx = pick_ctx();
            last_ = SameValue(model_.load(p, type, ctx), ref_.load(p, type, ctx));
            return "load " + type.to_string();
        }
        if (op < 75) {
            const Pointer p = pick_pointer();
            const std::uint64_t size = rng_.next_below(9);
            // A zero-sized borrow one past the end passes the bounds check
            // and then indexes past the per-byte model's vectors.
            if (size == 0 && borrows_past_the_end(p, size)) {
                return "skipped retag_ref";
            }
            const bool is_mut = rng_.chance(0.5);
            remember(model_.retag_ref(p, size, is_mut, span),
                     ref_.retag_ref(p, size, is_mut, span));
            return "retag_ref";
        }
        if (op < 83) {
            const Pointer p = pick_pointer();
            const std::uint64_t size = rng_.next_below(9);
            // The per-byte model indexes past its vectors when a live
            // pointer's range runs off the allocation; the tiers only cast
            // references, which retag_ref bounds-checked.
            if (borrows_past_the_end(p, size)) return "skipped retag_raw";
            const bool writable = rng_.chance(0.5);
            remember(model_.retag_raw(p, size, writable, span),
                     ref_.retag_raw(p, size, writable, span));
            return "retag_raw";
        }
        if (op < 90) {
            const Pointer p = pick_pointer();
            const std::int64_t count = rng_.next_range(-3, 12);
            const std::uint64_t element = rng_.chance(0.5) ? 1 : 4;
            remember(model_.offset_pointer(p, count, span, element),
                     ref_.offset_pointer(p, count, span, element));
            return "offset_pointer";
        }
        const Pointer p = pointers_[rng_.next_below(pointers_.size())];
        if (op < 94) {
            model_.kill(p.alloc);
            ref_.kill(p.alloc);
            return "kill";
        }
        if (op < 96) {
            model_.kill_for_tail_call(p.alloc);
            ref_.kill_for_tail_call(p.alloc);
            return "kill_for_tail_call";
        }
        const reference::Allocation& alloc = ref_.get(p.alloc);
        const std::uint64_t size = rng_.chance(0.8) ? alloc.size : alloc.size + 1;
        const std::uint64_t align = rng_.chance(0.8) ? alloc.align : alloc.align * 2;
        model_.deallocate(p, size, align, span);
        ref_.deallocate(p, size, align, span);
        return "deallocate";
    }

    support::Rng rng_;
    lang::TypePool pool_;
    std::vector<Type> types_;
    std::vector<VectorClock> clocks_;
    std::vector<Pointer> pointers_;
    FaultRecord faults_;
    FaultRecord ref_faults_;
    MemoryModel model_;
    reference::MemoryModel ref_;
    ::testing::AssertionResult last_ = ::testing::AssertionSuccess();
};

TEST(MemoryReferenceTest, RandomSequencesMatchThePerByteModel) {
    std::map<UbCategory, int> tally;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        Differential differential(seed);
        ASSERT_TRUE(differential.run(300)) << "seed " << seed;
        for (const auto& [category, count] : differential.tally) {
            tally[category] += count;
        }
    }
    // Every check the model makes was reached, and failed, many times.
    for (const UbCategory category :
         {UbCategory::Alloc, UbCategory::Provenance, UbCategory::DanglingPointer,
          UbCategory::TailCall, UbCategory::Unaligned, UbCategory::Uninit,
          UbCategory::Validity, UbCategory::BothBorrow, UbCategory::StackBorrow,
          UbCategory::DataRace}) {
        EXPECT_GE(tally[category], 20) << ub_category_name(category);
    }
}

TEST(MemoryReferenceTest, EqualStatesCompareEqualWhateverTheirHistory) {
    // The fixed-point skip (DESIGN.md §13) compares models: an array
    // initialized front to back and one initialized back to front hold the
    // same runs.
    lang::TypePool pool;
    FaultRecord faults;
    MemoryModel forward(faults);
    MemoryModel backward(faults);
    const Type array = pool.array(Type::i32(), 4);
    for (MemoryModel* mem : {&forward, &backward}) {
        mem->allocate(array.size_bytes(), array.align_bytes(), AllocKind::Stack, "a",
                      {});
    }
    AccessCtx ctx;
    for (int i = 0; i < 4; ++i) {
        Pointer front = forward.base_pointer(1);
        front.addr += 4 * static_cast<std::uint64_t>(i);
        forward.store(front, Type::i32(), Value::scalar(static_cast<std::uint64_t>(i)),
                      ctx);
        EXPECT_FALSE(forward == backward);
        Pointer back = backward.base_pointer(1);
        back.addr += 4 * static_cast<std::uint64_t>(3 - i);
        backward.store(back, Type::i32(),
                       Value::scalar(static_cast<std::uint64_t>(3 - i)), ctx);
    }
    EXPECT_TRUE(forward == backward);
    EXPECT_EQ(forward.payload(1).init.run_count(), 1u);
    EXPECT_FALSE(faults.raised());

    // A sub-range borrow splits the borrow map; a write through the base
    // tag pops it, and the map is one run again.
    const Pointer base = forward.base_pointer(1);
    Pointer second = base;
    second.addr += 4;
    forward.retag_ref(second, 4, /*is_mut=*/true, {});
    EXPECT_EQ(forward.payload(1).borrows.run_count(), 3u);
    EXPECT_FALSE(forward.get(1).uniform_borrows);
    forward.store(base, array, Value::array({Value::scalar(0), Value::scalar(1),
                                             Value::scalar(2), Value::scalar(3)}),
                  ctx);
    EXPECT_EQ(forward.payload(1).borrows.run_count(), 1u);
    EXPECT_TRUE(forward.get(1).uniform_borrows);
    EXPECT_FALSE(faults.raised());
}

}  // namespace
}  // namespace rustbrain::miri
