// MiriLite memory model.
//
// Implements the dynamic checks that make UB detection real rather than
// pattern-matched:
//   * allocation tracking (liveness, layout-checked dealloc, leak check)
//   * strict pointer provenance (int-derived pointers cannot be dereferenced)
//   * per-byte borrow stacks — a Stacked-Borrows-lite with Unique/SharedRO/
//     SharedRW permissions and retag-on-reference-creation
//   * per-byte initialization tracking
//   * alignment and typed-value validity checks
//   * per-byte access epochs + vector clocks for data-race detection
//
// The per-byte state is kept per run of equal bytes (run_map.hpp), and a
// dead allocation keeps only its header (DESIGN.md §23).
//
// A failed check raises its finding on the run's FaultRecord and the
// operation returns a neutral result without touching the state the check
// guards: a load yields neutral_value, a store, retag or free changes
// nothing, a refused allocation is kNoAlloc (DESIGN.md §19). UB ends the
// abstract machine, so the first finding is the run's; the tiers stop at
// their next fault check.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/type.hpp"
#include "miri/finding.hpp"
#include "miri/run_map.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {

using ThreadId = std::uint32_t;

/// Vector clock for happens-before tracking.
class VectorClock {
  public:
    [[nodiscard]] std::uint64_t get(ThreadId tid) const;
    void set(ThreadId tid, std::uint64_t value);
    void increment(ThreadId tid);
    /// Pointwise maximum (join).
    void merge(const VectorClock& other);

    [[nodiscard]] std::size_t size() const { return clocks_.size(); }

    friend bool operator==(const VectorClock& a, const VectorClock& b) {
        return a.clocks_ == b.clocks_;
    }

  private:
    std::vector<std::uint64_t> clocks_;
};

enum class AllocKind : std::uint8_t { Heap, Stack, Static };

enum class Permission {
    Unique,    // &mut or allocation base: full access, invalidated by others
    SharedRO,  // &: read-only, survives reads, killed by writes
    SharedRW,  // raw pointer derived from &mut: read/write until parent dies
};

/// What kind of pointer a borrow tag was created for — used to pick the UB
/// category when an invalidated tag is used (reference tags -> BothBorrow,
/// raw/base tags -> StackBorrow).
enum class TagOrigin : std::uint8_t { Base, Ref, Raw };

struct BorrowEntry {
    BorrowTag tag = kNoTag;
    Permission perm = Permission::Unique;
};

inline bool operator==(const BorrowEntry& a, const BorrowEntry& b) {
    return a.tag == b.tag && a.perm == b.perm;
}

struct AccessEpoch {
    ThreadId tid = 0;
    std::uint64_t clock = 0;
    bool atomic = false;
    bool valid = false;
};

inline bool operator==(const AccessEpoch& a, const AccessEpoch& b) {
    return a.tid == b.tid && a.clock == b.clock && a.atomic == b.atomic &&
           a.valid == b.valid;
}

/// A borrow stack with inline storage for the common shapes (base tag
/// alone, or base tag + one retag). Deeper retag chains spill into a heap
/// vector.
class BorrowStack {
  public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const BorrowEntry& operator[](std::size_t i) const {
        return i < kInline ? inline_[i] : spill_[i - kInline];
    }
    void push_back(BorrowEntry entry) {
        if (size_ < kInline) {
            inline_[size_] = entry;
        } else {
            spill_.push_back(entry);
        }
        ++size_;
    }
    /// Shrink to the first `n` entries (never grows).
    void shrink_to(std::size_t n) {
        if (n >= size_) return;
        if (size_ > kInline) {
            spill_.resize(n > kInline ? n - kInline : 0);
        }
        size_ = static_cast<std::uint32_t>(n);
    }
    /// Drop every Unique entry at index >= `from`, keeping the rest in order.
    void remove_unique_above(std::size_t from) {
        std::size_t write = from;
        for (std::size_t read = from; read < size_; ++read) {
            const BorrowEntry entry = (*this)[read];
            if (entry.perm != Permission::Unique) {
                set(write++, entry);
            }
        }
        shrink_to(write);
    }
    [[nodiscard]] std::size_t heap_bytes() const {
        return spill_.capacity() * sizeof(BorrowEntry);
    }

    /// The entries in order; stale inline slots past size() do not count.
    friend bool operator==(const BorrowStack& a, const BorrowStack& b) {
        if (a.size_ != b.size_) return false;
        for (std::size_t i = 0; i < a.size_; ++i) {
            if (!(a[i] == b[i])) return false;
        }
        return true;
    }

  private:
    void set(std::size_t i, BorrowEntry entry) {
        if (i < kInline) {
            inline_[i] = entry;
        } else {
            spill_[i - kInline] = entry;
        }
    }

    static constexpr std::size_t kInline = 2;
    BorrowEntry inline_[kInline];
    std::uint32_t size_ = 0;
    std::vector<BorrowEntry> spill_;
};

/// One byte's race-detection state.
struct RaceCell {
    AccessEpoch last_write;
    std::vector<AccessEpoch> reads;  // most recent read per thread

    friend bool operator==(const RaceCell& a, const RaceCell& b) {
        return a.last_write == b.last_write && a.reads == b.reads;
    }
};

/// A pointer value stored in memory keeps its provenance here, keyed by
/// the byte offset of the 8-byte pointer; `is_fn` picks `fn` over `ptr`.
struct StoredProvenance {
    std::uint64_t offset = 0;
    bool is_fn = false;
    Pointer ptr;
    FnPtrVal fn;

    friend bool operator==(const StoredProvenance& a, const StoredProvenance& b) {
        return a.offset == b.offset && a.is_fn == b.is_fn && a.ptr == b.ptr &&
               a.fn == b.fn;
    }
};

/// No payload slot: a dead allocation's, or the end of the free list.
inline constexpr std::uint32_t kNoPayload = 0xFFFF'FFFF;

/// A live allocation's bytes and per-byte state (DESIGN.md §23). The bytes
/// are flat, inline up to kInlineBytes; init state, borrow stacks and race
/// epochs are run maps, one inline run while uniform.
class Payload {
  public:
    static constexpr std::uint64_t kInlineBytes = 16;

    /// An empty slot.
    Payload() = default;
    Payload(std::uint64_t size, BorrowTag base_tag);
    /// The state a fresh allocation of `size` bytes starts in, as the
    /// two-argument constructor makes it, reusing this slot's run storage.
    void reset(std::uint64_t size, BorrowTag base_tag);
    /// Frees the out-of-line bytes of a slot whose allocation died; reset()
    /// makes it usable again.
    void release() {
        heap_bytes_.reset();
        size_ = 0;
    }
    Payload(const Payload& other);
    Payload& operator=(const Payload& other) { return *this = Payload(other); }
    Payload(Payload&&) noexcept = default;
    Payload& operator=(Payload&&) noexcept = default;
    ~Payload() = default;

    [[nodiscard]] std::uint8_t* bytes() {
        return size_ <= kInlineBytes ? inline_bytes_ : heap_bytes_.get();
    }
    [[nodiscard]] const std::uint8_t* bytes() const {
        return size_ <= kInlineBytes ? inline_bytes_ : heap_bytes_.get();
    }

    RunMap<bool, 2> init{false};
    RunMap<BorrowStack> borrows;
    /// Untouched (one default run) until the first clocked access.
    RunMap<RaceCell> races;
    /// Sorted by offset; at most one entry per offset.
    InlineVec<StoredProvenance, 1> provenance;

    /// Heap bytes held beyond the object itself.
    [[nodiscard]] std::size_t heap_bytes() const;

    friend bool operator==(const Payload& a, const Payload& b);

    /// In a free slot, the next free slot.
    std::uint32_t next_free = kNoPayload;

  private:
    std::uint64_t size_ = 0;
    std::uint8_t inline_bytes_[kInlineBytes] = {};
    std::unique_ptr<std::uint8_t[]> heap_bytes_;
};

/// The header every allocation keeps for the whole run. A live one owns a
/// payload slot of its model; die() frees the slot for the next
/// allocation, and the dead header keeps what the use-after-free,
/// double-free, tail-call, dead-reference and leak diagnostics read.
struct Allocation {
    AllocId id = kNoAlloc;
    /// The model's payload slot while live, kNoPayload once dead.
    std::uint32_t payload = kNoPayload;
    AllocKind kind = AllocKind::Stack;
    bool live = true;
    /// Died because its frame was popped by a `become` tail call — accesses
    /// are reported under the TailCall category instead of DanglingPointer.
    bool tail_call_killed = false;
    /// True while the borrow map is one run of [base_tag/Unique], the state
    /// allocate() creates. While set, an access through the base tag
    /// provably leaves every stack unchanged (found at top, nothing above
    /// to invalidate), so validation can skip the borrow walk entirely.
    bool uniform_borrows = true;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    std::uint64_t align = 1;
    BorrowTag base_tag = kNoTag;
    /// Bytes not yet written. 0 means the whole allocation is initialized,
    /// so reads need no init scan.
    std::uint64_t uninit_count = 0;
    /// Variable/static name or "heap", for diagnostics: a view of the
    /// program's names or a literal, which outlive the run.
    std::string_view label;
};

/// Every header field but `payload`, which names a slot: the model compares
/// what the slots hold (memory.cpp pins the struct size so a new field
/// cannot be left out).
bool operator==(const Allocation& a, const Allocation& b);

/// Context for a memory access: which thread, its vector clock, atomicity.
struct AccessCtx {
    ThreadId tid = 0;
    const VectorClock* vc = nullptr;
    bool atomic = false;
    support::SourceSpan span;
};

/// The most bytes one run may hold live at once: stack, static and heap
/// allocations alike. A dead allocation gives its bytes back, along with
/// its per-byte state. Passing the cap is an Alloc finding on every tier,
/// so no single request can exhaust the host's memory; an array repeat is
/// checked against what is left before its value is built (fits_in_cap).
/// Counted cumulatively, the largest total any standard-corpus,
/// forged-corpus or test program reaches is 1,200,008 bytes (150,000
/// `become` frames of one i64); this is 4.4x that.
inline constexpr std::uint64_t kMaxBytesPerRun = std::uint64_t{5} << 20;

class MemoryModel {
  public:
    /// Failed checks are raised on `faults`, which must outlive the model
    /// and its copies.
    explicit MemoryModel(FaultRecord& faults);

    // Allocation lifecycle ---------------------------------------------
    /// Create a new allocation. An invalid layout, an exhausted address
    /// space or the run's cap raises Alloc UB and returns kNoAlloc, which
    /// base_pointer maps to the null pointer and kill ignores. `label` is
    /// kept as a view, so it must outlive the model: a name of the program
    /// or its bytecode, or a literal.
    AllocId allocate(std::uint64_t size, std::uint64_t align, AllocKind kind,
                     std::string_view label, support::SourceSpan span);
    /// The bookkeeping every allocation starts with, without making one:
    /// validates the alignment, bumps the address space and charges
    /// kMaxBytesPerRun, raising Alloc UB where allocate() would. Returns
    /// the base address, or 0 after raising.
    std::uint64_t reserve(std::uint64_t size, std::uint64_t align,
                          support::SourceSpan span);
    /// Whether `count` elements of `element_size` bytes (a zero-sized
    /// element counts as one byte, so the number of values is bounded
    /// too) fit in what is left of kMaxBytesPerRun; raises reserve()'s
    /// Alloc finding when not. Charges nothing: the allocation that stores
    /// the array does.
    bool fits_in_cap(std::uint64_t count, std::uint64_t element_size,
                     support::SourceSpan span);
    /// Heap deallocation with full layout validation; a freed allocation
    /// dies as kill() leaves it.
    void deallocate(const Pointer& p, std::uint64_t size, std::uint64_t align,
                    support::SourceSpan span);
    /// Stack scope exit / program teardown: mark dead, free the payload
    /// slot and take the size off the run's cap charge. The dead header keeps
    /// what the use-after-free, double-free, tail-call and leak diagnostics
    /// read. kNoAlloc (a refused allocation) is ignored, and an allocation
    /// already dead is left as it is.
    void kill(AllocId id);
    /// Frame popped by a `become` tail call: kill(), and later accesses are
    /// classified as TailCall UB.
    void kill_for_tail_call(AllocId id);

    [[nodiscard]] Allocation& get(AllocId id) {
        if (id == kNoAlloc || id > allocs_.size()) throw_bad_alloc_id();
        return allocs_[id - 1];
    }
    [[nodiscard]] const Allocation& get(AllocId id) const {
        if (id == kNoAlloc || id > allocs_.size()) throw_bad_alloc_id();
        return allocs_[id - 1];
    }
    [[nodiscard]] std::size_t allocation_count() const { return allocs_.size(); }
    /// A live allocation's bytes and per-byte state.
    [[nodiscard]] const Payload& payload(AllocId id) const {
        return payloads_[get(id).payload];
    }
    /// Room for `count` allocation records, payload slots and tags before
    /// the lists have to grow. Changes no finding and no footprint_bytes(),
    /// which counts records made, not room.
    void reserve_allocations(std::size_t count) {
        allocs_.reserve(count);
        payloads_.reserve(count);
        tag_origins_.reserve(2 * count);
    }

    /// Pointer to an allocation's base carrying its base (Unique) tag; the
    /// null pointer for kNoAlloc.
    [[nodiscard]] Pointer base_pointer(AllocId id) const {
        // One unsigned compare: kNoAlloc wraps past every valid index.
        if (__builtin_expect(id - 1u >= allocs_.size(), 0)) {
            return refused_base_pointer(id);
        }
        const Allocation& alloc = allocs_[id - 1];
        return Pointer{alloc.base, alloc.id, alloc.base_tag};
    }

    // Typed access -------------------------------------------------------
    Value load(const Pointer& p, const lang::Type& type, const AccessCtx& ctx);
    void store(const Pointer& p, const lang::Type& type, const Value& value,
               const AccessCtx& ctx);

    // Retagging (reference / raw-pointer creation) ----------------------
    /// `&place` / `&mut place`: use the parent tag, push a fresh Ref tag.
    Pointer retag_ref(const Pointer& p, std::uint64_t size, bool is_mut,
                      support::SourceSpan span);
    /// `ref as *const/mut T`: push a fresh Raw tag below-the-surface.
    Pointer retag_raw(const Pointer& p, std::uint64_t size, bool writable,
                      support::SourceSpan span);

    /// `offset(p, count)` on a pointer to `element_size`-byte elements
    /// (1: `count` is a byte delta) — inbounds pointer arithmetic;
    /// one-past-end allowed. A byte delta or address that overflows i64
    /// is out of bounds too.
    Pointer offset_pointer(const Pointer& p, std::int64_t count,
                           support::SourceSpan span,
                           std::uint64_t element_size = 1);

    /// Leak check: any live heap allocation is an Alloc finding.
    [[nodiscard]] std::optional<Finding> check_leaks() const;

    /// Bytes held by live allocations: what the run cap charges.
    [[nodiscard]] std::uint64_t bytes_allocated() const { return bytes_allocated_; }

    /// Approximate heap bytes held: what copying this model costs. Every
    /// allocation counts its header, every payload slot made its size and
    /// what it holds on the heap.
    [[nodiscard]] std::size_t footprint_bytes() const;

    /// Every header field and live payload of every allocation plus the
    /// tag, address and byte counters and the fault record — equal models
    /// behave identically from here on. Which slot holds which payload and
    /// the free slots do not count.
    friend bool operator==(const MemoryModel& a, const MemoryModel& b);

  private:
    /// Shared validation pipeline; returns the allocation and base offset,
    /// or nullptr after raising.
    Allocation* check_access(const Pointer& p, std::uint64_t size, bool write,
                             const AccessCtx& ctx, std::uint64_t& offset_out,
                             std::uint64_t align = 1);
    /// Fast path for the overwhelmingly common access shape: in-bounds,
    /// aligned, through the base tag of a live allocation that has never
    /// been retagged, with no vector clock in play. Under those conditions
    /// the full pipeline is a provable no-op on the borrow/race state, so
    /// this returns the allocation directly; nullptr means "take the slow
    /// path" (which also produces every diagnostic).
    Allocation* try_fast_access(const Pointer& p, std::uint64_t size,
                                const AccessCtx& ctx, std::uint64_t& offset_out,
                                std::uint64_t align) {
        if (p.alloc == kNoAlloc || p.alloc > allocs_.size() ||
            ctx.vc != nullptr) {
            return nullptr;
        }
        Allocation& alloc = allocs_[p.alloc - 1];
        if (!alloc.live || !alloc.uniform_borrows || p.tag != alloc.base_tag ||
            p.addr < alloc.base || p.addr + size > alloc.base + alloc.size ||
            (align > 1 && p.addr % align != 0)) {
            return nullptr;
        }
        offset_out = p.addr - alloc.base;
        return &alloc;
    }
    /// False after raising.
    bool borrow_use(Allocation& alloc, std::uint64_t offset, std::uint64_t size,
                    BorrowTag tag, bool write, support::SourceSpan span);
    bool race_check(Allocation& alloc, std::uint64_t offset, std::uint64_t size,
                    bool write, const AccessCtx& ctx);
    /// Re-derives uniform_borrows from the borrow map.
    static void refresh_uniform(Allocation& alloc, const Payload& payload);
    [[nodiscard]] Payload& payload_of(const Allocation& alloc) {
        return payloads_[alloc.payload];
    }
    /// Drops every stored pointer overlapping [offset, offset + size).
    static void clear_provenance_overlapping(Payload& payload,
                                             std::uint64_t offset,
                                             std::uint64_t size);
    static void set_provenance(Payload& payload, StoredProvenance entry);
    [[nodiscard]] static const StoredProvenance* find_provenance(
        const Payload& payload, std::uint64_t offset, bool is_fn);
    /// Pushes a fresh `origin` tag with `perm` on every byte of the range.
    BorrowTag push_tag(Allocation& alloc, std::uint64_t offset, std::uint64_t size,
                       TagOrigin origin, Permission perm);

    [[gnu::cold]] void ub(UbCategory category, std::string message,
                          support::SourceSpan span) const;
    [[gnu::cold]] void out_of_memory(std::uint64_t bytes,
                                     support::SourceSpan span) const;
    [[noreturn]] static void throw_bad_alloc_id();
    [[nodiscard]] static Pointer refused_base_pointer(AllocId id);

    /// The live-to-dead transition shared by kill() and deallocate().
    void die(Allocation& alloc);

    BorrowTag fresh_tag(TagOrigin origin);
    [[nodiscard]] TagOrigin origin_of(BorrowTag tag) const;

    FaultRecord* faults_;
    std::vector<Allocation> allocs_;
    /// Payload slots of the live allocations, and free ones that the next
    /// allocations reuse: a run holds as many slots as it ever held live
    /// allocations at once.
    std::vector<Payload> payloads_;
    /// The most recently freed slot; each free slot links to the next.
    std::uint32_t free_payload_ = kNoPayload;
    /// Origin per tag, indexed by tag - 1 (fresh_tag hands them out densely
    /// starting at 1).
    std::vector<TagOrigin> tag_origins_;
    std::uint64_t next_addr_ = 0x10000;
    BorrowTag next_tag_ = 1;
    std::uint64_t bytes_allocated_ = 0;
};

}  // namespace rustbrain::miri
