#include "miri/memory.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace rustbrain::miri {

// ---------------------------------------------------------------------------
// VectorClock
// ---------------------------------------------------------------------------

std::uint64_t VectorClock::get(ThreadId tid) const {
    return tid < clocks_.size() ? clocks_[tid] : 0;
}

void VectorClock::set(ThreadId tid, std::uint64_t value) {
    if (tid >= clocks_.size()) {
        clocks_.resize(tid + 1, 0);
    }
    clocks_[tid] = value;
}

void VectorClock::increment(ThreadId tid) { set(tid, get(tid) + 1); }

void VectorClock::merge(const VectorClock& other) {
    if (other.clocks_.size() > clocks_.size()) {
        clocks_.resize(other.clocks_.size(), 0);
    }
    for (std::size_t i = 0; i < other.clocks_.size(); ++i) {
        clocks_[i] = std::max(clocks_[i], other.clocks_[i]);
    }
}

// ---------------------------------------------------------------------------
// Payload and Allocation
// ---------------------------------------------------------------------------

namespace {

BorrowStack base_stack(BorrowTag base_tag) {
    BorrowStack stack;
    stack.push_back({base_tag, Permission::Unique});
    return stack;
}

}  // namespace

Payload::Payload(std::uint64_t size, BorrowTag base_tag)
    : borrows(base_stack(base_tag)), size_(size) {
    // Value-initialized: the bytes start at 0 as the per-byte model's did.
    if (size_ > kInlineBytes) heap_bytes_.reset(new std::uint8_t[size_]());
}

void Payload::reset(std::uint64_t size, BorrowTag base_tag) {
    init.reset(false);
    borrows.reset(base_stack(base_tag));
    races.reset(RaceCell{});
    provenance.erase(0, provenance.size());
    size_ = size;
    std::memset(inline_bytes_, 0, kInlineBytes);
    heap_bytes_.reset(size_ > kInlineBytes ? new std::uint8_t[size_]() : nullptr);
}

Payload::Payload(const Payload& other)
    : init(other.init),
      borrows(other.borrows),
      races(other.races),
      provenance(other.provenance),
      next_free(other.next_free),
      size_(other.size_) {
    if (size_ > kInlineBytes) {
        heap_bytes_.reset(new std::uint8_t[size_]);
        std::memcpy(heap_bytes_.get(), other.heap_bytes_.get(), size_);
    } else {
        std::memcpy(inline_bytes_, other.inline_bytes_, kInlineBytes);
    }
}

std::size_t Payload::heap_bytes() const {
    std::size_t bytes = size_ > kInlineBytes ? size_ : 0;
    bytes += init.heap_bytes([](bool) { return std::size_t{0}; });
    bytes += borrows.heap_bytes(
        [](const BorrowStack& stack) { return stack.heap_bytes(); });
    bytes += races.heap_bytes([](const RaceCell& cell) {
        return cell.reads.capacity() * sizeof(AccessEpoch);
    });
    return bytes + provenance.heap_bytes();
}

bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.bytes(), b.bytes(), a.size_) == 0 && a.init == b.init &&
           a.borrows == b.borrows && a.races == b.races &&
           a.provenance == b.provenance;
}

// ---------------------------------------------------------------------------
// Equality (vm::Vm's fixed-point check)
// ---------------------------------------------------------------------------

// A new field changes the struct size: extend the matching operator== to
// cover it, then update the size here (x86-64 libstdc++ layout).
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(Allocation) == 72,
              "operator==(Allocation, Allocation) must cover every field");
static_assert(sizeof(MemoryModel) == 112,
              "operator==(MemoryModel, MemoryModel) must cover every field");
#endif

bool operator==(const Allocation& a, const Allocation& b) {
    return a.id == b.id && a.kind == b.kind && a.base == b.base &&
           a.size == b.size && a.align == b.align && a.live == b.live &&
           a.tail_call_killed == b.tail_call_killed &&
           a.base_tag == b.base_tag && a.uniform_borrows == b.uniform_borrows &&
           a.uninit_count == b.uninit_count && a.label == b.label;
}

bool operator==(const MemoryModel& a, const MemoryModel& b) {
    if (!(a.faults_ == b.faults_ && a.next_addr_ == b.next_addr_ &&
          a.next_tag_ == b.next_tag_ &&
          a.bytes_allocated_ == b.bytes_allocated_ &&
          a.tag_origins_ == b.tag_origins_ && a.allocs_ == b.allocs_)) {
        return false;
    }
    for (std::size_t i = 0; i < a.allocs_.size(); ++i) {
        if (a.allocs_[i].live &&
            !(a.payloads_[a.allocs_[i].payload] == b.payloads_[b.allocs_[i].payload])) {
            return false;
        }
    }
    return true;
}

std::size_t MemoryModel::footprint_bytes() const {
    std::size_t bytes = sizeof(MemoryModel) +
                        allocs_.size() * sizeof(Allocation) +
                        payloads_.size() * sizeof(Payload) +
                        tag_origins_.size() * sizeof(TagOrigin);
    for (const Payload& payload : payloads_) bytes += payload.heap_bytes();
    return bytes;
}

// ---------------------------------------------------------------------------
// MemoryModel
// ---------------------------------------------------------------------------

MemoryModel::MemoryModel(FaultRecord& faults) : faults_(&faults) {}

void MemoryModel::ub(UbCategory category, std::string message,
                     support::SourceSpan span) const {
    faults_->raise(category, std::move(message), span);
}

void MemoryModel::out_of_memory(std::uint64_t bytes,
                                support::SourceSpan span) const {
    ub(UbCategory::Alloc,
       "out of memory: allocating " + std::to_string(bytes) +
           " bytes passes the run's cap of " + std::to_string(kMaxBytesPerRun) +
           " bytes",
       span);
}

BorrowTag MemoryModel::fresh_tag(TagOrigin origin) {
    const BorrowTag tag = next_tag_++;
    tag_origins_.push_back(origin);  // tags are dense from 1
    return tag;
}

TagOrigin MemoryModel::origin_of(BorrowTag tag) const {
    if (tag == kNoTag || tag > tag_origins_.size()) return TagOrigin::Raw;
    return tag_origins_[tag - 1];
}

std::uint64_t MemoryModel::reserve(std::uint64_t size, std::uint64_t align,
                                   support::SourceSpan span) {
    if (align == 0 || (align & (align - 1)) != 0) {
        ub(UbCategory::Alloc,
           "invalid allocation alignment " + std::to_string(align) +
               " (must be a power of two)",
           span);
        return 0;
    }
    // Unit-sized locals still get a 1-byte allocation so they have identity.
    const std::uint64_t alloc_size = std::max<std::uint64_t>(size, 1);

    // Bump allocation with a 16-byte guard gap so out-of-bounds addresses
    // never alias a neighbouring allocation.
    std::uint64_t base = next_addr_;
    base = (base + align - 1) & ~(align - 1);
    next_addr_ = base + alloc_size + 16;
    if (next_addr_ >= kFnAddrBase) {
        ub(UbCategory::Alloc, "address space exhausted", span);
        return 0;
    }
    if (alloc_size > kMaxBytesPerRun - bytes_allocated_) {
        out_of_memory(alloc_size, span);
        return 0;
    }
    bytes_allocated_ += alloc_size;
    return base;
}

bool MemoryModel::fits_in_cap(std::uint64_t count, std::uint64_t element_size,
                              support::SourceSpan span) {
    std::uint64_t bytes = 0;
    if (__builtin_mul_overflow(count, std::max<std::uint64_t>(element_size, 1),
                               &bytes)) {
        bytes = std::numeric_limits<std::uint64_t>::max();
    }
    if (bytes <= kMaxBytesPerRun - bytes_allocated_) return true;
    out_of_memory(bytes, span);
    return false;
}

AllocId MemoryModel::allocate(std::uint64_t size, std::uint64_t align,
                              AllocKind kind, std::string_view label,
                              support::SourceSpan span) {
    const std::uint64_t base = reserve(size, align, span);
    if (base == 0) return kNoAlloc;
    const std::uint64_t alloc_size = std::max<std::uint64_t>(size, 1);

    Allocation& alloc = allocs_.emplace_back();
    alloc.id = static_cast<AllocId>(allocs_.size());
    alloc.kind = kind;
    alloc.base = base;
    alloc.size = alloc_size;
    alloc.align = align;
    alloc.label = label;
    alloc.base_tag = fresh_tag(TagOrigin::Base);
    alloc.uninit_count = alloc_size;
    if (free_payload_ == kNoPayload) {
        alloc.payload = static_cast<std::uint32_t>(payloads_.size());
        payloads_.emplace_back(alloc_size, alloc.base_tag);
    } else {
        alloc.payload = free_payload_;
        free_payload_ = payloads_[alloc.payload].next_free;
        payloads_[alloc.payload].reset(alloc_size, alloc.base_tag);
    }
    return alloc.id;
}

void MemoryModel::throw_bad_alloc_id() {
    throw std::logic_error("MemoryModel::get: bad allocation id");
}

Pointer MemoryModel::refused_base_pointer(AllocId id) {
    if (id != kNoAlloc) throw_bad_alloc_id();
    return Pointer{};
}

void MemoryModel::deallocate(const Pointer& p, std::uint64_t size,
                             std::uint64_t align, support::SourceSpan span) {
    if (p.is_null()) {
        ub(UbCategory::Alloc, "deallocating the null pointer", span);
        return;
    }
    if (!p.has_provenance()) {
        ub(UbCategory::Provenance,
           "deallocating a pointer without provenance (int-to-pointer cast)", span);
        return;
    }
    Allocation& alloc = get(p.alloc);
    if (!alloc.live) {
        ub(UbCategory::Alloc,
           "double free: allocation '" + std::string(alloc.label) +
               "' was already deallocated",
           span);
        return;
    }
    if (alloc.kind != AllocKind::Heap) {
        ub(UbCategory::Alloc,
           "deallocating non-heap memory ('" + std::string(alloc.label) + "')",
           span);
        return;
    }
    if (p.addr != alloc.base) {
        ub(UbCategory::Alloc,
           "dealloc pointer does not point to the start of the allocation", span);
        return;
    }
    if (size != alloc.size || align != alloc.align) {
        ub(UbCategory::Alloc,
           "dealloc layout mismatch: allocated (size " + std::to_string(alloc.size) +
               ", align " + std::to_string(alloc.align) + "), freed with (size " +
               std::to_string(size) + ", align " + std::to_string(align) + ")",
           span);
        return;
    }
    die(alloc);
}

void MemoryModel::die(Allocation& alloc) {
    if (!alloc.live) return;
    alloc.live = false;
    bytes_allocated_ -= alloc.size;
    Payload& freed = payloads_[alloc.payload];
    freed.release();
    freed.next_free = free_payload_;
    free_payload_ = alloc.payload;
    alloc.payload = kNoPayload;
}

void MemoryModel::kill(AllocId id) {
    if (id != kNoAlloc) die(get(id));
}

void MemoryModel::kill_for_tail_call(AllocId id) {
    if (id == kNoAlloc) return;
    Allocation& alloc = get(id);
    alloc.tail_call_killed = true;
    die(alloc);
}

// ---------------------------------------------------------------------------
// Access validation
// ---------------------------------------------------------------------------

Allocation* MemoryModel::check_access(const Pointer& p, std::uint64_t size,
                                      bool write, const AccessCtx& ctx,
                                      std::uint64_t& offset_out,
                                      std::uint64_t align) {
    if (p.is_null()) {
        ub(UbCategory::DanglingPointer, "null pointer dereference", ctx.span);
        return nullptr;
    }
    if (!p.has_provenance()) {
        ub(UbCategory::Provenance,
           "dereferencing a pointer without provenance (created from an integer)",
           ctx.span);
        return nullptr;
    }
    Allocation& alloc = get(p.alloc);
    if (!alloc.live) {
        if (alloc.tail_call_killed) {
            ub(UbCategory::TailCall,
               "use after free: local '" + std::string(alloc.label) +
                   "' died when its frame was popped by a become tail call",
               ctx.span);
        } else {
            ub(UbCategory::DanglingPointer,
               "use after free: allocation '" + std::string(alloc.label) +
                   "' is dead",
               ctx.span);
        }
        return nullptr;
    }
    if (p.addr < alloc.base || p.addr + size > alloc.base + alloc.size) {
        ub(UbCategory::Provenance,
           "out-of-bounds access: " + std::to_string(size) + " bytes at offset " +
               std::to_string(p.addr - alloc.base) + " of " +
               std::to_string(alloc.size) + "-byte allocation '" +
               std::string(alloc.label) + "'",
           ctx.span);
        return nullptr;
    }
    if (align > 1 && p.addr % align != 0) {
        ub(UbCategory::Unaligned,
           "accessing memory with alignment " + std::to_string(align) +
               " at misaligned address (addr % " + std::to_string(align) + " == " +
               std::to_string(p.addr % align) + ")",
           ctx.span);
        return nullptr;
    }
    const std::uint64_t offset = p.addr - alloc.base;
    if (!borrow_use(alloc, offset, size, p.tag, write, ctx.span) ||
        !race_check(alloc, offset, size, write, ctx)) {
        return nullptr;
    }
    offset_out = offset;
    return &alloc;
}

bool MemoryModel::borrow_use(Allocation& alloc, std::uint64_t offset,
                             std::uint64_t size, BorrowTag tag, bool write,
                             support::SourceSpan span) {
    if (alloc.uniform_borrows && tag == alloc.base_tag) {
        return true;  // found at the top of every stack: nothing changes
    }
    // Each run's stack decides for all of its bytes; the first failing run
    // is the first failing byte, and the runs before it change as the
    // bytes before it did.
    enum class Failure { None, Invalidated, ReadOnly } failure = Failure::None;
    std::size_t top = 0;
    Payload& payload = payload_of(alloc);
    const bool ok = payload.borrows.update(
        offset, size, alloc.size,
        [&](const BorrowStack& stack) {
            // Find the topmost occurrence of the tag.
            std::size_t found = stack.size();
            while (found > 0 && stack[found - 1].tag != tag) --found;
            if (found == 0) {
                failure = Failure::Invalidated;
                return RunVerdict::Fail;
            }
            if (write && stack[found - 1].perm == Permission::SharedRO) {
                failure = Failure::ReadOnly;
                return RunVerdict::Fail;
            }
            top = found;
            // Tag already topmost: nothing to invalidate.
            return top == stack.size() ? RunVerdict::Keep : RunVerdict::Change;
        },
        [&](BorrowStack& stack) {
            if (write) {
                // A write invalidates everything above the used tag.
                stack.shrink_to(top);
            } else {
                // A read invalidates Unique tags above but shared tags
                // survive (in order).
                stack.remove_unique_above(top);
            }
        });
    refresh_uniform(alloc, payload);
    if (ok) return true;
    const UbCategory category = origin_of(tag) == TagOrigin::Ref
                                    ? UbCategory::BothBorrow
                                    : UbCategory::StackBorrow;
    const std::string label(alloc.label);
    if (failure == Failure::Invalidated) {
        ub(category,
           std::string(write ? "write" : "read") +
               " through an invalidated borrow of '" + label +
               "' (tag no longer on the borrow stack)",
           span);
    } else {
        ub(category, "write through a read-only borrow of '" + label + "'", span);
    }
    return false;
}

void MemoryModel::refresh_uniform(Allocation& alloc, const Payload& payload) {
    const auto& borrows = payload.borrows;
    if (borrows.run_count() != 1) {
        alloc.uniform_borrows = false;
        return;
    }
    const BorrowStack& stack = borrows.run(0).value;
    alloc.uniform_borrows = stack.size() == 1 && stack[0].tag == alloc.base_tag &&
                            stack[0].perm == Permission::Unique;
}

bool MemoryModel::race_check(Allocation& alloc, std::uint64_t offset,
                             std::uint64_t size, bool write, const AccessCtx& ctx) {
    if (ctx.vc == nullptr) return true;  // single-threaded fast path
    auto unordered = [&](const AccessEpoch& epoch) {
        return epoch.valid && epoch.clock > ctx.vc->get(epoch.tid);
    };
    // A racing pair needs at least one non-atomic access.
    auto races_with = [&](const AccessEpoch& epoch) {
        return unordered(epoch) && !(epoch.atomic && ctx.atomic) &&
               epoch.tid != ctx.tid;
    };
    const AccessEpoch now{ctx.tid, ctx.vc->get(ctx.tid), ctx.atomic, true};
    ThreadId racing_tid = 0;
    bool after_write = false;
    const bool ok = payload_of(alloc).races.update(
        offset, size, alloc.size,
        [&](const RaceCell& cell) {
            if (races_with(cell.last_write)) {
                racing_tid = cell.last_write.tid;
                after_write = true;
                return RunVerdict::Fail;
            }
            if (write) {
                for (const AccessEpoch& read : cell.reads) {
                    if (races_with(read)) {
                        racing_tid = read.tid;
                        return RunVerdict::Fail;
                    }
                }
            }
            return RunVerdict::Change;
        },
        [&](RaceCell& cell) {
            // Record this access.
            if (write) {
                cell.last_write = now;
                cell.reads.clear();
                return;
            }
            for (AccessEpoch& read : cell.reads) {
                if (read.tid == ctx.tid) {
                    read = now;
                    return;
                }
            }
            cell.reads.push_back(now);
        });
    if (ok) return true;
    const std::string kind = after_write
                                 ? std::string(write ? "write" : "read") +
                                       "-after-write"
                                 : std::string("write-after-read");
    ub(UbCategory::DataRace,
       kind + " data race on '" + std::string(alloc.label) + "' between threads " +
           std::to_string(racing_tid) + " and " + std::to_string(ctx.tid),
       ctx.span);
    return false;
}

void MemoryModel::clear_provenance_overlapping(Payload& payload,
                                               std::uint64_t offset,
                                               std::uint64_t size) {
    auto& provenance = payload.provenance;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < provenance.size(); ++i) {
        const std::uint64_t at = provenance[i].offset;
        if (!(at < offset + size && at + 8 > offset)) {
            provenance[keep++] = provenance[i];
        }
    }
    provenance.erase(keep, provenance.size());
}

void MemoryModel::set_provenance(Payload& payload, StoredProvenance entry) {
    auto& provenance = payload.provenance;
    std::size_t at = 0;
    while (at < provenance.size() && provenance[at].offset < entry.offset) ++at;
    provenance.insert(at, entry);
}

const StoredProvenance* MemoryModel::find_provenance(const Payload& payload,
                                                     std::uint64_t offset,
                                                     bool is_fn) {
    for (const StoredProvenance& entry : payload.provenance) {
        if (entry.offset == offset && entry.is_fn == is_fn) return &entry;
    }
    return nullptr;
}

BorrowTag MemoryModel::push_tag(Allocation& alloc, std::uint64_t offset,
                                std::uint64_t size, TagOrigin origin,
                                Permission perm) {
    const BorrowTag tag = fresh_tag(origin);
    payload_of(alloc).borrows.update(
        offset, size, alloc.size,
        [](const BorrowStack&) { return RunVerdict::Change; },
        [&](BorrowStack& stack) { stack.push_back({tag, perm}); });
    alloc.uniform_borrows = false;
    return tag;
}

// ---------------------------------------------------------------------------
// Typed loads/stores
// ---------------------------------------------------------------------------

Value MemoryModel::load(const Pointer& p, const lang::Type& type,
                        const AccessCtx& ctx) {
    using lang::Type;
    const std::uint64_t size = type.size_bytes();
    if (size == 0) {
        return Value::unit();
    }
    if (type.is_array()) {
        // Element-wise load.
        std::vector<Value> elements;
        const std::uint64_t element_size = type.element().size_bytes();
        Pointer cursor = p;
        for (std::uint64_t i = 0; i < type.array_length(); ++i) {
            elements.push_back(load(cursor, type.element(), ctx));
            cursor.addr += element_size;
        }
        return Value::array(std::move(elements));
    }

    std::uint64_t offset = 0;
    Allocation* checked = try_fast_access(p, size, ctx, offset, type.align_bytes());
    if (checked == nullptr) {
        checked = check_access(p, size, /*write=*/false, ctx, offset,
                               type.align_bytes());
        if (checked == nullptr) return neutral_value(type);
    }
    Allocation& alloc = *checked;
    Payload& payload = payload_of(alloc);
    if (alloc.uninit_count != 0) {
        const auto& init = payload.init;
        for (std::size_t i = init.find(offset);
             i < init.run_count() && init.run(i).start < offset + size; ++i) {
            if (!init.run(i).value) {
                ub(UbCategory::Uninit,
                   "reading uninitialized memory in '" + std::string(alloc.label) +
                       "' at offset " +
                       std::to_string(std::max(init.run(i).start, offset)),
                   ctx.span);
                return neutral_value(type);
            }
        }
    }
    const std::uint8_t* bytes = payload.bytes() + offset;
    std::uint64_t bits = 0;
    for (std::uint64_t i = 0; i < size; ++i) {
        bits |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    }

    if (type.is_bool()) {
        if (bits > 1) {
            ub(UbCategory::Validity,
               "invalid bool value " + std::to_string(bits) +
                   " (must be 0 or 1) loaded from '" + std::string(alloc.label) +
                   "'",
               ctx.span);
            return neutral_value(type);
        }
        return Value::boolean(bits != 0);
    }
    if (type.is_raw_ptr() || type.is_ref()) {
        const StoredProvenance* stored = find_provenance(payload, offset, false);
        // Without a stored entry the provenance was erased.
        const Pointer loaded =
            stored != nullptr ? stored->ptr : Pointer{bits, kNoAlloc, kNoTag};
        if (type.is_ref() && loaded.is_null()) {
            ub(UbCategory::Validity,
               "loaded a null reference from '" + std::string(alloc.label) + "'",
               ctx.span);
            return neutral_value(type);
        }
        return Value::pointer(loaded);
    }
    if (type.is_fn_ptr()) {
        if (const StoredProvenance* stored = find_provenance(payload, offset, true)) {
            return Value::function(stored->fn);
        }
        return Value::function(
            FnPtrVal{fn_addr_to_index(bits, static_cast<std::size_t>(-1))});
    }
    return Value::scalar(bits);
}

void MemoryModel::store(const Pointer& p, const lang::Type& type,
                        const Value& value, const AccessCtx& ctx) {
    const std::uint64_t size = type.size_bytes();
    if (size == 0) {
        return;
    }
    if (type.is_array()) {
        const auto& elements = value.as_array();
        const std::uint64_t element_size = type.element().size_bytes();
        Pointer cursor = p;
        for (std::uint64_t i = 0; i < type.array_length() && i < elements.size();
             ++i) {
            store(cursor, type.element(), elements[i], ctx);
            cursor.addr += element_size;
        }
        return;
    }

    std::uint64_t offset = 0;
    Allocation* checked = try_fast_access(p, size, ctx, offset, type.align_bytes());
    if (checked == nullptr) {
        checked = check_access(p, size, /*write=*/true, ctx, offset,
                               type.align_bytes());
        if (checked == nullptr) return;
    }
    Allocation& alloc = *checked;
    Payload& payload = payload_of(alloc);
    if (!payload.provenance.empty()) {
        clear_provenance_overlapping(payload, offset, size);
    }

    const std::uint64_t bits = truncate_to_type(value.bits(), type);
    std::uint8_t* bytes = payload.bytes() + offset;
    for (std::uint64_t i = 0; i < size; ++i) {
        bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    if (alloc.uninit_count != 0) {
        alloc.uninit_count -= payload.init.assign(offset, size, alloc.size, true);
    }
    if ((type.is_raw_ptr() || type.is_ref()) && value.kind() == Value::Kind::Ptr) {
        StoredProvenance entry;
        entry.offset = offset;
        entry.ptr = value.as_ptr();
        set_provenance(payload, entry);
    }
    if (type.is_fn_ptr() && value.kind() == Value::Kind::Fn) {
        StoredProvenance entry;
        entry.offset = offset;
        entry.is_fn = true;
        entry.fn = value.as_fn();
        set_provenance(payload, entry);
    }
}

// ---------------------------------------------------------------------------
// Retagging & pointer arithmetic
// ---------------------------------------------------------------------------

Pointer MemoryModel::retag_ref(const Pointer& p, std::uint64_t size, bool is_mut,
                               support::SourceSpan span) {
    if (p.is_null()) {
        ub(UbCategory::DanglingPointer, "creating a reference from a null pointer",
           span);
        return Pointer{};
    }
    if (!p.has_provenance()) {
        ub(UbCategory::Provenance,
           "creating a reference from a pointer without provenance", span);
        return Pointer{};
    }
    Allocation& alloc = get(p.alloc);
    if (!alloc.live) {
        ub(UbCategory::DanglingPointer,
           "creating a reference into dead allocation '" + std::string(alloc.label) +
               "'",
           span);
        return Pointer{};
    }
    if (p.addr < alloc.base || p.addr + size > alloc.base + alloc.size) {
        ub(UbCategory::Provenance, "reference would be out of bounds", span);
        return Pointer{};
    }
    const std::uint64_t offset = p.addr - alloc.base;
    const std::uint64_t len = std::max<std::uint64_t>(size, 1);
    // Creating the reference is itself a use of the parent pointer.
    if (!borrow_use(alloc, offset, len, p.tag, is_mut, span)) {
        return Pointer{};
    }
    const BorrowTag tag =
        push_tag(alloc, offset, len, TagOrigin::Ref,
                 is_mut ? Permission::Unique : Permission::SharedRO);
    return Pointer{p.addr, p.alloc, tag};
}

Pointer MemoryModel::retag_raw(const Pointer& p, std::uint64_t size, bool writable,
                               support::SourceSpan span) {
    if (!p.has_provenance()) {
        // Raw-from-int keeps its (non-)provenance; cast is fine, use is UB.
        return p;
    }
    Allocation& alloc = get(p.alloc);
    if (!alloc.live) {
        ub(UbCategory::DanglingPointer,
           "casting a reference into dead allocation '" + std::string(alloc.label) +
               "'",
           span);
        return Pointer{};
    }
    const std::uint64_t offset = p.addr - alloc.base;
    const std::uint64_t len = std::max<std::uint64_t>(size, 1);
    if (!borrow_use(alloc, offset, len, p.tag, writable, span)) {
        return Pointer{};
    }
    const BorrowTag tag =
        push_tag(alloc, offset, len, TagOrigin::Raw,
                 writable ? Permission::SharedRW : Permission::SharedRO);
    return Pointer{p.addr, p.alloc, tag};
}

Pointer MemoryModel::offset_pointer(const Pointer& p, std::int64_t count,
                                    support::SourceSpan span,
                                    std::uint64_t element_size) {
    if (!p.has_provenance()) {
        ub(UbCategory::Provenance,
           "pointer arithmetic on a pointer without provenance", span);
        return Pointer{};
    }
    const Allocation& alloc = get(p.alloc);
    if (!alloc.live) {
        ub(UbCategory::DanglingPointer,
           "pointer arithmetic on dead allocation '" + std::string(alloc.label) +
               "'",
           span);
        return Pointer{};
    }
    auto out_of_bounds = [&](const std::string& offset) {
        ub(UbCategory::Provenance,
           "pointer arithmetic out of bounds: offset " + offset + " from offset " +
               std::to_string(p.addr - alloc.base) + " of " +
               std::to_string(alloc.size) + "-byte allocation '" +
               std::string(alloc.label) + "'",
           span);
    };
    std::int64_t byte_delta = 0;
    if (__builtin_mul_overflow(count, element_size, &byte_delta)) {
        out_of_bounds(std::to_string(count) + " * " +
                      std::to_string(element_size) + " bytes (overflows)");
        return Pointer{};
    }
    // Rust's offset contract: must stay within [base, base + size] inclusive.
    std::int64_t new_addr = 0;
    if (__builtin_add_overflow(static_cast<std::int64_t>(p.addr), byte_delta,
                               &new_addr) ||
        new_addr < static_cast<std::int64_t>(alloc.base) ||
        new_addr > static_cast<std::int64_t>(alloc.base + alloc.size)) {
        out_of_bounds(std::to_string(byte_delta));
        return Pointer{};
    }
    return Pointer{static_cast<std::uint64_t>(new_addr), p.alloc, p.tag};
}

std::optional<Finding> MemoryModel::check_leaks() const {
    for (const auto& alloc : allocs_) {
        if (alloc.live && alloc.kind == AllocKind::Heap) {
            return Finding{UbCategory::Alloc,
                           "memory leaked: " + std::to_string(alloc.size) +
                               "-byte heap allocation was never deallocated",
                           {}};
        }
    }
    return std::nullopt;
}

}  // namespace rustbrain::miri
