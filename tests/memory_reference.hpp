// The per-byte MiriLite memory model that miri::MemoryModel's run-length
// payload replaced (DESIGN.md §23), kept as the oracle for the differential
// test in miri_memory_reference_test.cpp: every byte holds its own value,
// init flag, borrow stack and race epochs, and a dead allocation keeps a
// 312-byte record. For the same operation sequence both models must raise the
// same findings, load the same values and charge the same live bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "lang/type.hpp"
#include "miri/finding.hpp"
#include "miri/memory.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri::reference {

/// Per-byte borrow stack with two inline entries; deeper chains spill.
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
    void shrink_to(std::size_t n) {
        if (n >= size_) return;
        if (size_ > kInline) {
            spill_.resize(n > kInline ? n - kInline : 0);
        }
        size_ = n;
    }
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

struct Allocation {
    AllocId id = kNoAlloc;
    AllocKind kind = AllocKind::Stack;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    std::uint64_t align = 1;
    bool live = true;
    bool tail_call_killed = false;
    BorrowTag base_tag = kNoTag;
    bool uniform_borrows = true;
    std::uint64_t uninit_count = 0;
    std::string label;
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint8_t> init;
    std::vector<BorrowStack> borrows;
    std::vector<AccessEpoch> last_write;
    std::vector<std::vector<AccessEpoch>> reads;
    std::map<std::uint64_t, Pointer> ptr_prov;
    std::map<std::uint64_t, FnPtrVal> fn_prov;
};

class MemoryModel {
  public:
    explicit MemoryModel(FaultRecord& faults) : faults_(&faults) {}

    std::uint64_t reserve(std::uint64_t size, std::uint64_t align,
                          support::SourceSpan span) {
        if (align == 0 || (align & (align - 1)) != 0) {
            ub(UbCategory::Alloc,
               "invalid allocation alignment " + std::to_string(align) +
                   " (must be a power of two)",
               span);
            return 0;
        }
        const std::uint64_t alloc_size = std::max<std::uint64_t>(size, 1);
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

    bool fits_in_cap(std::uint64_t count, std::uint64_t element_size,
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

    AllocId allocate(std::uint64_t size, std::uint64_t align, AllocKind kind,
                     std::string label, support::SourceSpan span) {
        const std::uint64_t base = reserve(size, align, span);
        if (base == 0) return kNoAlloc;
        const std::uint64_t alloc_size = std::max<std::uint64_t>(size, 1);
        Allocation alloc;
        alloc.id = static_cast<AllocId>(allocs_.size() + 1);
        alloc.kind = kind;
        alloc.base = base;
        alloc.size = alloc_size;
        alloc.align = align;
        alloc.label = std::move(label);
        alloc.base_tag = fresh_tag(TagOrigin::Base);
        alloc.uninit_count = alloc_size;
        alloc.bytes.assign(alloc_size, 0);
        alloc.init.assign(alloc_size, 0);
        alloc.borrows.resize(alloc_size);
        for (auto& stack : alloc.borrows) {
            stack.push_back({alloc.base_tag, Permission::Unique});
        }
        allocs_.push_back(std::move(alloc));
        return allocs_.back().id;
    }

    void deallocate(const Pointer& p, std::uint64_t size, std::uint64_t align,
                    support::SourceSpan span) {
        if (p.is_null()) {
            ub(UbCategory::Alloc, "deallocating the null pointer", span);
            return;
        }
        if (!p.has_provenance()) {
            ub(UbCategory::Provenance,
               "deallocating a pointer without provenance (int-to-pointer cast)",
               span);
            return;
        }
        Allocation& alloc = get(p.alloc);
        if (!alloc.live) {
            ub(UbCategory::Alloc,
               "double free: allocation '" + alloc.label + "' was already deallocated",
               span);
            return;
        }
        if (alloc.kind != AllocKind::Heap) {
            ub(UbCategory::Alloc,
               "deallocating non-heap memory ('" + alloc.label + "')", span);
            return;
        }
        if (p.addr != alloc.base) {
            ub(UbCategory::Alloc,
               "dealloc pointer does not point to the start of the allocation",
               span);
            return;
        }
        if (size != alloc.size || align != alloc.align) {
            ub(UbCategory::Alloc,
               "dealloc layout mismatch: allocated (size " +
                   std::to_string(alloc.size) + ", align " +
                   std::to_string(alloc.align) + "), freed with (size " +
                   std::to_string(size) + ", align " + std::to_string(align) + ")",
               span);
            return;
        }
        die(alloc);
    }

    void kill(AllocId id) {
        if (id != kNoAlloc) die(get(id));
    }

    void kill_for_tail_call(AllocId id) {
        if (id == kNoAlloc) return;
        Allocation& alloc = get(id);
        alloc.tail_call_killed = true;
        die(alloc);
    }

    [[nodiscard]] Allocation& get(AllocId id) {
        if (id == kNoAlloc || id > allocs_.size()) {
            throw std::logic_error("reference::MemoryModel::get: bad allocation id");
        }
        return allocs_[id - 1];
    }

    [[nodiscard]] Pointer base_pointer(AllocId id) const {
        if (id == kNoAlloc) return Pointer{};
        const Allocation& alloc = allocs_.at(id - 1);
        return Pointer{alloc.base, alloc.id, alloc.base_tag};
    }

    Value load(const Pointer& p, const lang::Type& type, const AccessCtx& ctx) {
        const std::uint64_t size = type.size_bytes();
        if (size == 0) return Value::unit();
        if (type.is_array()) {
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
        Allocation* checked =
            check_access(p, size, /*write=*/false, ctx, offset, type.align_bytes());
        if (checked == nullptr) return neutral_value(type);
        Allocation& alloc = *checked;
        for (std::uint64_t i = offset; i < offset + size; ++i) {
            if (!alloc.init[i]) {
                ub(UbCategory::Uninit,
                   "reading uninitialized memory in '" + alloc.label +
                       "' at offset " + std::to_string(i),
                   ctx.span);
                return neutral_value(type);
            }
        }
        std::uint64_t bits = 0;
        for (std::uint64_t i = 0; i < size; ++i) {
            bits |= static_cast<std::uint64_t>(alloc.bytes[offset + i]) << (8 * i);
        }
        if (type.is_bool()) {
            if (bits > 1) {
                ub(UbCategory::Validity,
                   "invalid bool value " + std::to_string(bits) +
                       " (must be 0 or 1) loaded from '" + alloc.label + "'",
                   ctx.span);
                return neutral_value(type);
            }
            return Value::boolean(bits != 0);
        }
        if (type.is_raw_ptr() || type.is_ref()) {
            Pointer loaded;
            if (auto it = alloc.ptr_prov.find(offset); it != alloc.ptr_prov.end()) {
                loaded = it->second;
            } else {
                loaded = Pointer{bits, kNoAlloc, kNoTag};
            }
            if (type.is_ref() && loaded.is_null()) {
                ub(UbCategory::Validity,
                   "loaded a null reference from '" + alloc.label + "'", ctx.span);
                return neutral_value(type);
            }
            return Value::pointer(loaded);
        }
        if (type.is_fn_ptr()) {
            if (auto it = alloc.fn_prov.find(offset); it != alloc.fn_prov.end()) {
                return Value::function(it->second);
            }
            return Value::function(
                FnPtrVal{fn_addr_to_index(bits, static_cast<std::size_t>(-1))});
        }
        return Value::scalar(bits);
    }

    void store(const Pointer& p, const lang::Type& type, const Value& value,
               const AccessCtx& ctx) {
        const std::uint64_t size = type.size_bytes();
        if (size == 0) return;
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
        Allocation* checked =
            check_access(p, size, /*write=*/true, ctx, offset, type.align_bytes());
        if (checked == nullptr) return;
        Allocation& alloc = *checked;
        auto overlaps = [&](std::uint64_t entry_offset) {
            return entry_offset < offset + size && entry_offset + 8 > offset;
        };
        for (auto it = alloc.ptr_prov.begin(); it != alloc.ptr_prov.end();) {
            it = overlaps(it->first) ? alloc.ptr_prov.erase(it) : std::next(it);
        }
        for (auto it = alloc.fn_prov.begin(); it != alloc.fn_prov.end();) {
            it = overlaps(it->first) ? alloc.fn_prov.erase(it) : std::next(it);
        }
        const std::uint64_t bits = truncate_to_type(value.bits(), type);
        for (std::uint64_t i = 0; i < size; ++i) {
            alloc.bytes[offset + i] = static_cast<std::uint8_t>(bits >> (8 * i));
            if (!alloc.init[offset + i]) {
                alloc.init[offset + i] = 1;
                --alloc.uninit_count;
            }
        }
        if ((type.is_raw_ptr() || type.is_ref()) && value.kind() == Value::Kind::Ptr) {
            alloc.ptr_prov[offset] = value.as_ptr();
        }
        if (type.is_fn_ptr() && value.kind() == Value::Kind::Fn) {
            alloc.fn_prov[offset] = value.as_fn();
        }
    }

    Pointer retag_ref(const Pointer& p, std::uint64_t size, bool is_mut,
                      support::SourceSpan span) {
        if (p.is_null()) {
            ub(UbCategory::DanglingPointer,
               "creating a reference from a null pointer", span);
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
               "creating a reference into dead allocation '" + alloc.label + "'",
               span);
            return Pointer{};
        }
        if (p.addr < alloc.base || p.addr + size > alloc.base + alloc.size) {
            ub(UbCategory::Provenance, "reference would be out of bounds", span);
            return Pointer{};
        }
        const std::uint64_t offset = p.addr - alloc.base;
        const std::uint64_t len = std::max<std::uint64_t>(size, 1);
        if (!borrow_use(alloc, offset, len, p.tag, is_mut, span)) return Pointer{};
        const BorrowTag tag = fresh_tag(TagOrigin::Ref);
        const Permission perm = is_mut ? Permission::Unique : Permission::SharedRO;
        for (std::uint64_t i = offset; i < offset + len; ++i) {
            alloc.borrows[i].push_back({tag, perm});
        }
        return Pointer{p.addr, p.alloc, tag};
    }

    Pointer retag_raw(const Pointer& p, std::uint64_t size, bool writable,
                      support::SourceSpan span) {
        if (!p.has_provenance()) return p;
        Allocation& alloc = get(p.alloc);
        if (!alloc.live) {
            ub(UbCategory::DanglingPointer,
               "casting a reference into dead allocation '" + alloc.label + "'",
               span);
            return Pointer{};
        }
        const std::uint64_t offset = p.addr - alloc.base;
        const std::uint64_t len = std::max<std::uint64_t>(size, 1);
        if (!borrow_use(alloc, offset, len, p.tag, writable, span)) return Pointer{};
        const BorrowTag tag = fresh_tag(TagOrigin::Raw);
        const Permission perm = writable ? Permission::SharedRW : Permission::SharedRO;
        for (std::uint64_t i = offset; i < offset + len; ++i) {
            alloc.borrows[i].push_back({tag, perm});
        }
        return Pointer{p.addr, p.alloc, tag};
    }

    Pointer offset_pointer(const Pointer& p, std::int64_t count,
                           support::SourceSpan span, std::uint64_t element_size = 1) {
        if (!p.has_provenance()) {
            ub(UbCategory::Provenance,
               "pointer arithmetic on a pointer without provenance", span);
            return Pointer{};
        }
        const Allocation& alloc = get(p.alloc);
        if (!alloc.live) {
            ub(UbCategory::DanglingPointer,
               "pointer arithmetic on dead allocation '" + alloc.label + "'", span);
            return Pointer{};
        }
        auto out_of_bounds = [&](const std::string& offset) {
            ub(UbCategory::Provenance,
               "pointer arithmetic out of bounds: offset " + offset +
                   " from offset " + std::to_string(p.addr - alloc.base) + " of " +
                   std::to_string(alloc.size) + "-byte allocation '" + alloc.label +
                   "'",
               span);
        };
        std::int64_t byte_delta = 0;
        if (__builtin_mul_overflow(count, element_size, &byte_delta)) {
            out_of_bounds(std::to_string(count) + " * " +
                          std::to_string(element_size) + " bytes (overflows)");
            return Pointer{};
        }
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

    [[nodiscard]] std::optional<Finding> check_leaks() const {
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

    [[nodiscard]] std::uint64_t bytes_allocated() const { return bytes_allocated_; }

  private:
    Allocation* check_access(const Pointer& p, std::uint64_t size, bool write,
                             const AccessCtx& ctx, std::uint64_t& offset_out,
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
                   "use after free: local '" + alloc.label +
                       "' died when its frame was popped by a become tail call",
                   ctx.span);
            } else {
                ub(UbCategory::DanglingPointer,
                   "use after free: allocation '" + alloc.label + "' is dead",
                   ctx.span);
            }
            return nullptr;
        }
        if (p.addr < alloc.base || p.addr + size > alloc.base + alloc.size) {
            ub(UbCategory::Provenance,
               "out-of-bounds access: " + std::to_string(size) + " bytes at offset " +
                   std::to_string(p.addr - alloc.base) + " of " +
                   std::to_string(alloc.size) + "-byte allocation '" + alloc.label +
                   "'",
               ctx.span);
            return nullptr;
        }
        if (align > 1 && p.addr % align != 0) {
            ub(UbCategory::Unaligned,
               "accessing memory with alignment " + std::to_string(align) +
                   " at misaligned address (addr % " + std::to_string(align) +
                   " == " + std::to_string(p.addr % align) + ")",
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

    bool borrow_use(Allocation& alloc, std::uint64_t offset, std::uint64_t size,
                    BorrowTag tag, bool write, support::SourceSpan span) {
        const UbCategory category = origin_of(tag) == TagOrigin::Ref
                                        ? UbCategory::BothBorrow
                                        : UbCategory::StackBorrow;
        for (std::uint64_t i = offset; i < offset + size; ++i) {
            BorrowStack& stack = alloc.borrows[i];
            std::ptrdiff_t found = -1;
            for (std::ptrdiff_t j = static_cast<std::ptrdiff_t>(stack.size()) - 1;
                 j >= 0; --j) {
                if (stack[static_cast<std::size_t>(j)].tag == tag) {
                    found = j;
                    break;
                }
            }
            if (found < 0) {
                ub(category,
                   write ? "write through an invalidated borrow of '" + alloc.label +
                               "' (tag no longer on the borrow stack)"
                         : "read through an invalidated borrow of '" + alloc.label +
                               "' (tag no longer on the borrow stack)",
                   span);
                return false;
            }
            const BorrowEntry entry = stack[static_cast<std::size_t>(found)];
            if (write && entry.perm == Permission::SharedRO) {
                ub(category,
                   "write through a read-only borrow of '" + alloc.label + "'", span);
                return false;
            }
            const std::size_t top = static_cast<std::size_t>(found) + 1;
            if (top == stack.size()) continue;
            if (write) {
                stack.shrink_to(top);
            } else {
                stack.remove_unique_above(top);
            }
        }
        return true;
    }

    bool race_check(Allocation& alloc, std::uint64_t offset, std::uint64_t size,
                    bool write, const AccessCtx& ctx) {
        if (ctx.vc == nullptr) return true;
        if (alloc.last_write.empty()) {
            alloc.last_write.resize(alloc.size);
            alloc.reads.resize(alloc.size);
        }
        auto unordered = [&](const AccessEpoch& epoch) {
            return epoch.valid && epoch.clock > ctx.vc->get(epoch.tid);
        };
        for (std::uint64_t i = offset; i < offset + size; ++i) {
            AccessEpoch& last_write = alloc.last_write[i];
            std::vector<AccessEpoch>& reads = alloc.reads[i];
            if (unordered(last_write) && !(last_write.atomic && ctx.atomic) &&
                last_write.tid != ctx.tid) {
                ub(UbCategory::DataRace,
                   std::string(write ? "write" : "read") +
                       "-after-write data race on '" + alloc.label +
                       "' between threads " + std::to_string(last_write.tid) +
                       " and " + std::to_string(ctx.tid),
                   ctx.span);
                return false;
            }
            if (write) {
                for (const AccessEpoch& read : reads) {
                    if (unordered(read) && !(read.atomic && ctx.atomic) &&
                        read.tid != ctx.tid) {
                        ub(UbCategory::DataRace,
                           "write-after-read data race on '" + alloc.label +
                               "' between threads " + std::to_string(read.tid) +
                               " and " + std::to_string(ctx.tid),
                           ctx.span);
                        return false;
                    }
                }
            }
            if (write) {
                last_write = {ctx.tid, ctx.vc->get(ctx.tid), ctx.atomic, true};
                reads.clear();
            } else {
                bool updated = false;
                for (AccessEpoch& read : reads) {
                    if (read.tid == ctx.tid) {
                        read = {ctx.tid, ctx.vc->get(ctx.tid), ctx.atomic, true};
                        updated = true;
                        break;
                    }
                }
                if (!updated) {
                    reads.push_back({ctx.tid, ctx.vc->get(ctx.tid), ctx.atomic, true});
                }
            }
        }
        return true;
    }

    void ub(UbCategory category, std::string message,
            support::SourceSpan span) const {
        faults_->raise(category, std::move(message), span);
    }

    void out_of_memory(std::uint64_t bytes, support::SourceSpan span) const {
        ub(UbCategory::Alloc,
           "out of memory: allocating " + std::to_string(bytes) +
               " bytes passes the run's cap of " + std::to_string(kMaxBytesPerRun) +
               " bytes",
           span);
    }

    void die(Allocation& alloc) {
        if (!alloc.live) return;
        alloc.live = false;
        bytes_allocated_ -= alloc.size;
        std::vector<std::uint8_t>().swap(alloc.bytes);
        std::vector<std::uint8_t>().swap(alloc.init);
        std::vector<BorrowStack>().swap(alloc.borrows);
        std::vector<AccessEpoch>().swap(alloc.last_write);
        std::vector<std::vector<AccessEpoch>>().swap(alloc.reads);
        std::map<std::uint64_t, Pointer>().swap(alloc.ptr_prov);
        std::map<std::uint64_t, FnPtrVal>().swap(alloc.fn_prov);
    }

    BorrowTag fresh_tag(TagOrigin origin) {
        tag_origins_.push_back(origin);
        return next_tag_++;
    }

    [[nodiscard]] TagOrigin origin_of(BorrowTag tag) const {
        if (tag == kNoTag || tag > tag_origins_.size()) return TagOrigin::Raw;
        return tag_origins_[tag - 1];
    }

    FaultRecord* faults_;
    std::vector<Allocation> allocs_;
    std::vector<TagOrigin> tag_origins_;
    std::uint64_t next_addr_ = 0x10000;
    BorrowTag next_tag_ = 1;
    std::uint64_t bytes_allocated_ = 0;
};

}  // namespace rustbrain::miri::reference
