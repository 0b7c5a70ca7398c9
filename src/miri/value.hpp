// Runtime values for the MiriLite interpreter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lang/type.hpp"

namespace rustbrain::miri {

using AllocId = std::uint32_t;
using BorrowTag = std::uint64_t;

constexpr AllocId kNoAlloc = 0;
constexpr BorrowTag kNoTag = 0;

/// A pointer value: absolute address plus (optional) provenance. Pointers
/// cast from integers have no provenance (strict-provenance semantics, like
/// `miri -Zmiri-strict-provenance`); dereferencing them is UB.
struct Pointer {
    std::uint64_t addr = 0;
    AllocId alloc = kNoAlloc;   // kNoAlloc => no provenance
    BorrowTag tag = kNoTag;     // borrow-stack tag; kNoTag on provenance-free ptrs

    [[nodiscard]] bool is_null() const { return addr == 0; }
    [[nodiscard]] bool has_provenance() const { return alloc != kNoAlloc; }

    friend bool operator==(const Pointer& a, const Pointer& b) {
        return a.addr == b.addr && a.alloc == b.alloc && a.tag == b.tag;
    }
};

/// Virtual code addresses for function pointers: fn i lives at
/// kFnAddrBase + i * kFnAddrStride. Data allocations never overlap this.
constexpr std::uint64_t kFnAddrBase = 0x7000'0000'0000ULL;
constexpr std::uint64_t kFnAddrStride = 16;

inline std::uint64_t fn_index_to_addr(std::int32_t index) {
    if (index < 0) return 0;
    return kFnAddrBase + static_cast<std::uint64_t>(index) * kFnAddrStride;
}

/// A function-pointer value. `fn_index` is an index into Program::functions,
/// or kInvalidFn for pointers fabricated from non-function addresses.
struct FnPtrVal {
    static constexpr std::int32_t kInvalidFn = -1;
    std::int32_t fn_index = kInvalidFn;

    [[nodiscard]] bool valid() const { return fn_index >= 0; }

    friend bool operator==(const FnPtrVal& a, const FnPtrVal& b) {
        return a.fn_index == b.fn_index;
    }
};

/// Tagged value union. Arrays appear transiently (literal evaluation) as a
/// vector of element values; they are stored element-wise into memory.
class Value {
  public:
    enum class Kind { Unit, Scalar, Ptr, Fn, Array };

    Value() : kind_(Kind::Unit) {}

    static Value unit() { return Value(); }
    static Value scalar(std::uint64_t bits) {
        Value v;
        v.kind_ = Kind::Scalar;
        v.scalar_ = bits;
        return v;
    }
    static Value boolean(bool b) { return scalar(b ? 1 : 0); }
    static Value pointer(Pointer p) {
        Value v;
        v.kind_ = Kind::Ptr;
        v.ptr_ = p;
        return v;
    }
    static Value function(FnPtrVal f) {
        Value v;
        v.kind_ = Kind::Fn;
        v.fn_ = f;
        return v;
    }
    static Value array(std::vector<Value> elements) {
        Value v;
        v.kind_ = Kind::Array;
        v.elements_ = std::make_shared<std::vector<Value>>(std::move(elements));
        return v;
    }

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_unit() const { return kind_ == Kind::Unit; }

    /// Raw bits (zero-extended). For Ptr returns the address; for Fn the
    /// encoded code address.
    [[nodiscard]] std::uint64_t bits() const {
        switch (kind_) {
            case Kind::Unit: return 0;
            case Kind::Scalar: return scalar_;
            case Kind::Ptr: return ptr_.addr;
            case Kind::Fn: return fn_index_to_addr(fn_.fn_index);
            case Kind::Array: throw_bits_on_array();
        }
        return 0;
    }
    [[nodiscard]] bool as_bool() const { return bits() != 0; }
    [[nodiscard]] const Pointer& as_ptr() const;
    [[nodiscard]] const FnPtrVal& as_fn() const;
    [[nodiscard]] const std::vector<Value>& as_array() const;

    /// Every field, arrays compared element by element (vm::Vm's
    /// fixed-point check compares whole machine states).
    friend bool operator==(const Value& a, const Value& b);

    /// Sign-extend the low `bytes` of the scalar to 64-bit signed.
    [[nodiscard]] std::int64_t as_signed(std::uint64_t bytes) const {
        const std::uint64_t raw = bits();
        if (bytes >= 8) return static_cast<std::int64_t>(raw);
        const std::uint64_t shift = 64 - bytes * 8;
        return static_cast<std::int64_t>(raw << shift) >> shift;
    }

  private:
    [[noreturn]] static void throw_bits_on_array();

    Kind kind_;
    std::uint64_t scalar_ = 0;
    Pointer ptr_;
    FnPtrVal fn_;
    std::shared_ptr<std::vector<Value>> elements_;
};

/// What a failed check yields in place of a result of `type` (DESIGN.md
/// §19): zero, the null pointer without provenance, the invalid function,
/// or an empty array. Every later use of it is harmless to the host: a
/// load or store through it fails its own check, a store of it writes
/// nothing, and the run ends at the tier's next fault check.
inline Value neutral_value(const lang::Type& type) {
    if (type.is_array()) return Value::array({});
    if (type.is_any_pointer()) return Value::pointer(Pointer{});
    if (type.is_fn_ptr()) return Value::function(FnPtrVal{});
    if (type.is_unit()) return Value::unit();
    return Value::scalar(0);
}

/// kInvalidFn when the address is not a valid function address.
std::int32_t fn_addr_to_index(std::uint64_t addr, std::size_t fn_count);

/// Truncate `bits` to the width of `type` (scalars; pointers unchanged).
inline std::uint64_t truncate_to_type(std::uint64_t bits,
                                      const lang::Type& type) {
    const std::uint64_t size = type.size_bytes();
    if (size == 0) return 0;
    if (size >= 8) return bits;
    const std::uint64_t mask = (1ULL << (size * 8)) - 1;
    return bits & mask;
}

}  // namespace rustbrain::miri
