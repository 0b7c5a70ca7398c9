// MiriLite's scalar kernel: the one copy of the arithmetic, negation, bitwise
// not, integer cast and array-bounds rules, with Rust's panic messages.
//
// The tree walk (which the static screener runs) and the VM both evaluate
// scalars here, so the tiers cannot drift apart on a value or a message;
// tests/miri_scalar_test.cpp checks the kernel against an independent
// __int128 reference. Every function is inline: the tree walk and the VM's
// arithmetic opcodes call them on their hottest paths. A panic is
// raised on the run's FaultRecord and the function returns a neutral value
// (DESIGN.md §19); the tier stops at its next fault check.
//
// Operands arrive as Values whose bits may exceed the operand width (an
// unsigned value is read zero-extended, a signed one sign-extended from the
// width), and results are truncated to the result type.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "lang/ast.hpp"
#include "miri/finding.hpp"
#include "miri/value.hpp"
#include "support/source_span.hpp"

namespace rustbrain::miri {

/// A Rust panic in the interpreted program. FaultRecord::record is out of
/// line and cold, so the many inlined call sites of the kernel and of
/// Machine::step stay small: a literal message costs the call site a
/// pointer, not a std::string construction.
inline void panic(FaultRecord& faults, const char* message,
                  const support::SourceSpan& span) {
    faults.raise(UbCategory::Panic, message, span);
}
inline void panic(FaultRecord& faults, std::string message,
                  const support::SourceSpan& span) {
    faults.raise(UbCategory::Panic, std::move(message), span);
}

/// `bits` as a value of integer `type`: truncated to its width.
inline Value arith_result(std::uint64_t bits, const lang::Type& type) {
    return Value::scalar(truncate_to_type(bits, type));
}

namespace scalar_detail {

/// `a op b` (op is Add, Sub or Mul) in infinite precision, stored into an
/// `Out`; true when the exact result does not fit `Out`.
template <typename Out, typename In>
inline bool overflows(lang::BinaryOp op, In a, In b, std::uint64_t& bits) {
    Out out{};
    bool overflow = false;
    if (op == lang::BinaryOp::Add) {
        overflow = __builtin_add_overflow(a, b, &out);
    } else if (op == lang::BinaryOp::Sub) {
        overflow = __builtin_sub_overflow(a, b, &out);
    } else {
        overflow = __builtin_mul_overflow(a, b, &out);
    }
    bits = static_cast<std::uint64_t>(out);
    return overflow;
}

/// Add/Sub/Mul at the operand's width and signedness.
inline bool checked_arith(lang::BinaryOp op, std::uint64_t size, bool is_signed,
                          const Value& lhs, const Value& rhs,
                          std::uint64_t& bits) {
    if (is_signed) {
        const std::int64_t a = lhs.as_signed(size);
        const std::int64_t b = rhs.as_signed(size);
        switch (size) {
            case 1: return overflows<std::int8_t>(op, a, b, bits);
            case 2: return overflows<std::int16_t>(op, a, b, bits);
            case 4: return overflows<std::int32_t>(op, a, b, bits);
            default: return overflows<std::int64_t>(op, a, b, bits);
        }
    }
    const std::uint64_t a = lhs.bits();
    const std::uint64_t b = rhs.bits();
    switch (size) {
        case 1: return overflows<std::uint8_t>(op, a, b, bits);
        case 2: return overflows<std::uint16_t>(op, a, b, bits);
        case 4: return overflows<std::uint32_t>(op, a, b, bits);
        default: return overflows<std::uint64_t>(op, a, b, bits);
    }
}

/// The smallest value of a signed integer of `size` bytes.
inline std::int64_t signed_min(std::uint64_t size) {
    return size >= 8 ? std::numeric_limits<std::int64_t>::min()
                     : -(std::int64_t{1} << (size * 8 - 1));
}

template <typename T>
inline bool compare(lang::BinaryOp op, T a, T b) {
    switch (op) {
        case lang::BinaryOp::Lt: return a < b;
        case lang::BinaryOp::Le: return a <= b;
        case lang::BinaryOp::Gt: return a > b;
        default: return a >= b;
    }
}

}  // namespace scalar_detail

/// Every BinaryOp except the short-circuit And/Or, which the tiers
/// evaluate as control flow. `operand_type` is the left operand's type. A
/// panic yields 0.
inline Value binary_op(FaultRecord& faults, lang::BinaryOp op,
                       const lang::Type& result_type,
                       const lang::Type& operand_type,
                       const support::SourceSpan& span, const Value& lhs,
                       const Value& rhs) {
    using lang::BinaryOp;
    const std::uint64_t size = operand_type.size_bytes();
    const bool is_signed = operand_type.is_signed_integer();
    switch (op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul: {
            std::uint64_t bits = 0;
            if (scalar_detail::checked_arith(op, size, is_signed, lhs, rhs,
                                             bits)) {
                panic(faults,
                      op == BinaryOp::Add   ? "attempt to add with overflow"
                      : op == BinaryOp::Sub ? "attempt to subtract with overflow"
                                            : "attempt to multiply with overflow",
                      span);
                return Value::scalar(0);
            }
            return arith_result(bits, result_type);
        }
        case BinaryOp::Div:
        case BinaryOp::Rem: {
            const bool is_div = op == BinaryOp::Div;
            if (rhs.bits() == 0) {
                panic(faults,
                      is_div ? "attempt to divide by zero"
                             : "attempt to calculate the remainder with a divisor of zero",
                      span);
                return Value::scalar(0);
            }
            if (is_signed) {
                const std::int64_t a = lhs.as_signed(size);
                const std::int64_t b = rhs.as_signed(size);
                if (a == scalar_detail::signed_min(size) && b == -1) {
                    panic(faults,
                          is_div ? "attempt to divide with overflow"
                                 : "attempt to calculate the remainder with overflow",
                          span);
                    return Value::scalar(0);
                }
                return arith_result(static_cast<std::uint64_t>(is_div ? a / b : a % b),
                                    result_type);
            }
            return arith_result(is_div ? lhs.bits() / rhs.bits()
                                       : lhs.bits() % rhs.bits(),
                                result_type);
        }
        case BinaryOp::Shl:
        case BinaryOp::Shr: {
            const std::uint64_t shift = rhs.bits();
            if (shift >= size * 8) {
                panic(faults,
                      op == BinaryOp::Shl ? "attempt to shift left with overflow"
                                          : "attempt to shift right with overflow",
                      span);
                return Value::scalar(0);
            }
            if (op == BinaryOp::Shl) {
                return arith_result(lhs.bits() << shift, result_type);
            }
            if (is_signed) {
                return arith_result(static_cast<std::uint64_t>(
                                        lhs.as_signed(size) >>
                                        static_cast<std::int64_t>(shift)),
                                    result_type);
            }
            return arith_result(lhs.bits() >> shift, result_type);
        }
        case BinaryOp::BitAnd:
            return arith_result(lhs.bits() & rhs.bits(), result_type);
        case BinaryOp::BitOr:
            return arith_result(lhs.bits() | rhs.bits(), result_type);
        case BinaryOp::BitXor:
            return arith_result(lhs.bits() ^ rhs.bits(), result_type);
        case BinaryOp::Eq:
            return Value::boolean(lhs.bits() == rhs.bits());
        case BinaryOp::Ne:
            return Value::boolean(lhs.bits() != rhs.bits());
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge:
            return Value::boolean(
                is_signed ? scalar_detail::compare(op, lhs.as_signed(size),
                                                   rhs.as_signed(size))
                          : scalar_detail::compare(op, lhs.bits(), rhs.bits()));
        case BinaryOp::And:
        case BinaryOp::Or:
            break;
    }
    return Value::unit();
}

/// Unary minus on a signed integer of `type`; a panic yields 0.
inline Value negate(FaultRecord& faults, const Value& operand,
                    const lang::Type& type, const support::SourceSpan& span) {
    const std::uint64_t size = type.size_bytes();
    const std::int64_t value = operand.as_signed(size);
    if (value == scalar_detail::signed_min(size)) {
        panic(faults, "attempt to negate with overflow", span);
        return Value::scalar(0);
    }
    return arith_result(static_cast<std::uint64_t>(-value), type);
}

/// `!x` on an integer of `type` (`!` on a bool is logical negation).
inline Value bitwise_not(const Value& operand, const lang::Type& type) {
    return arith_result(~operand.bits(), type);
}

/// `x as T` from an integer or bool of `source_size` bytes to integer
/// `target`: sign- or zero-extend the source, truncate to the target.
inline Value int_cast(const Value& operand, bool source_signed,
                      std::uint64_t source_size, const lang::Type& target) {
    return arith_result(source_signed ? static_cast<std::uint64_t>(
                                            operand.as_signed(source_size))
                                      : operand.bits(),
                        target);
}

/// The rule an `as` cast follows, decided by its static types alone.
enum class CastKind : std::int32_t {
    IntFromInt,  // int or bool -> int: int_cast
    IntToRawPtr, // int -> raw pointer: provenance-free address
    PtrToInt,    // raw pointer or reference -> int: the address
    RawToRaw,    // raw pointer -> raw pointer: unchanged (tag kept)
    RefToRaw,    // reference -> raw pointer: a retag pushing a Raw entry
    FnToInt,     // fn pointer -> int: the code address
    IntToFn,     // int -> fn pointer: decode the code address
    FnToFn,      // fn pointer -> fn pointer: unchanged
    Unsupported, // rejected by the type checker
};

inline CastKind classify_cast(const lang::Type& source,
                              const lang::Type& target) {
    if ((source.is_integer() || source.is_bool()) && target.is_integer()) {
        return CastKind::IntFromInt;
    }
    if (source.is_integer() && target.is_raw_ptr()) return CastKind::IntToRawPtr;
    if (source.is_any_pointer() && target.is_integer()) return CastKind::PtrToInt;
    if (source.is_raw_ptr() && target.is_raw_ptr()) return CastKind::RawToRaw;
    if (source.is_ref() && target.is_raw_ptr()) return CastKind::RefToRaw;
    if (source.is_fn_ptr() && target.is_integer()) return CastKind::FnToInt;
    if (source.is_integer() && target.is_fn_ptr()) return CastKind::IntToFn;
    if (source.is_fn_ptr() && target.is_fn_ptr()) return CastKind::FnToFn;
    return CastKind::Unsupported;
}

/// Array indexing: false, after a panic, unless `index < len`. A tier
/// then forms no element pointer from `index`.
inline bool check_index(FaultRecord& faults, std::uint64_t index,
                        std::uint64_t len, const support::SourceSpan& span) {
    if (__builtin_expect(index < len, 1)) return true;
    if (!faults.raised()) {
        panic(faults,
              "index out of bounds: the len is " + std::to_string(len) +
                  " but the index is " + std::to_string(index),
              span);
    }
    return false;
}

}  // namespace rustbrain::miri
