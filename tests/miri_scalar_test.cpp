// MiriLite's scalar kernel (miri/scalar.hpp) against an independent
// reference. The tree walk, the VM and the screener all call the kernel, so
// the cross-tier tests cannot catch an arithmetic error in it; this suite
// recomputes every result from Rust's rules in __int128, on mathematical
// values rather than bit patterns:
//   - every BinaryOp except the short-circuit And/Or, plus negation and
//     bitwise not, over all 65 536 operand pairs at u8 and at i8;
//   - the same over boundary sets at 16, 32 and 64 bits: 0, ±1, min,
//     min+1, max-1, max, and ±(2^k±1);
//   - integer-to-integer casts between every pair of widths and
//     signednesses from the same value sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "lang/type.hpp"
#include "miri/scalar.hpp"
#include "miri/value.hpp"

namespace rustbrain::miri {
namespace {

using lang::BinaryOp;
using lang::ScalarKind;
using lang::Type;
using i128 = __int128;
using u128 = unsigned __int128;

struct IntType {
    ScalarKind kind;
    unsigned width;  // bits
    bool is_signed;

    [[nodiscard]] Type type() const { return Type::scalar(kind); }
    [[nodiscard]] i128 min() const {
        return is_signed ? -(i128{1} << (width - 1)) : 0;
    }
    [[nodiscard]] i128 max() const {
        return is_signed ? (i128{1} << (width - 1)) - 1
                         : (i128{1} << width) - 1;
    }
    [[nodiscard]] bool contains(i128 v) const { return min() <= v && v <= max(); }
    /// Two's-complement bit pattern of `v`, truncated to the width — the
    /// representation the interpreters store.
    [[nodiscard]] std::uint64_t bits(i128 v) const {
        const u128 pattern = static_cast<u128>(v);
        const u128 mask = (u128{1} << width) - 1;
        return static_cast<std::uint64_t>(pattern & mask);
    }
    /// The mathematical value of a width-truncated bit pattern.
    [[nodiscard]] i128 value(std::uint64_t pattern) const {
        if (is_signed && width < 128 &&
            (static_cast<u128>(pattern) >> (width - 1)) != 0) {
            return static_cast<i128>(pattern) - (i128{1} << width);
        }
        return static_cast<i128>(pattern);
    }
};

const IntType kU8{ScalarKind::U8, 8, false};
const IntType kI8{ScalarKind::I8, 8, true};
const std::vector<IntType> kAllTypes = {
    kU8, kI8,
    {ScalarKind::U16, 16, false}, {ScalarKind::I16, 16, true},
    {ScalarKind::U32, 32, false}, {ScalarKind::I32, 32, true},
    {ScalarKind::U64, 64, false}, {ScalarKind::I64, 64, true},
};
const std::vector<IntType> kWideTypes(kAllTypes.begin() + 2, kAllTypes.end());

/// Every value of an 8-bit type; the boundary set of a wider one.
std::vector<i128> values_of(const IntType& t) {
    std::set<i128> out;
    if (t.width == 8) {
        for (i128 v = t.min(); v <= t.max(); ++v) out.insert(v);
    } else {
        for (const i128 v : {i128{0}, i128{1}, i128{-1}, t.min(), t.min() + 1,
                             t.max() - 1, t.max()}) {
            out.insert(v);
        }
        for (unsigned k = 1; k < t.width; ++k) {
            const i128 p = i128{1} << k;
            for (const i128 v : {p - 1, p + 1, -p - 1, -p + 1}) {
                out.insert(v);
            }
        }
    }
    std::vector<i128> in_range;
    for (const i128 v : out) {
        if (t.contains(v)) in_range.push_back(v);
    }
    return in_range;
}

/// A result: the truncated bit pattern, or a panic message.
struct Outcome {
    bool panics = false;
    std::string message;
    std::uint64_t bits = 0;

    friend bool operator==(const Outcome& a, const Outcome& b) {
        return a.panics == b.panics && a.message == b.message &&
               a.bits == b.bits;
    }
};

std::string describe(const Outcome& o) {
    return o.panics ? "panic '" + o.message + "'" : std::to_string(o.bits);
}

Outcome value_of(const IntType& t, i128 v) { return {false, "", t.bits(v)}; }
Outcome panics(const char* message) { return {true, message, 0}; }
Outcome boolean(bool b) { return {false, "", b ? 1u : 0u}; }

/// Rust's rule for `a op b` on two values of type `t`.
Outcome reference_binary(BinaryOp op, const IntType& t, i128 a, i128 b) {
    // Shift amounts are read as the right operand's unsigned bit pattern.
    const u128 shift = t.bits(b);
    switch (op) {
        case BinaryOp::Add: {
            const i128 r = a + b;
            return t.contains(r) ? value_of(t, r)
                                 : panics("attempt to add with overflow");
        }
        case BinaryOp::Sub: {
            const i128 r = a - b;
            return t.contains(r) ? value_of(t, r)
                                 : panics("attempt to subtract with overflow");
        }
        case BinaryOp::Mul: {
            // |a * b| < 2^128 for unsigned 64-bit operands, < 2^126 signed.
            const bool negative = (a < 0) != (b < 0) && a != 0 && b != 0;
            const u128 magnitude = static_cast<u128>(a < 0 ? -a : a) *
                                   static_cast<u128>(b < 0 ? -b : b);
            const u128 limit = negative ? static_cast<u128>(-t.min())
                                        : static_cast<u128>(t.max());
            if (magnitude > limit) {
                return panics("attempt to multiply with overflow");
            }
            const i128 r = negative ? -static_cast<i128>(magnitude)
                                    : static_cast<i128>(magnitude);
            return value_of(t, r);
        }
        case BinaryOp::Div:
        case BinaryOp::Rem: {
            const bool div = op == BinaryOp::Div;
            if (b == 0) {
                return panics(div ? "attempt to divide by zero"
                                  : "attempt to calculate the remainder with a "
                                    "divisor of zero");
            }
            if (t.is_signed && a == t.min() && b == -1) {
                return panics(div ? "attempt to divide with overflow"
                                  : "attempt to calculate the remainder with "
                                    "overflow");
            }
            // Rust rounds toward zero; the remainder takes a's sign.
            const i128 q = a / b;
            return value_of(t, div ? q : a - q * b);
        }
        case BinaryOp::Shl:
            if (shift >= t.width) {
                return panics("attempt to shift left with overflow");
            }
            return value_of(t, static_cast<i128>(static_cast<u128>(a) << shift));
        case BinaryOp::Shr: {
            if (shift >= t.width) {
                return panics("attempt to shift right with overflow");
            }
            // Floor division by 2^shift (arithmetic for signed values).
            const i128 divisor = i128{1} << shift;
            i128 q = a / divisor;
            if (a % divisor != 0 && a < 0) --q;
            return value_of(t, q);
        }
        case BinaryOp::BitAnd:
            return value_of(t, t.value(t.bits(a) & t.bits(b)));
        case BinaryOp::BitOr:
            return value_of(t, t.value(t.bits(a) | t.bits(b)));
        case BinaryOp::BitXor:
            return value_of(t, t.value(t.bits(a) ^ t.bits(b)));
        case BinaryOp::Eq: return boolean(a == b);
        case BinaryOp::Ne: return boolean(a != b);
        case BinaryOp::Lt: return boolean(a < b);
        case BinaryOp::Le: return boolean(a <= b);
        case BinaryOp::Gt: return boolean(a > b);
        case BinaryOp::Ge: return boolean(a >= b);
        case BinaryOp::And:
        case BinaryOp::Or:
            break;
    }
    return panics("unreachable");
}

/// Where a kernel call is made; a recorded panic must carry it.
const support::SourceSpan kSite{40, 52, 7, 3};

/// What the kernel recorded, if anything, on a fresh FaultRecord: a Panic
/// at kSite with the neutral result 0, or else a message naming what was
/// recorded instead (which then matches no reference outcome).
std::optional<std::string> recorded_panic(FaultRecord& faults,
                                          const Value& result) {
    const std::optional<Finding> finding = faults.take();
    if (!finding) return std::nullopt;
    if (finding->category == UbCategory::Panic && finding->span.begin == kSite.begin &&
        finding->span.end == kSite.end && finding->span.line == kSite.line &&
        finding->span.column == kSite.column && result.bits() == 0) {
        return finding->message;
    }
    return "recorded " + finding->to_string() + " with result " +
           std::to_string(result.bits());
}

template <typename Eval>
Outcome run_kernel(Eval eval) {
    FaultRecord faults;
    const Value result = eval(faults);
    if (std::optional<std::string> message = recorded_panic(faults, result)) {
        return {true, *message, 0};
    }
    return {false, "", result.bits()};
}

const std::vector<BinaryOp> kOps = {
    BinaryOp::Add,    BinaryOp::Sub,   BinaryOp::Mul,    BinaryOp::Div,
    BinaryOp::Rem,    BinaryOp::Eq,    BinaryOp::Ne,     BinaryOp::Lt,
    BinaryOp::Le,     BinaryOp::Gt,    BinaryOp::Ge,     BinaryOp::BitAnd,
    BinaryOp::BitOr,  BinaryOp::BitXor, BinaryOp::Shl,   BinaryOp::Shr,
};

std::string to_string(i128 v) {
    if (v == 0) return "0";
    const bool negative = v < 0;
    u128 magnitude = negative ? static_cast<u128>(-(v + 1)) + 1 : static_cast<u128>(v);
    std::string digits;
    while (magnitude != 0) {
        digits.insert(digits.begin(), static_cast<char>('0' + magnitude % 10));
        magnitude /= 10;
    }
    return negative ? "-" + digits : digits;
}

/// Collects mismatches; reports the first few and the total.
class Mismatches {
  public:
    /// `what()` names the case; it runs only on a mismatch.
    template <typename What>
    void check(const Outcome& want, const Outcome& got, What what) {
        if (want == got) return;
        if (count_++ < 10) {
            report_ << what() << ": want " << describe(want) << ", got "
                    << describe(got) << "\n";
        }
    }
    ~Mismatches() {
        EXPECT_EQ(count_, 0u) << report_.str();
    }

  private:
    std::size_t count_ = 0;
    std::ostringstream report_;
};

void check_binary_ops(const IntType& t) {
    const Type type = t.type();
    const Type boolean_type = Type::boolean();
    const std::vector<i128> values = values_of(t);
    Mismatches mismatches;
    for (const BinaryOp op : kOps) {
        const bool compares = op == BinaryOp::Eq || op == BinaryOp::Ne ||
                              op == BinaryOp::Lt || op == BinaryOp::Le ||
                              op == BinaryOp::Gt || op == BinaryOp::Ge;
        const Type& result_type = compares ? boolean_type : type;
        for (const i128 a : values) {
            const Value lhs = Value::scalar(t.bits(a));
            for (const i128 b : values) {
                const Value rhs = Value::scalar(t.bits(b));
                mismatches.check(
                    reference_binary(op, t, a, b), run_kernel([&](FaultRecord& faults) {
                        return binary_op(faults, op, result_type, type, kSite,
                                         lhs, rhs);
                    }),
                    [&] {
                        return type.to_string() + " " + to_string(a) + " op#" +
                               std::to_string(static_cast<int>(op)) + " " +
                               to_string(b);
                    });
            }
        }
    }
}

void check_unary_ops(const IntType& t) {
    const Type type = t.type();
    Mismatches mismatches;
    for (const i128 a : values_of(t)) {
        const Value operand = Value::scalar(t.bits(a));
        if (t.is_signed) {
            const Outcome want = a == t.min()
                                     ? panics("attempt to negate with overflow")
                                     : value_of(t, -a);
            mismatches.check(want,
                             run_kernel([&](FaultRecord& faults) {
                                 return negate(faults, operand, type, kSite);
                             }),
                             [&] { return "-" + to_string(a) + " as " + type.to_string(); });
        }
        // !a == -a - 1 on every two's-complement width.
        mismatches.check(value_of(t, -a - 1),
                         run_kernel([&](FaultRecord&) { return bitwise_not(operand, type); }),
                         [&] { return "!" + to_string(a) + " as " + type.to_string(); });
    }
}

TEST(MiriScalarTest, EveryBinaryOpOnEveryU8Pair) { check_binary_ops(kU8); }

TEST(MiriScalarTest, EveryBinaryOpOnEveryI8Pair) { check_binary_ops(kI8); }

TEST(MiriScalarTest, EveryBinaryOpOnWideBoundaryPairs) {
    for (const IntType& t : kWideTypes) {
        SCOPED_TRACE(t.type().to_string());
        check_binary_ops(t);
    }
}

TEST(MiriScalarTest, NegationAndBitwiseNotOnEveryWidth) {
    for (const IntType& t : kAllTypes) {
        SCOPED_TRACE(t.type().to_string());
        check_unary_ops(t);
    }
}

TEST(MiriScalarTest, IntCastsWrapModuloTheTargetWidth) {
    Mismatches mismatches;
    for (const IntType& source : kAllTypes) {
        for (const i128 v : values_of(source)) {
            const Value operand = Value::scalar(source.bits(v));
            for (const IntType& target : kAllTypes) {
                // Rust: the value modulo 2^width, read in the target's
                // signedness.
                const Type target_type = target.type();
                mismatches.check(
                    value_of(target, v), run_kernel([&](FaultRecord&) {
                        return int_cast(operand, source.is_signed,
                                        source.width / 8, target_type);
                    }),
                    [&] {
                        return to_string(v) + " as " + source.type().to_string() +
                               " as " + target_type.to_string();
                    });
            }
        }
    }
    for (const IntType& target : kAllTypes) {
        for (const bool b : {false, true}) {
            mismatches.check(value_of(target, b ? 1 : 0), run_kernel([&](FaultRecord&) {
                                 return int_cast(Value::boolean(b), false, 1,
                                                 target.type());
                             }),
                             [&] {
                                 return std::string(b ? "true" : "false") + " as " +
                                        target.type().to_string();
                             });
        }
    }
}

TEST(MiriScalarTest, CastsAreClassifiedByTheirStaticTypes) {
    lang::TypePool pool;
    const Type i32 = Type::i32();
    const Type raw = pool.raw_ptr(i32, /*is_mut=*/true);
    const Type ref = pool.reference(i32, /*is_mut=*/false);
    const Type fn = pool.fn_ptr({}, Type::unit());
    EXPECT_EQ(classify_cast(i32, Type::u8()), CastKind::IntFromInt);
    EXPECT_EQ(classify_cast(Type::boolean(), i32), CastKind::IntFromInt);
    EXPECT_EQ(classify_cast(i32, raw), CastKind::IntToRawPtr);
    EXPECT_EQ(classify_cast(raw, Type::usize()), CastKind::PtrToInt);
    EXPECT_EQ(classify_cast(ref, Type::usize()), CastKind::PtrToInt);
    EXPECT_EQ(classify_cast(raw, raw), CastKind::RawToRaw);
    EXPECT_EQ(classify_cast(ref, raw), CastKind::RefToRaw);
    EXPECT_EQ(classify_cast(fn, Type::usize()), CastKind::FnToInt);
    EXPECT_EQ(classify_cast(Type::usize(), fn), CastKind::IntToFn);
    EXPECT_EQ(classify_cast(fn, fn), CastKind::FnToFn);
    EXPECT_EQ(classify_cast(i32, Type::boolean()), CastKind::Unsupported);
}

TEST(MiriScalarTest, IndexChecksPanicWithRustsMessage) {
    FaultRecord faults;
    EXPECT_TRUE(check_index(faults, 2, 3, kSite));
    EXPECT_FALSE(faults.raised());
    EXPECT_FALSE(check_index(faults, 3, 3, kSite)) << "index 3 of 3 must panic";
    EXPECT_EQ(recorded_panic(faults, Value::scalar(0)),
              "index out of bounds: the len is 3 but the index is 3");
}

}  // namespace
}  // namespace rustbrain::miri
