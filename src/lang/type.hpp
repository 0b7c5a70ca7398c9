// mini-Rust type system. Types are values with shared immutable sub-terms,
// so they can be copied freely and compared structurally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rustbrain::lang {

enum class ScalarKind {
    I8, I16, I32, I64,
    U8, U16, U32, U64,
    Isize, Usize,
    Bool,
    Unit,
};

inline std::uint64_t scalar_size_bytes(ScalarKind kind) {
    switch (kind) {
        case ScalarKind::I8:
        case ScalarKind::U8:
        case ScalarKind::Bool:
            return 1;
        case ScalarKind::I16:
        case ScalarKind::U16:
            return 2;
        case ScalarKind::I32:
        case ScalarKind::U32:
            return 4;
        case ScalarKind::I64:
        case ScalarKind::U64:
        case ScalarKind::Isize:
        case ScalarKind::Usize:
            return 8;
        case ScalarKind::Unit:
            return 0;
    }
    return 0;
}

class Type {
  public:
    enum class Kind { Scalar, RawPtr, Ref, Array, FnPtr };

    Type() : kind_(Kind::Scalar), scalar_(ScalarKind::Unit) {}

    // Factories -----------------------------------------------------------
    static Type scalar(ScalarKind kind);
    static Type unit() { return scalar(ScalarKind::Unit); }
    static Type boolean() { return scalar(ScalarKind::Bool); }
    static Type i32() { return scalar(ScalarKind::I32); }
    static Type i64() { return scalar(ScalarKind::I64); }
    static Type u8() { return scalar(ScalarKind::U8); }
    static Type usize() { return scalar(ScalarKind::Usize); }
    static Type raw_ptr(Type pointee, bool is_mut);
    static Type reference(Type pointee, bool is_mut);
    static Type array(Type element, std::uint64_t length);
    static Type fn_ptr(std::vector<Type> params, Type ret);

    // Inspectors ----------------------------------------------------------
    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_scalar() const { return kind_ == Kind::Scalar; }
    [[nodiscard]] bool is_unit() const {
        return is_scalar() && scalar_ == ScalarKind::Unit;
    }
    [[nodiscard]] bool is_bool() const {
        return is_scalar() && scalar_ == ScalarKind::Bool;
    }
    [[nodiscard]] bool is_integer() const {
        return is_scalar() && scalar_ != ScalarKind::Bool &&
               scalar_ != ScalarKind::Unit;
    }
    [[nodiscard]] bool is_signed_integer() const {
        if (!is_scalar()) return false;
        switch (scalar_) {
            case ScalarKind::I8:
            case ScalarKind::I16:
            case ScalarKind::I32:
            case ScalarKind::I64:
            case ScalarKind::Isize:
                return true;
            default:
                return false;
        }
    }
    [[nodiscard]] bool is_raw_ptr() const { return kind_ == Kind::RawPtr; }
    [[nodiscard]] bool is_ref() const { return kind_ == Kind::Ref; }
    [[nodiscard]] bool is_any_pointer() const { return is_raw_ptr() || is_ref(); }
    [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
    [[nodiscard]] bool is_fn_ptr() const { return kind_ == Kind::FnPtr; }

    [[nodiscard]] ScalarKind scalar_kind() const { return scalar_; }
    /// Pointee of a pointer/reference, element of an array.
    [[nodiscard]] const Type& element() const;
    [[nodiscard]] bool is_mut() const { return mutable_; }
    [[nodiscard]] std::uint64_t array_length() const { return array_len_; }
    [[nodiscard]] const std::vector<Type>& fn_params() const;
    [[nodiscard]] const Type& fn_return() const;

    /// Byte size (unit = 0; pointers = 8).
    [[nodiscard]] std::uint64_t size_bytes() const {
        switch (kind_) {
            case Kind::Scalar:
                return scalar_size_bytes(scalar_);
            case Kind::RawPtr:
            case Kind::Ref:
            case Kind::FnPtr:
                return 8;
            case Kind::Array:
                return array_len_ * element_->size_bytes();
        }
        return 0;
    }
    /// Alignment requirement in bytes (>= 1 even for unit).
    [[nodiscard]] std::uint64_t align_bytes() const {
        switch (kind_) {
            case Kind::Scalar: {
                const std::uint64_t size = scalar_size_bytes(scalar_);
                return size == 0 ? 1 : size;
            }
            case Kind::RawPtr:
            case Kind::Ref:
            case Kind::FnPtr:
                return 8;
            case Kind::Array:
                return element_->align_bytes();
        }
        return 1;
    }

    [[nodiscard]] std::string to_string() const;

    bool operator==(const Type& other) const;
    bool operator!=(const Type& other) const { return !(*this == other); }

  private:
    Kind kind_;
    ScalarKind scalar_ = ScalarKind::Unit;  // valid when Kind::Scalar
    bool mutable_ = false;                  // RawPtr / Ref mutability
    std::shared_ptr<const Type> element_;   // pointee / array element
    std::uint64_t array_len_ = 0;           // Kind::Array
    std::shared_ptr<const std::vector<Type>> params_;  // Kind::FnPtr
    std::shared_ptr<const Type> ret_;                  // Kind::FnPtr
};

const char* scalar_kind_name(ScalarKind kind);
/// Parse "i32" etc.; returns false if the name is not a scalar type.
bool scalar_kind_from_name(std::string_view name, ScalarKind& out);

}  // namespace rustbrain::lang
