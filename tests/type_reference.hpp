// The value-type lang::Type that the interned handle replaced: a type is a
// value with shared immutable sub-terms, compared structurally, its size,
// alignment and spelling computed on every call. Kept as the oracle for
// lang_type_test.cpp: for every type the corpora name, the interned
// handle must report the same kind, size, alignment and spelling, and the
// same equality against every other type.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lang/type.hpp"

namespace rustbrain::lang::reference {

class Type {
  public:
    using Kind = lang::Type::Kind;

    Type() = default;

    static Type scalar(ScalarKind kind) {
        Type t;
        t.scalar_ = kind;
        return t;
    }
    static Type raw_ptr(Type pointee, bool is_mut) {
        return pointer(Kind::RawPtr, std::move(pointee), is_mut);
    }
    static Type reference(Type pointee, bool is_mut) {
        return pointer(Kind::Ref, std::move(pointee), is_mut);
    }
    static Type array(Type element, std::uint64_t length) {
        Type t;
        t.kind_ = Kind::Array;
        t.array_len_ = length;
        t.element_ = std::make_shared<const Type>(std::move(element));
        return t;
    }
    static Type fn_ptr(std::vector<Type> params, Type ret) {
        Type t;
        t.kind_ = Kind::FnPtr;
        t.params_ = std::make_shared<const std::vector<Type>>(std::move(params));
        t.ret_ = std::make_shared<const Type>(std::move(ret));
        return t;
    }

    /// The same type rebuilt from an interned handle's structure.
    static Type from(const lang::Type& type) {
        switch (type.kind()) {
            case Kind::Scalar:
                return scalar(type.scalar_kind());
            case Kind::RawPtr:
                return raw_ptr(from(type.element()), type.is_mut());
            case Kind::Ref:
                return reference(from(type.element()), type.is_mut());
            case Kind::Array:
                return array(from(type.element()), type.array_length());
            case Kind::FnPtr: {
                std::vector<Type> params;
                for (const lang::Type& param : type.fn_params()) {
                    params.push_back(from(param));
                }
                return fn_ptr(std::move(params), from(type.fn_return()));
            }
        }
        return Type();
    }

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_unit() const {
        return kind_ == Kind::Scalar && scalar_ == ScalarKind::Unit;
    }

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

    [[nodiscard]] std::string to_string() const {
        switch (kind_) {
            case Kind::Scalar:
                return scalar_kind_name(scalar_);
            case Kind::RawPtr:
                return std::string("*") + (mutable_ ? "mut " : "const ") +
                       element_->to_string();
            case Kind::Ref:
                return std::string("&") + (mutable_ ? "mut " : "") +
                       element_->to_string();
            case Kind::Array:
                return "[" + element_->to_string() + "; " +
                       std::to_string(array_len_) + "]";
            case Kind::FnPtr: {
                std::string out = "fn(";
                for (std::size_t i = 0; i < params_->size(); ++i) {
                    if (i != 0) out += ", ";
                    out += (*params_)[i].to_string();
                }
                out += ")";
                if (!ret_->is_unit()) out += " -> " + ret_->to_string();
                return out;
            }
        }
        return "?";
    }

    bool operator==(const Type& other) const {
        if (kind_ != other.kind_) return false;
        switch (kind_) {
            case Kind::Scalar:
                return scalar_ == other.scalar_;
            case Kind::RawPtr:
            case Kind::Ref:
                return mutable_ == other.mutable_ && *element_ == *other.element_;
            case Kind::Array:
                return array_len_ == other.array_len_ &&
                       *element_ == *other.element_;
            case Kind::FnPtr: {
                if (params_->size() != other.params_->size()) return false;
                for (std::size_t i = 0; i < params_->size(); ++i) {
                    if (!((*params_)[i] == (*other.params_)[i])) return false;
                }
                return *ret_ == *other.ret_;
            }
        }
        return false;
    }

  private:
    static Type pointer(Kind kind, Type pointee, bool is_mut) {
        Type t;
        t.kind_ = kind;
        t.mutable_ = is_mut;
        t.element_ = std::make_shared<const Type>(std::move(pointee));
        return t;
    }

    Kind kind_ = Kind::Scalar;
    ScalarKind scalar_ = ScalarKind::Unit;
    bool mutable_ = false;
    std::shared_ptr<const Type> element_;
    std::uint64_t array_len_ = 0;
    std::shared_ptr<const std::vector<Type>> params_;
    std::shared_ptr<const Type> ret_;
};

}  // namespace rustbrain::lang::reference
