#include "lang/type.hpp"

#include <stdexcept>

namespace rustbrain::lang {

Type Type::scalar(ScalarKind kind) {
    Type t;
    t.kind_ = Kind::Scalar;
    t.scalar_ = kind;
    return t;
}

Type Type::raw_ptr(Type pointee, bool is_mut) {
    Type t;
    t.kind_ = Kind::RawPtr;
    t.mutable_ = is_mut;
    t.element_ = std::make_shared<const Type>(std::move(pointee));
    return t;
}

Type Type::reference(Type pointee, bool is_mut) {
    Type t;
    t.kind_ = Kind::Ref;
    t.mutable_ = is_mut;
    t.element_ = std::make_shared<const Type>(std::move(pointee));
    return t;
}

Type Type::array(Type element, std::uint64_t length) {
    Type t;
    t.kind_ = Kind::Array;
    t.array_len_ = length;
    t.element_ = std::make_shared<const Type>(std::move(element));
    return t;
}

Type Type::fn_ptr(std::vector<Type> params, Type ret) {
    Type t;
    t.kind_ = Kind::FnPtr;
    t.params_ = std::make_shared<const std::vector<Type>>(std::move(params));
    t.ret_ = std::make_shared<const Type>(std::move(ret));
    return t;
}

const Type& Type::element() const {
    if (!element_) {
        throw std::logic_error("Type::element on type without element: " + to_string());
    }
    return *element_;
}

const std::vector<Type>& Type::fn_params() const {
    if (!params_) {
        throw std::logic_error("Type::fn_params on non-fn type");
    }
    return *params_;
}

const Type& Type::fn_return() const {
    if (!ret_) {
        throw std::logic_error("Type::fn_return on non-fn type");
    }
    return *ret_;
}

const char* scalar_kind_name(ScalarKind kind) {
    switch (kind) {
        case ScalarKind::I8: return "i8";
        case ScalarKind::I16: return "i16";
        case ScalarKind::I32: return "i32";
        case ScalarKind::I64: return "i64";
        case ScalarKind::U8: return "u8";
        case ScalarKind::U16: return "u16";
        case ScalarKind::U32: return "u32";
        case ScalarKind::U64: return "u64";
        case ScalarKind::Isize: return "isize";
        case ScalarKind::Usize: return "usize";
        case ScalarKind::Bool: return "bool";
        case ScalarKind::Unit: return "()";
    }
    return "?";
}

bool scalar_kind_from_name(std::string_view name, ScalarKind& out) {
    static const struct {
        const char* name;
        ScalarKind kind;
    } table[] = {
        {"i8", ScalarKind::I8},       {"i16", ScalarKind::I16},
        {"i32", ScalarKind::I32},     {"i64", ScalarKind::I64},
        {"u8", ScalarKind::U8},       {"u16", ScalarKind::U16},
        {"u32", ScalarKind::U32},     {"u64", ScalarKind::U64},
        {"isize", ScalarKind::Isize}, {"usize", ScalarKind::Usize},
        {"bool", ScalarKind::Bool},
    };
    for (const auto& entry : table) {
        if (name == entry.name) {
            out = entry.kind;
            return true;
        }
    }
    return false;
}

std::string Type::to_string() const {
    switch (kind_) {
        case Kind::Scalar:
            return scalar_kind_name(scalar_);
        case Kind::RawPtr:
            return std::string("*") + (mutable_ ? "mut " : "const ") +
                   element().to_string();
        case Kind::Ref:
            return std::string("&") + (mutable_ ? "mut " : "") + element().to_string();
        case Kind::Array:
            return "[" + element().to_string() + "; " + std::to_string(array_len_) + "]";
        case Kind::FnPtr: {
            std::string out = "fn(";
            const auto& params = fn_params();
            for (std::size_t i = 0; i < params.size(); ++i) {
                if (i != 0) out += ", ";
                out += params[i].to_string();
            }
            out += ")";
            if (!fn_return().is_unit()) {
                out += " -> " + fn_return().to_string();
            }
            return out;
        }
    }
    return "?";
}

bool Type::operator==(const Type& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
        case Kind::Scalar:
            return scalar_ == other.scalar_;
        case Kind::RawPtr:
        case Kind::Ref:
            return mutable_ == other.mutable_ && element() == other.element();
        case Kind::Array:
            return array_len_ == other.array_len_ && element() == other.element();
        case Kind::FnPtr: {
            if (fn_params().size() != other.fn_params().size()) return false;
            for (std::size_t i = 0; i < fn_params().size(); ++i) {
                if (!(fn_params()[i] == other.fn_params()[i])) return false;
            }
            return fn_return() == other.fn_return();
        }
    }
    return false;
}

}  // namespace rustbrain::lang
