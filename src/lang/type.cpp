#include "lang/type.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>

namespace rustbrain::lang {

namespace {

std::atomic<std::size_t> g_live_pools{0};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    // hash_combine, then splitmix64's mixing steps.
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return h;
}

std::uint64_t node_bits(const Type& type) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(type.node()));
}

}  // namespace

ScalarNodes::ScalarNodes() {
    for (std::size_t i = 0; i < kScalarKindCount; ++i) {
        const auto kind = static_cast<ScalarKind>(i);
        TypeNode& node = nodes[i];
        node.scalar = kind;
        node.size = scalar_size_bytes(kind);
        node.align = node.size == 0 ? 1 : static_cast<std::uint32_t>(node.size);
        node.spelling = scalar_kind_name(kind);
    }
}

const Type& Type::element() const {
    if (node_->kind != Kind::RawPtr && node_->kind != Kind::Ref &&
        node_->kind != Kind::Array) {
        throw std::logic_error("Type::element on type without element: " + to_string());
    }
    return node_->element;
}

const std::vector<Type>& Type::fn_params() const {
    if (node_->kind != Kind::FnPtr) {
        throw std::logic_error("Type::fn_params on non-fn type");
    }
    return node_->params;
}

const Type& Type::fn_return() const {
    if (node_->kind != Kind::FnPtr) {
        throw std::logic_error("Type::fn_return on non-fn type");
    }
    return node_->ret;
}

bool structurally_equal(const Type& a, const Type& b) {
    if (a.node() == b.node()) return true;
    if (a.kind() != b.kind()) return false;
    switch (a.kind()) {
        case Type::Kind::Scalar:
            return a.scalar_kind() == b.scalar_kind();
        case Type::Kind::RawPtr:
        case Type::Kind::Ref:
            return a.is_mut() == b.is_mut() && a.element() == b.element();
        case Type::Kind::Array:
            return a.array_length() == b.array_length() && a.element() == b.element();
        case Type::Kind::FnPtr: {
            const auto& pa = a.fn_params();
            const auto& pb = b.fn_params();
            if (pa.size() != pb.size()) return false;
            for (std::size_t i = 0; i < pa.size(); ++i) {
                if (!(pa[i] == pb[i])) return false;
            }
            return a.fn_return() == b.fn_return();
        }
    }
    return false;
}

// --------------------------------------------------------------------------
// TypePool
// --------------------------------------------------------------------------

namespace {

/// Hash of a composite shape over its children's node addresses (children
/// are already canonical in the pool being probed).
std::uint64_t shape_hash(Type::Kind kind, bool is_mut, const Type& element,
                         std::uint64_t length, const std::vector<Type>& params,
                         const Type& ret) {
    std::uint64_t hash = mix(static_cast<std::uint64_t>(kind), is_mut ? 1 : 0);
    if (kind != Type::Kind::FnPtr) return mix(mix(hash, node_bits(element)), length);
    for (const Type& param : params) hash = mix(hash, node_bits(param));
    return mix(mix(hash, params.size()), node_bits(ret));
}

std::uint64_t shape_hash(const TypeNode& node) {
    return shape_hash(node.kind, node.is_mut, node.element, node.array_len,
                      node.params, node.ret);
}

bool same_shape(const TypeNode& node, Type::Kind kind, bool is_mut,
                const Type& element, std::uint64_t length,
                const std::vector<Type>& params, const Type& ret) {
    if (node.kind != kind || node.is_mut != is_mut) return false;
    if (kind != Type::Kind::FnPtr) {
        return node.element.node() == element.node() && node.array_len == length;
    }
    if (node.ret.node() != ret.node() || node.params.size() != params.size()) {
        return false;
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (node.params[i].node() != params[i].node()) return false;
    }
    return true;
}

}  // namespace

TypePool::TypePool() { g_live_pools.fetch_add(1, std::memory_order_relaxed); }

TypePool::~TypePool() {
    for (TypeNode* node : slots_) delete node;
    g_live_pools.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t TypePool::live_pools() {
    return g_live_pools.load(std::memory_order_relaxed);
}

std::size_t TypePool::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

Type TypePool::raw_ptr(Type pointee, bool is_mut) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intern_locked(Type::Kind::RawPtr, is_mut, pointee, 0, {}, Type());
}

Type TypePool::reference(Type pointee, bool is_mut) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intern_locked(Type::Kind::Ref, is_mut, pointee, 0, {}, Type());
}

Type TypePool::array(Type element, std::uint64_t length) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intern_locked(Type::Kind::Array, false, element, length, {}, Type());
}

Type TypePool::fn_ptr(std::vector<Type> params, Type ret) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intern_locked(Type::Kind::FnPtr, false, Type(), 0, std::move(params), ret);
}

Type TypePool::adopt_locked(Type type) {
    const TypeNode& node = *type.node();
    if (node.pool == nullptr || node.pool == this) return type;
    return intern_locked(node.kind, node.is_mut, node.element, node.array_len,
                         node.params, node.ret);
}

void TypePool::grow_locked() {
    std::vector<TypeNode*> old = std::move(slots_);
    slots_.assign(old.empty() ? 4 : old.size() * 2, nullptr);
    const std::size_t mask = slots_.size() - 1;
    for (TypeNode* node : old) {
        if (node == nullptr) continue;
        std::size_t at = shape_hash(*node) & mask;
        while (slots_[at] != nullptr) at = (at + 1) & mask;
        slots_[at] = node;
    }
}

Type TypePool::intern_locked(Type::Kind kind, bool is_mut, Type element,
                             std::uint64_t length, std::vector<Type> params,
                             Type ret) {
    if (kind == Type::Kind::Scalar) {
        throw std::logic_error("TypePool: scalars are not interned");
    }
    if (kind != Type::Kind::FnPtr) {
        element = adopt_locked(element);
    } else {
        for (Type& param : params) param = adopt_locked(param);
        ret = adopt_locked(ret);
    }

    const std::uint64_t hash = shape_hash(kind, is_mut, element, length, params, ret);
    if (!slots_.empty()) {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t at = hash & mask; slots_[at] != nullptr; at = (at + 1) & mask) {
            if (same_shape(*slots_[at], kind, is_mut, element, length, params, ret)) {
                return Type(slots_[at]);
            }
        }
    }
    // At most three quarters full, so every probe ends at an empty slot.
    if ((count_ + 1) * 4 > slots_.size() * 3) grow_locked();

    auto node = std::make_unique<TypeNode>();
    node->kind = kind;
    node->is_mut = is_mut;
    node->pool = this;
    switch (kind) {
        case Type::Kind::RawPtr:
            node->element = element;
            node->size = 8;
            node->align = 8;
            node->spelling = std::string("*") + (is_mut ? "mut " : "const ") +
                             element.to_string();
            break;
        case Type::Kind::Ref:
            node->element = element;
            node->size = 8;
            node->align = 8;
            node->spelling =
                std::string("&") + (is_mut ? "mut " : "") + element.to_string();
            break;
        case Type::Kind::Array:
            node->element = element;
            node->array_len = length;
            node->size = length * element.size_bytes();
            node->align = static_cast<std::uint32_t>(element.align_bytes());
            node->spelling =
                "[" + element.to_string() + "; " + std::to_string(length) + "]";
            break;
        case Type::Kind::FnPtr:
            node->size = 8;
            node->align = 8;
            node->spelling = fn_ptr_spelling(params, ret);
            node->params = std::move(params);
            node->ret = ret;
            break;
        case Type::Kind::Scalar:
            break;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = hash & mask;
    while (slots_[at] != nullptr) at = (at + 1) & mask;
    slots_[at] = node.release();
    ++count_;
    return Type(slots_[at]);
}

std::string fn_ptr_spelling(const std::vector<Type>& params, const Type& ret) {
    std::string out = "fn(";
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i != 0) out += ", ";
        out += params[i].to_string();
    }
    out += ")";
    if (!ret.is_unit()) {
        out += " -> ";
        out += ret.to_string();
    }
    return out;
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

}  // namespace rustbrain::lang
