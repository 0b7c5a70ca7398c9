// mini-Rust type system. A Type is a pointer-sized, trivially copyable
// handle to an immutable, hash-consed node (DESIGN.md §18). The twelve
// scalar types are static nodes shared by the whole process; every
// composite type (raw pointer, reference, array, fn pointer) is interned in
// the TypePool of the Program that names it, so a Type must not outlive its
// Program. Within one pool equal types share one node, so equality is a
// pointer compare; types from two pools compare structurally.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rustbrain::lang {

enum class ScalarKind : std::uint8_t {
    I8, I16, I32, I64,
    U8, U16, U32, U64,
    Isize, Usize,
    Bool,
    Unit,
};

inline constexpr std::size_t kScalarKindCount = 12;

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

class TypePool;
struct TypeNode;

class Type {
  public:
    enum class Kind : std::uint8_t { Scalar, RawPtr, Ref, Array, FnPtr };

    Type();  // unit

    // Scalar factories (composite types come from a TypePool) -------------
    static Type scalar(ScalarKind kind);
    static Type unit() { return scalar(ScalarKind::Unit); }
    static Type boolean() { return scalar(ScalarKind::Bool); }
    static Type i32() { return scalar(ScalarKind::I32); }
    static Type i64() { return scalar(ScalarKind::I64); }
    static Type u8() { return scalar(ScalarKind::U8); }
    static Type usize() { return scalar(ScalarKind::Usize); }

    // Inspectors ----------------------------------------------------------
    [[nodiscard]] Kind kind() const;
    [[nodiscard]] bool is_scalar() const { return kind() == Kind::Scalar; }
    [[nodiscard]] bool is_unit() const {
        return is_scalar() && scalar_kind() == ScalarKind::Unit;
    }
    [[nodiscard]] bool is_bool() const {
        return is_scalar() && scalar_kind() == ScalarKind::Bool;
    }
    [[nodiscard]] bool is_integer() const {
        return is_scalar() && scalar_kind() != ScalarKind::Bool &&
               scalar_kind() != ScalarKind::Unit;
    }
    [[nodiscard]] bool is_signed_integer() const {
        if (!is_scalar()) return false;
        switch (scalar_kind()) {
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
    [[nodiscard]] bool is_raw_ptr() const { return kind() == Kind::RawPtr; }
    [[nodiscard]] bool is_ref() const { return kind() == Kind::Ref; }
    [[nodiscard]] bool is_any_pointer() const { return is_raw_ptr() || is_ref(); }
    [[nodiscard]] bool is_array() const { return kind() == Kind::Array; }
    [[nodiscard]] bool is_fn_ptr() const { return kind() == Kind::FnPtr; }

    [[nodiscard]] ScalarKind scalar_kind() const;
    /// Pointee of a pointer/reference, element of an array.
    [[nodiscard]] const Type& element() const;
    [[nodiscard]] bool is_mut() const;
    [[nodiscard]] std::uint64_t array_length() const;
    [[nodiscard]] const std::vector<Type>& fn_params() const;
    [[nodiscard]] const Type& fn_return() const;

    /// Byte size (unit = 0; pointers = 8).
    [[nodiscard]] std::uint64_t size_bytes() const;
    /// Alignment requirement in bytes (>= 1 even for unit).
    [[nodiscard]] std::uint64_t align_bytes() const;

    /// The surface spelling, e.g. "*mut [i32; 4]", stored on the node.
    [[nodiscard]] const std::string& to_string() const;

    /// The interned node. Two types of one pool are equal exactly when
    /// their nodes are, so the node is a sound identity key within one
    /// program.
    [[nodiscard]] const TypeNode* node() const { return node_; }

    bool operator==(const Type& other) const;
    bool operator!=(const Type& other) const { return !(*this == other); }

  private:
    friend class TypePool;
    friend struct TypeNode;
    friend struct ScalarNodes;
    explicit Type(const TypeNode* node) : node_(node) {}

    const TypeNode* node_;
};

static_assert(sizeof(Type) == sizeof(void*), "Type is one pointer");
static_assert(std::is_trivially_copyable_v<Type>, "Type copies without refcounts");
static_assert(std::is_trivially_destructible_v<Type>, "Type owns nothing");

/// One interned type: its structure plus the size, alignment and spelling
/// computed once when it was interned. Immutable after interning, so
/// reading it never locks.
struct TypeNode {
    Type::Kind kind = Type::Kind::Scalar;
    ScalarKind scalar = ScalarKind::Unit;  // Unit for composite kinds
    bool is_mut = false;                   // RawPtr / Ref mutability
    std::uint32_t align = 1;
    std::uint64_t size = 0;
    std::uint64_t array_len = 0;  // Kind::Array
    // The child handles start null (not unit) so that building the static
    // scalar table never reads the table it builds.
    Type element{nullptr};        // pointee / array element
    Type ret{nullptr};            // Kind::FnPtr
    const TypePool* pool = nullptr;  // owner; null for the static scalars
    std::vector<Type> params;     // Kind::FnPtr
    std::string spelling;
};

/// The twelve process-wide scalar nodes, in ScalarKind order.
struct ScalarNodes {
    ScalarNodes();
    TypeNode nodes[kScalarKindCount];

    static const TypeNode* get() {
        static const ScalarNodes table;
        return table.nodes;
    }
};

/// Compares two types by structure, whatever pools they come from.
bool structurally_equal(const Type& a, const Type& b);

inline Type::Type() : node_(ScalarNodes::get() + static_cast<int>(ScalarKind::Unit)) {}
inline Type Type::scalar(ScalarKind kind) {
    return Type(ScalarNodes::get() + static_cast<int>(kind));
}
inline Type::Kind Type::kind() const { return node_->kind; }
inline ScalarKind Type::scalar_kind() const { return node_->scalar; }
inline bool Type::is_mut() const { return node_->is_mut; }
inline std::uint64_t Type::array_length() const { return node_->array_len; }
inline std::uint64_t Type::size_bytes() const { return node_->size; }
inline std::uint64_t Type::align_bytes() const { return node_->align; }
inline const std::string& Type::to_string() const { return node_->spelling; }
inline bool Type::operator==(const Type& other) const {
    if (node_ == other.node_) return true;
    // Scalars are unique process-wide and one pool never holds two equal
    // nodes, so only types from two different pools need a structural look.
    const TypePool* a = node_->pool;
    const TypePool* b = other.node_->pool;
    return a != nullptr && b != nullptr && a != b && structurally_equal(*this, other);
}

/// Hash-conses the composite types of one program (and of its clones, which
/// share it through Program::type_pool). Interning locks the pool's mutex;
/// the returned handles stay valid until the pool is destroyed. A child
/// from another pool is re-interned here first, so no node of this pool
/// ever points into another.
class TypePool {
  public:
    TypePool();
    ~TypePool();
    TypePool(const TypePool&) = delete;
    TypePool& operator=(const TypePool&) = delete;

    Type raw_ptr(Type pointee, bool is_mut);
    Type reference(Type pointee, bool is_mut);
    Type array(Type element, std::uint64_t length);
    Type fn_ptr(std::vector<Type> params, Type ret);

    /// Composite nodes interned so far.
    [[nodiscard]] std::size_t size() const;
    /// Pools alive in this process (tests check that dropping programs
    /// frees their pools).
    static std::size_t live_pools();

  private:
    Type intern_locked(Type::Kind kind, bool is_mut, Type element,
                       std::uint64_t length, std::vector<Type> params, Type ret);
    Type adopt_locked(Type type);
    void grow_locked();

    // Programs name a handful of composite types (DESIGN.md §18), so the
    // pool is kept small: one open-addressed table of owned nodes, no side
    // index.
    mutable std::mutex mutex_;
    std::vector<TypeNode*> slots_;  // power-of-two size; null = empty
    std::size_t count_ = 0;
};

/// "fn(A, B) -> R", the spelling of a fn-pointer type (" -> ()" omitted).
std::string fn_ptr_spelling(const std::vector<Type>& params, const Type& ret);

const char* scalar_kind_name(ScalarKind kind);
/// Parse "i32" etc.; returns false if the name is not a scalar type.
bool scalar_kind_from_name(std::string_view name, ScalarKind& out);

}  // namespace rustbrain::lang
