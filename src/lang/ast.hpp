// mini-Rust abstract syntax tree.
//
// Nodes are a polymorphic hierarchy owned through unique_ptr. Every node can
// deep-clone itself (repair agents patch clones, the rollback agent snapshots
// whole programs) and supports structural equality (used by tests and by the
// knowledge base to deduplicate exemplars). Node ids are assigned by
// Program::renumber() and are stable for a given tree shape, which the
// pruning algorithm and patch rules use to address nodes. The type checker
// writes each expression's type and each name's Binding onto the nodes;
// every MiriLite tier reads both and runs only type-checked trees.
//
// The child order (DESIGN.md §3) is written down once, in for_each_child:
// source order, e.g. a Binary's lhs then rhs, an If's condition, then-block,
// else-block, a CallPtr's or Become's callee then its arguments. Each node
// comes before its children (pre-order), so the order renumber() gives ids
// in is the order every structural walk visits in (analysis::walk_program,
// rewrite_exprs, pruning, vectorizing), and it is MiriLite's evaluation
// order too, except that an assignment evaluates its value before its place.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "lang/type.hpp"
#include "support/source_span.hpp"

namespace rustbrain::lang {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNodeId = 0;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
    IntLit,
    BoolLit,
    VarRef,
    Unary,
    Binary,
    Cast,
    Index,
    Call,       // direct call: named function or intrinsic
    CallPtr,    // indirect call through a fn-pointer value
    ArrayLit,
    ArrayRepeat,
};

enum class UnaryOp { Neg, Not, Deref, AddrOf, AddrOfMut };

enum class BinaryOp {
    Add, Sub, Mul, Div, Rem,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or,             // short-circuit logical
    BitAnd, BitOr, BitXor,
    Shl, Shr,
};

struct Expr {
    explicit Expr(ExprKind k) : kind(k) {}
    virtual ~Expr() = default;
    Expr(const Expr&) = delete;
    Expr& operator=(const Expr&) = delete;

    [[nodiscard]] virtual std::unique_ptr<Expr> clone() const = 0;

    ExprKind kind;
    NodeId id = kInvalidNodeId;
    support::SourceSpan span;
    /// Filled by the type checker.
    Type type;
};

using ExprPtr = std::unique_ptr<Expr>;

/// What a name denotes, written by the type checker (DESIGN.md §4) and read
/// by every tier instead of a lookup. Valid only after type_check accepted
/// this exact tree.
struct Binding {
    enum class Kind : std::uint8_t {
        None,       // not bound: the tree was not (or not successfully) checked
        Local,      // index = frame slot
        Static,     // index = position in Program::statics
        Function,   // index = position in Program::functions
        Intrinsic,  // index = lang::IntrinsicId (call position only)
    };
    Kind kind = Kind::None;
    std::int32_t index = -1;

    bool operator==(const Binding& other) const {
        return kind == other.kind && index == other.index;
    }
};

struct IntLitExpr final : Expr {
    IntLitExpr() : Expr(ExprKind::IntLit) {}
    [[nodiscard]] ExprPtr clone() const override;

    std::uint64_t value = 0;
};

struct BoolLitExpr final : Expr {
    BoolLitExpr() : Expr(ExprKind::BoolLit) {}
    [[nodiscard]] ExprPtr clone() const override;

    bool value = false;
};

struct VarRefExpr final : Expr {
    VarRefExpr() : Expr(ExprKind::VarRef) {}
    [[nodiscard]] ExprPtr clone() const override;

    std::string name;
    /// Local, Static or Function.
    Binding binding;
};

struct UnaryExpr final : Expr {
    UnaryExpr() : Expr(ExprKind::Unary) {}
    [[nodiscard]] ExprPtr clone() const override;

    UnaryOp op = UnaryOp::Neg;
    ExprPtr operand;
};

struct BinaryExpr final : Expr {
    BinaryExpr() : Expr(ExprKind::Binary) {}
    [[nodiscard]] ExprPtr clone() const override;

    BinaryOp op = BinaryOp::Add;
    ExprPtr lhs;
    ExprPtr rhs;
};

struct CastExpr final : Expr {
    CastExpr() : Expr(ExprKind::Cast) {}
    [[nodiscard]] ExprPtr clone() const override;

    ExprPtr operand;
    Type target;
};

struct IndexExpr final : Expr {
    IndexExpr() : Expr(ExprKind::Index) {}
    [[nodiscard]] ExprPtr clone() const override;

    ExprPtr base;
    ExprPtr index;
};

struct CallExpr final : Expr {
    CallExpr() : Expr(ExprKind::Call) {}
    [[nodiscard]] ExprPtr clone() const override;

    std::string callee;
    std::vector<ExprPtr> args;
    /// Intrinsic, Local (a fn-pointer local) or Function.
    Binding binding;
};

struct CallPtrExpr final : Expr {
    CallPtrExpr() : Expr(ExprKind::CallPtr) {}
    [[nodiscard]] ExprPtr clone() const override;

    ExprPtr callee;
    std::vector<ExprPtr> args;
};

struct ArrayLitExpr final : Expr {
    ArrayLitExpr() : Expr(ExprKind::ArrayLit) {}
    [[nodiscard]] ExprPtr clone() const override;

    std::vector<ExprPtr> elements;
};

struct ArrayRepeatExpr final : Expr {
    ArrayRepeatExpr() : Expr(ExprKind::ArrayRepeat) {}
    [[nodiscard]] ExprPtr clone() const override;

    ExprPtr element;
    std::uint64_t count = 0;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
    Let,
    Assign,
    Expr,
    If,
    While,
    Return,
    Block,
    Unsafe,
    Become,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// A brace-delimited sequence of statements introducing a scope.
struct Block {
    std::vector<StmtPtr> statements;

    [[nodiscard]] Block clone() const;
};

struct Stmt {
    explicit Stmt(StmtKind k) : kind(k) {}
    virtual ~Stmt() = default;
    Stmt(const Stmt&) = delete;
    Stmt& operator=(const Stmt&) = delete;

    [[nodiscard]] virtual StmtPtr clone() const = 0;

    StmtKind kind;
    NodeId id = kInvalidNodeId;
    support::SourceSpan span;
};

struct LetStmt final : Stmt {
    LetStmt() : Stmt(StmtKind::Let) {}
    [[nodiscard]] StmtPtr clone() const override;

    std::string name;
    bool is_mut = false;
    std::optional<Type> declared_type;
    ExprPtr init;  // always present (mini-Rust requires initialization)
    /// The frame slot the binding lives in (type checker).
    std::int32_t slot = -1;
};

struct AssignStmt final : Stmt {
    AssignStmt() : Stmt(StmtKind::Assign) {}
    [[nodiscard]] StmtPtr clone() const override;

    ExprPtr place;
    ExprPtr value;
};

struct ExprStmt final : Stmt {
    ExprStmt() : Stmt(StmtKind::Expr) {}
    [[nodiscard]] StmtPtr clone() const override;

    ExprPtr expr;
};

struct IfStmt final : Stmt {
    IfStmt() : Stmt(StmtKind::If) {}
    [[nodiscard]] StmtPtr clone() const override;

    ExprPtr condition;
    Block then_block;
    std::optional<Block> else_block;
};

struct WhileStmt final : Stmt {
    WhileStmt() : Stmt(StmtKind::While) {}
    [[nodiscard]] StmtPtr clone() const override;

    ExprPtr condition;
    Block body;
};

struct ReturnStmt final : Stmt {
    ReturnStmt() : Stmt(StmtKind::Return) {}
    [[nodiscard]] StmtPtr clone() const override;

    ExprPtr value;  // null for `return;`
};

struct BlockStmt final : Stmt {
    BlockStmt() : Stmt(StmtKind::Block) {}
    [[nodiscard]] StmtPtr clone() const override;

    Block block;
};

struct UnsafeStmt final : Stmt {
    UnsafeStmt() : Stmt(StmtKind::Unsafe) {}
    [[nodiscard]] StmtPtr clone() const override;

    Block block;
};

/// `become f(args);` — guaranteed tail call (the paper's `tailcall` UB
/// category exercises signature mismatches through fn pointers here).
struct BecomeStmt final : Stmt {
    BecomeStmt() : Stmt(StmtKind::Become) {}
    [[nodiscard]] StmtPtr clone() const override;

    ExprPtr callee;  // VarRef to a function or a fn-pointer-typed expression
    std::vector<ExprPtr> args;
};

// ---------------------------------------------------------------------------
// Child enumeration
// ---------------------------------------------------------------------------

namespace detail {

/// `To`, const when `From` is.
template <typename To, typename From>
using like_t = std::conditional_t<std::is_const_v<From>, const To, To>;

/// A const node hands a child expression over as `const Expr&`, a mutable
/// one as its owning `ExprPtr&`, so the visitor may replace the subtree.
template <typename Slot, typename Visitor>
void visit_slot(Slot& slot, Visitor& visit) {
    if constexpr (std::is_const_v<Slot>) {
        visit(static_cast<const Expr&>(*slot));
    } else {
        visit(slot);
    }
}

template <typename Slots, typename Visitor>
void visit_slots(Slots& slots, Visitor& visit) {
    for (auto& slot : slots) visit_slot(slot, visit);
}

}  // namespace detail

/// Calls `visit` on each child of `expr` in the child order (see the file
/// comment): `const Expr&` per child of a const node, `ExprPtr&` per child
/// of a mutable one.
template <typename E, typename Visitor>
std::enable_if_t<std::is_same_v<std::remove_const_t<E>, Expr>> for_each_child(
    E& expr, Visitor&& visit) {
    using detail::like_t;
    using detail::visit_slot;
    using detail::visit_slots;
    switch (expr.kind) {
        case ExprKind::IntLit:
        case ExprKind::BoolLit:
        case ExprKind::VarRef:
            break;
        case ExprKind::Unary:
            visit_slot(static_cast<like_t<UnaryExpr, E>&>(expr).operand, visit);
            break;
        case ExprKind::Binary: {
            auto& node = static_cast<like_t<BinaryExpr, E>&>(expr);
            visit_slot(node.lhs, visit);
            visit_slot(node.rhs, visit);
            break;
        }
        case ExprKind::Cast:
            visit_slot(static_cast<like_t<CastExpr, E>&>(expr).operand, visit);
            break;
        case ExprKind::Index: {
            auto& node = static_cast<like_t<IndexExpr, E>&>(expr);
            visit_slot(node.base, visit);
            visit_slot(node.index, visit);
            break;
        }
        case ExprKind::Call:
            visit_slots(static_cast<like_t<CallExpr, E>&>(expr).args, visit);
            break;
        case ExprKind::CallPtr: {
            auto& node = static_cast<like_t<CallPtrExpr, E>&>(expr);
            visit_slot(node.callee, visit);
            visit_slots(node.args, visit);
            break;
        }
        case ExprKind::ArrayLit:
            visit_slots(static_cast<like_t<ArrayLitExpr, E>&>(expr).elements, visit);
            break;
        case ExprKind::ArrayRepeat:
            visit_slot(static_cast<like_t<ArrayRepeatExpr, E>&>(expr).element, visit);
            break;
    }
}

/// Calls `visit` on each child of `stmt` in the child order: expressions as
/// for an Expr, and each nested `Block` (const when `stmt` is). A `return`
/// without a value and an `if` without an `else` skip the absent child.
template <typename S, typename Visitor>
std::enable_if_t<std::is_same_v<std::remove_const_t<S>, Stmt>> for_each_child(
    S& stmt, Visitor&& visit) {
    using detail::like_t;
    using detail::visit_slot;
    using detail::visit_slots;
    switch (stmt.kind) {
        case StmtKind::Let:
            visit_slot(static_cast<like_t<LetStmt, S>&>(stmt).init, visit);
            break;
        case StmtKind::Assign: {
            auto& node = static_cast<like_t<AssignStmt, S>&>(stmt);
            visit_slot(node.place, visit);
            visit_slot(node.value, visit);
            break;
        }
        case StmtKind::Expr:
            visit_slot(static_cast<like_t<ExprStmt, S>&>(stmt).expr, visit);
            break;
        case StmtKind::If: {
            auto& node = static_cast<like_t<IfStmt, S>&>(stmt);
            visit_slot(node.condition, visit);
            visit(node.then_block);
            if (node.else_block) visit(*node.else_block);
            break;
        }
        case StmtKind::While: {
            auto& node = static_cast<like_t<WhileStmt, S>&>(stmt);
            visit_slot(node.condition, visit);
            visit(node.body);
            break;
        }
        case StmtKind::Return: {
            auto& node = static_cast<like_t<ReturnStmt, S>&>(stmt);
            if (node.value) visit_slot(node.value, visit);
            break;
        }
        case StmtKind::Block:
            visit(static_cast<like_t<BlockStmt, S>&>(stmt).block);
            break;
        case StmtKind::Unsafe:
            visit(static_cast<like_t<UnsafeStmt, S>&>(stmt).block);
            break;
        case StmtKind::Become: {
            auto& node = static_cast<like_t<BecomeStmt, S>&>(stmt);
            visit_slot(node.callee, visit);
            visit_slots(node.args, visit);
            break;
        }
    }
}

/// One visitor out of several lambdas, e.g. one for expressions and one for
/// blocks: `for_each_child(stmt, Overload{on_expr, on_block})`.
template <typename... Fs>
struct Overload : Fs... {
    using Fs::operator()...;
};
template <typename... Fs>
Overload(Fs...) -> Overload<Fs...>;

// ---------------------------------------------------------------------------
// Items & program
// ---------------------------------------------------------------------------

struct Param {
    std::string name;
    Type type;
};

struct FnItem {
    std::string name;
    bool is_unsafe = false;
    std::vector<Param> params;
    Type return_type = Type::unit();
    Block body;
    NodeId id = kInvalidNodeId;
    support::SourceSpan span;
    /// Frame slots a call needs: parameters take 0..n-1, then each `let`
    /// a fresh one in source order (type checker).
    std::uint32_t slot_count = 0;

    [[nodiscard]] FnItem clone() const;
    /// The fn-pointer type of this function, interned in `types`.
    [[nodiscard]] Type fn_type(TypePool& types) const;
    /// True when `type` is this function's fn-pointer type; builds nothing.
    [[nodiscard]] bool has_fn_type(const Type& type) const;
    /// fn_type()'s spelling, without interning it.
    [[nodiscard]] std::string fn_type_spelling() const;
};

struct StaticItem {
    std::string name;
    bool is_mut = false;
    Type type;
    ExprPtr init;  // literals and arrays of them, no names (type checker)
    NodeId id = kInvalidNodeId;
    support::SourceSpan span;

    [[nodiscard]] StaticItem clone() const;
};

class Program {
  public:
    /// Owns the composite types this program's nodes name (DESIGN.md §18).
    /// Clones share it, and it is declared first so it outlives the nodes.
    /// Null until the first composite type is interned.
    std::shared_ptr<TypePool> type_pool;
    std::vector<FnItem> functions;
    std::vector<StaticItem> statics;

    [[nodiscard]] Program clone() const;

    /// The program's type pool, made on first use.
    TypePool& types();

    [[nodiscard]] const FnItem* find_function(const std::string& name) const;
    [[nodiscard]] FnItem* find_function(const std::string& name);
    [[nodiscard]] const StaticItem* find_static(const std::string& name) const;

    /// Reassign node ids in deterministic pre-order, starting at 1.
    /// Returns the number of nodes.
    std::uint32_t renumber();

    /// Total AST node count (statements + expressions).
    [[nodiscard]] std::uint32_t node_count() const;
};

// Structural equality (ignores spans and node ids; compares types only where
// they are part of syntax, e.g. cast targets and let annotations).
bool equals(const Expr& a, const Expr& b);
bool equals(const Stmt& a, const Stmt& b);
bool equals(const Block& a, const Block& b);
bool equals(const Program& a, const Program& b);

const char* expr_kind_name(ExprKind kind);
const char* stmt_kind_name(StmtKind kind);
const char* unary_op_name(UnaryOp op);    // surface syntax, e.g. "&mut "
const char* binary_op_name(BinaryOp op);  // surface syntax, e.g. "+"

}  // namespace rustbrain::lang
