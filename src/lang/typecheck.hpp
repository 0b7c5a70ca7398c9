// Static semantic checker for mini-Rust.
//
// Mirrors rustc's split of responsibilities: the checker rejects ill-typed
// programs and enforces the *static* unsafety rules (raw-pointer deref,
// unsafe-fn calls, `static mut` access and int->fn-pointer casts are only
// legal inside `unsafe`), while MiriLite finds the *dynamic* UB. It also
// annotates every expression with its type, which the interpreter relies on
// for typed loads/stores and cast semantics, and is the only name resolver:
// it writes every name's Binding, every `let`'s frame slot and every
// function's slot count onto the tree, in the order the tiers run them
// (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace rustbrain::lang {

/// The built-in intrinsics, in intrinsic_table() order. MiriLite's machine
/// core (miri/machine.hpp) dispatches on these ids.
enum class IntrinsicId : std::int32_t {
    Alloc,
    Dealloc,
    Offset,
    PrintInt,
    PrintBool,
    Input,
    Assert,
    Panic,
    Spawn,
    Join,
    MutexNew,
    MutexLock,
    MutexUnlock,
    AtomicLoad,
    AtomicStore,
    AtomicFetchAdd,
    Unknown,  // not an intrinsic
};

struct IntrinsicInfo {
    std::string name;
    std::size_t arity;
    bool requires_unsafe;
    IntrinsicId id;
};

/// True if `name` is one of the built-in intrinsics (alloc, dealloc, offset,
/// print_int, ...).
bool is_intrinsic(std::string_view name);
/// The intrinsic called `name`, or IntrinsicId::Unknown.
IntrinsicId intrinsic_id(std::string_view name);
const std::vector<IntrinsicInfo>& intrinsic_table();

class TypeChecker {
  public:
    explicit TypeChecker(support::DiagnosticEngine& diagnostics);

    /// Check the whole program (annotating expression types in place).
    /// Returns true when no errors were emitted.
    bool check(Program& program);

    /// Items the function and static lookups of the checks so far looked
    /// at: one per name found, whatever the program's size.
    [[nodiscard]] std::size_t items_probed() const { return items_probed_; }

  private:
    struct LocalVar {
        /// A view of the declaring node's name, in the checked program.
        std::string_view name;
        Type type;
        bool is_mut = false;
        std::int32_t slot = -1;
    };

    struct Scope {
        std::vector<LocalVar> locals;
    };

    // Environment ----------------------------------------------------------
    void push_scope() { scopes_.emplace_back(); }
    void pop_scope() { scopes_.pop_back(); }
    /// Declares a local in the innermost scope; returns its fresh slot.
    std::int32_t declare_local(std::string_view name, Type type, bool is_mut);
    [[nodiscard]] const LocalVar* lookup_local(std::string_view name) const;

    // Items ------------------------------------------------------------
    /// "duplicate <kind> 'name'" at each later copy of a name; fills
    /// `first_index` with each name's first copy, the one lookups find.
    template <class Item>
    void report_duplicates(
        const ArenaVector<Item>& items, const char* kind,
        std::unordered_map<std::string_view, std::size_t>& first_index);
    /// The first function / static called `name`, or null.
    const FnItem* find_function(std::string_view name) const;
    const StaticItem* find_static(std::string_view name) const;
    void check_function(FnItem& fn);
    void check_static(StaticItem& item);

    // Statements ------------------------------------------------------------
    void check_block(Block& block, bool enters_scope = true);
    void check_statement(Stmt& stmt);

    // Expressions ------------------------------------------------------
    /// Infer/check an expression. `expected` guides integer-literal typing.
    Type check_expr(Expr& expr, const std::optional<Type>& expected = std::nullopt);
    Type check_unary(UnaryExpr& expr, const std::optional<Type>& expected);
    Type check_binary(BinaryExpr& expr, const std::optional<Type>& expected);
    Type check_cast(CastExpr& expr);
    Type check_index(IndexExpr& expr);
    Type check_call(CallExpr& expr);
    Type check_call_ptr(CallPtrExpr& expr);
    Type check_intrinsic(CallExpr& expr);

    // Places -----------------------------------------------------------
    /// True if expr denotes a memory place; fills `is_mut_place`.
    bool is_place(const Expr& expr, bool& is_mut_place) const;
    void require_place(const Expr& expr, bool need_mut, const char* what);

    void require_unsafe(const char* operation, support::SourceSpan span);
    void error(std::string message, support::SourceSpan span);

    support::DiagnosticEngine& diagnostics_;
    Program* program_ = nullptr;
    /// Name -> index of its first copy in Program::functions / statics.
    std::unordered_map<std::string_view, std::size_t> function_index_;
    std::unordered_map<std::string_view, std::size_t> static_index_;
    mutable std::size_t items_probed_ = 0;
    const FnItem* current_fn_ = nullptr;
    std::vector<Scope> scopes_;
    std::int32_t next_slot_ = 0;
    int unsafe_depth_ = 0;
};

/// Convenience: run the checker; returns false and fills `error` on failure.
bool type_check(Program& program, std::string* error = nullptr);

}  // namespace rustbrain::lang
