// FNV-1a digests of mini-Rust trees, shared by the tests that compare two
// trees node by node (the front-end goldens, the printer's respanning, the
// forge's hand-over), and the one program that has every node kind.
#pragma once

#include <cstdint>
#include <string_view>

#include "lang/ast.hpp"
#include "support/hashing.hpp"

namespace rustbrain::lang {

struct Digest {
    std::uint64_t h = support::fnv1a64("");
    void add(std::string_view text) { h = support::fnv1a64(text, h); }
    void add(std::uint64_t value) { h = support::fnv1a64_u64(value, h); }
    void add(const support::SourceSpan& span) {
        add(span.begin);
        add(span.end);
        add(span.line);
        add(span.column);
    }
    void add(const Binding& binding) {
        add(static_cast<std::uint64_t>(binding.kind));
        add(static_cast<std::uint64_t>(static_cast<std::int64_t>(binding.index)));
    }
};

/// Every node's kind, id and span in child order; with `typed`, each
/// expression's type, each name's Binding, each let's slot and each
/// function's slot count as well.
struct TreeDigest {
    Digest& d;
    bool typed;

    void operator()(const Expr& expr) {
        d.add(expr_kind_name(expr.kind));
        d.add(expr.id);
        d.add(expr.span);
        if (typed) {
            d.add(expr.type.to_string());
            if (expr.kind == ExprKind::VarRef) {
                d.add(static_cast<const VarRefExpr&>(expr).binding);
            } else if (expr.kind == ExprKind::Call) {
                d.add(static_cast<const CallExpr&>(expr).binding);
            }
        }
        for_each_child(expr, *this);
    }
    void operator()(const Stmt& stmt) {
        d.add(stmt_kind_name(stmt.kind));
        d.add(stmt.id);
        d.add(stmt.span);
        if (typed && stmt.kind == StmtKind::Let) {
            d.add(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<const LetStmt&>(stmt).slot)));
        }
        for_each_child(stmt, *this);
    }
    void operator()(const Block& block) {
        d.add(block.statements.size());
        for (const auto& stmt : block.statements) (*this)(*stmt);
    }
    void program(const Program& program) {
        for (const StaticItem& item : program.statics) {
            d.add(item.id);
            d.add(item.span);
            if (item.init) (*this)(*item.init);
        }
        for (const FnItem& fn : program.functions) {
            d.add(fn.id);
            d.add(fn.span);
            if (typed) d.add(fn.slot_count);
            (*this)(fn.body);
        }
    }
};

/// The untyped TreeDigest of `program`: kinds, ids and spans.
inline std::uint64_t tree_digest(const Program& program) {
    Digest d;
    TreeDigest{d, false}.program(program);
    return d.h;
}

/// Every expression and statement kind, a `return;` and an `if` without
/// an `else`, with indirect calls in both parser forms.
inline constexpr const char* kEveryNodeKind = R"(static TABLE: [i64; 3] = [1, 2, 3];
static mut ZEROS: [u8; 4] = [0; 4];
fn twice(x: i64) -> i64 {
    return x * 2;
}
fn step(n: i64) {
    if n == 0 {
        return;
    }
    become step(n - 1);
}
fn main() {
    let fs: [fn(i64) -> i64; 1] = [twice];
    let mut total: i64 = fs[0](TABLE[1]) + (twice)(-3);
    while total > 0 {
        total = total - 1;
    }
    unsafe {
        ZEROS[0] = !true as u8;
    }
    {
        let p = &mut total;
        *p = 4;
    }
    if total > 2 {
        print_int(total);
    } else {
        step(2);
    }
}
)";

}  // namespace rustbrain::lang
