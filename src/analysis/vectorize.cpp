#include "analysis/vectorize.hpp"

#include <cmath>
#include <functional>
#include <string>

#include "lang/typecheck.hpp"
#include "support/hashing.hpp"

namespace rustbrain::analysis {

using namespace lang;

namespace {

void bump(AstVector& vec, const std::string& token, float weight = 1.0F) {
    const std::uint64_t h = support::fnv1a64(token);
    vec[h % kAstVectorDim] += weight;
}

std::string type_token(const Type& type) {
    switch (type.kind()) {
        case Type::Kind::Scalar: return scalar_kind_name(type.scalar_kind());
        case Type::Kind::RawPtr: return type.is_mut() ? "*mut" : "*const";
        case Type::Kind::Ref: return type.is_mut() ? "&mut" : "&";
        case Type::Kind::Array: return "array";
        case Type::Kind::FnPtr: return "fnptr";
    }
    return "?";
}

std::string expr_token(const Expr& expr) {
    switch (expr.kind) {
        case ExprKind::Unary:
            return std::string("un:") +
                   unary_op_name(static_cast<const UnaryExpr&>(expr).op);
        case ExprKind::Binary:
            return std::string("bin:") +
                   binary_op_name(static_cast<const BinaryExpr&>(expr).op);
        case ExprKind::Cast:
            return "cast>" + type_token(static_cast<const CastExpr&>(expr).target);
        case ExprKind::Call: {
            const auto& node = static_cast<const CallExpr&>(expr);
            // Intrinsic names are structure (they name operations); user
            // function names are not.
            return lang::is_intrinsic(node.callee) ? "call:" + node.callee
                                                   : "call:user";
        }
        case ExprKind::IntLit: {
            // Coarse magnitude bucket so constants carry only a little
            // signal (variants differ in constants but not in structure).
            const auto value = static_cast<const IntLitExpr&>(expr).value;
            if (value == 0) return "int:0";
            return value < 4096 ? "int:small" : "int:large";
        }
        default:
            return expr_kind_name(expr.kind);
    }
}

}  // namespace

AstVector vectorize(const Program& program) {
    AstVector vec{};

    // Expressions contribute their own token, a parent>child bigram, and an
    // unsafe-context-tagged variant; blocks additionally contribute sliding
    // bigrams of consecutive statement kinds.
    std::function<void(const Expr&, const std::string&, bool)> visit_expr =
        [&](const Expr& expr, const std::string& parent, bool in_unsafe) {
            const std::string token = expr_token(expr);
            bump(vec, token);
            bump(vec, parent + ">" + token, 0.5F);
            if (in_unsafe) bump(vec, "unsafe~" + token, 0.5F);
            for_each_child(expr, [&](const Expr& child) {
                visit_expr(child, token, in_unsafe);
            });
        };

    std::function<void(const Block&, bool)> visit_block = [&](const Block& block,
                                                              bool in_unsafe) {
        std::string prev = "^";
        for (const auto& owned : block.statements) {
            const Stmt& stmt = *owned;
            const std::string token = stmt_kind_name(stmt.kind);
            bump(vec, "stmt:" + token);
            bump(vec, "seq:" + prev + ">" + token, 0.5F);
            prev = token;
            const bool inner = in_unsafe || stmt.kind == StmtKind::Unsafe;
            for_each_child(stmt, Overload{
                [&](const Expr& child) { visit_expr(child, token, in_unsafe); },
                [&](const Block& child) { visit_block(child, inner); },
            });
        }
    };

    for (const auto& item : program.statics) {
        bump(vec, item.is_mut ? "static-mut" : "static");
        bump(vec, "static:" + type_token(item.type), 0.5F);
    }
    for (const auto& fn : program.functions) {
        bump(vec, fn.is_unsafe ? "fn-unsafe" : "fn");
        bump(vec, "fn-arity:" + std::to_string(fn.params.size()), 0.25F);
        visit_block(fn.body, fn.is_unsafe);
    }

    // L2 normalize.
    double norm = 0.0;
    for (float v : vec) norm += static_cast<double>(v) * v;
    norm = std::sqrt(norm);
    if (norm > 0.0) {
        for (float& v : vec) v = static_cast<float>(v / norm);
    }
    return vec;
}

double cosine_similarity(const AstVector& a, const AstVector& b) {
    double dot = 0.0;
    for (std::size_t i = 0; i < kAstVectorDim; ++i) {
        dot += static_cast<double>(a[i]) * b[i];
    }
    return dot;  // inputs are L2-normalized
}

}  // namespace rustbrain::analysis
