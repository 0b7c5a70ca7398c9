#include "analysis/features.hpp"

#include "analysis/walk.hpp"

namespace rustbrain::analysis {

using namespace lang;

ErrorFeatures extract_features(const Program& program,
                               const miri::Finding& finding) {
    ErrorFeatures features;
    features.category = finding.category;
    features.node_count = program.node_count();

    // Type information may be absent (features run on unchecked clones), so
    // shape detection is syntactic where possible.
    WalkCallbacks callbacks;
    callbacks.on_stmt = [&](const Stmt& stmt, bool) {
        switch (stmt.kind) {
            case StmtKind::Unsafe: ++features.unsafe_blocks; break;
            case StmtKind::While: ++features.loops; break;
            case StmtKind::If: ++features.branches; break;
            case StmtKind::Become: ++features.become_stmts; break;
            default: break;
        }
    };
    callbacks.on_expr = [&](const Expr& expr, bool in_unsafe) {
        switch (expr.kind) {
            case ExprKind::Unary: {
                const auto& node = static_cast<const UnaryExpr&>(expr);
                if (node.op == UnaryOp::Deref && in_unsafe) {
                    ++features.raw_ptr_derefs;
                }
                break;
            }
            case ExprKind::Cast: {
                const auto& node = static_cast<const CastExpr&>(expr);
                if (node.target.is_raw_ptr() &&
                    node.operand->kind != ExprKind::Unary) {
                    ++features.int_to_ptr_casts;
                }
                if (node.target.is_fn_ptr()) {
                    ++features.fn_ptr_casts;
                }
                break;
            }
            case ExprKind::Call: {
                const auto& node = static_cast<const CallExpr&>(expr);
                if (node.callee == "alloc") ++features.alloc_calls;
                if (node.callee == "dealloc") ++features.dealloc_calls;
                if (node.callee == "offset") ++features.offset_calls;
                if (node.callee == "spawn") ++features.spawn_calls;
                break;
            }
            case ExprKind::Index:
                ++features.index_exprs;
                break;
            case ExprKind::Binary: {
                const auto& node = static_cast<const BinaryExpr&>(expr);
                if (node.op == BinaryOp::Div || node.op == BinaryOp::Rem) {
                    ++features.div_ops;
                }
                break;
            }
            case ExprKind::ArrayLit:
            case ExprKind::ArrayRepeat:
                ++features.array_decls;
                break;
            default:
                break;
        }
    };
    walk_program(program, callbacks);
    return features;
}

std::string ErrorFeatures::feedback_key() const {
    std::string key = miri::ub_category_label(category);
    key += '|';
    // Dominant shape bits, in a fixed order so keys are stable.
    if (alloc_calls > 0) key += 'A';
    if (dealloc_calls > 1) key += 'D';
    if (offset_calls > 0) key += 'O';
    if (int_to_ptr_casts > 0) key += 'I';
    if (spawn_calls > 0) key += 'S';
    if (become_stmts > 0) key += 'B';
    if (fn_ptr_casts > 0) key += 'F';
    if (loops > 0) key += 'L';
    if (branches > 0) key += 'C';
    if (index_exprs > 0) key += 'X';
    if (div_ops > 0) key += 'V';
    if (array_decls > 0) key += 'R';
    return key;
}

std::string ErrorFeatures::to_string() const {
    std::string out = "features{";
    out += miri::ub_category_label(category);
    out += ", derefs=" + std::to_string(raw_ptr_derefs);
    out += ", allocs=" + std::to_string(alloc_calls);
    out += ", deallocs=" + std::to_string(dealloc_calls);
    out += ", offsets=" + std::to_string(offset_calls);
    out += ", int2ptr=" + std::to_string(int_to_ptr_casts);
    out += ", spawns=" + std::to_string(spawn_calls);
    out += ", becomes=" + std::to_string(become_stmts);
    out += ", unsafe_blocks=" + std::to_string(unsafe_blocks);
    out += ", nodes=" + std::to_string(node_count);
    out += "}";
    return out;
}

}  // namespace rustbrain::analysis
