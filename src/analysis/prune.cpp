#include "analysis/prune.hpp"

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/walk.hpp"

namespace rustbrain::analysis {

using namespace lang;

namespace {

/// Does the expression mention any of the given names?
bool mentions(const Expr& expr, const std::set<std::string_view>& names) {
    bool found = false;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& e, bool) {
        if (e.kind == ExprKind::VarRef &&
            names.count(static_cast<const VarRefExpr&>(e).name) != 0) {
            found = true;
        }
        if (e.kind == ExprKind::Call &&
            names.count(static_cast<const CallExpr&>(e).callee) != 0) {
            found = true;
        }
    };
    walk_expr(expr, callbacks, false);
    return found;
}

bool stmt_relevant(const Stmt& stmt, const std::set<std::string_view>& names);

/// A block is relevant if any of its statements is.
bool block_relevant(const Block& block, const std::set<std::string_view>& names) {
    for (const auto& stmt : block.statements) {
        if (stmt_relevant(*stmt, names)) return true;
    }
    return false;
}

bool stmt_relevant(const Stmt& stmt, const std::set<std::string_view>& names) {
    if (stmt.kind == StmtKind::Unsafe) {
        return true;  // Principle 1: unsafe regions are always kept.
    }
    if (stmt.kind == StmtKind::Let &&
        names.count(static_cast<const LetStmt&>(stmt).name) != 0) {
        return true;
    }
    bool relevant = false;
    for_each_child(stmt, Overload{
        [&](const Expr& child) { relevant = relevant || mentions(child, names); },
        [&](const Block& child) {
            relevant = relevant || block_relevant(child, names);
        },
    });
    return relevant;
}

Block prune_block(const Block& block, const std::set<std::string_view>& names,
                  AstArena& arena) {
    Block out(arena);
    for (const auto& stmt : block.statements) {
        if (!stmt_relevant(*stmt, names)) {
            continue;  // Algorithm 1: delete context irrelevant to unsafe ops.
        }
        // Recurse into structured statements to prune their bodies too.
        switch (stmt->kind) {
            case StmtKind::If: {
                const auto& node = static_cast<const IfStmt&>(*stmt);
                auto pruned = arena.make<IfStmt>();
                pruned->span = node.span;
                pruned->condition = clone(*node.condition, arena);
                pruned->then_block = prune_block(node.then_block, names, arena);
                if (node.else_block) {
                    pruned->else_block = prune_block(*node.else_block, names, arena);
                }
                out.statements.push_back(std::move(pruned));
                break;
            }
            case StmtKind::While: {
                const auto& node = static_cast<const WhileStmt&>(*stmt);
                auto pruned = arena.make<WhileStmt>();
                pruned->span = node.span;
                pruned->condition = clone(*node.condition, arena);
                pruned->body = prune_block(node.body, names, arena);
                out.statements.push_back(std::move(pruned));
                break;
            }
            case StmtKind::Block: {
                const auto& node = static_cast<const BlockStmt&>(*stmt);
                auto pruned = arena.make<BlockStmt>();
                pruned->span = node.span;
                pruned->block = prune_block(node.block, names, arena);
                out.statements.push_back(std::move(pruned));
                break;
            }
            default:
                out.statements.push_back(clone(*stmt, arena));
                break;
        }
    }
    return out;
}

}  // namespace

Program prune_ast(const Program& program, PruneStats* stats) {
    // Seed the relevance set with names used inside unsafe regions, then
    // close over definitions: a let whose init mentions a relevant name makes
    // the defined name relevant too (one backward pass is enough for the
    // mini-Rust shapes in the corpus; iterate to a fixpoint regardless).
    // Views of the seeds and of `program`'s names, both alive until the
    // copy is made.
    const std::vector<std::string> seeds = names_used_in_unsafe(program);
    std::set<std::string_view> names(seeds.begin(), seeds.end());
    bool changed = true;
    while (changed) {
        changed = false;
        WalkCallbacks callbacks;
        callbacks.on_stmt = [&](const Stmt& stmt, bool) {
            if (stmt.kind != StmtKind::Let) return;
            const auto& node = static_cast<const LetStmt&>(stmt);
            if (names.count(node.name) != 0 && mentions(*node.init, names)) {
                return;
            }
            if (names.count(node.name) != 0) {
                // Pull init dependencies in.
                WalkCallbacks inner;
                inner.on_expr = [&](const Expr& e, bool) {
                    if (e.kind == ExprKind::VarRef) {
                        changed |= names
                                       .insert(static_cast<const VarRefExpr&>(e).name)
                                       .second;
                    }
                };
                walk_expr(*node.init, inner, false);
            }
        };
        walk_program(program, callbacks);
    }

    Program pruned(program.arena().bytes_used());
    AstArena& arena = pruned.arena();
    pruned.type_pool = program.type_pool;  // the copied nodes name its types
    // Statics touched by unsafe code stay.
    for (const auto& item : program.statics) {
        if (names.count(item.name) != 0 || item.is_mut) {
            pruned.statics.push_back(item.clone(arena));
        }
    }
    for (const auto& fn : program.functions) {
        FnItem copy(arena);
        copy.name = arena.name(fn.name);
        copy.is_unsafe = fn.is_unsafe;
        copy.params.reserve(fn.params.size());
        for (const Param& param : fn.params) {
            copy.params.push_back(Param{arena.name(param.name), param.type});
        }
        copy.return_type = fn.return_type;
        copy.span = fn.span;
        if (fn.is_unsafe) {
            copy.body = fn.body.clone(arena);  // whole unsafe fn is an unsafe region
        } else {
            copy.body = prune_block(fn.body, names, arena);
        }
        const bool referenced = names.count(fn.name) != 0;
        if (!copy.body.statements.empty() || referenced || fn.name == "main") {
            pruned.functions.push_back(std::move(copy));
        }
    }
    pruned.renumber();
    if (stats != nullptr) {
        stats->original_nodes = program.node_count();
        stats->pruned_nodes = pruned.node_count();
    }
    return pruned;
}

AstProbe probe_ast(const Program& program) {
    PruneStats stats;
    const Program pruned = prune_ast(program, &stats);
    AstProbe probe;
    probe.retained_fraction = stats.retained_fraction();
    // Panics and thread bugs prune to near-empty skeletons that all look
    // alike.
    const bool fallback =
        stats.pruned_nodes < 10 || stats.retained_fraction() < 0.15;
    probe.vector = vectorize(fallback ? program : pruned);
    return probe;
}

}  // namespace rustbrain::analysis
