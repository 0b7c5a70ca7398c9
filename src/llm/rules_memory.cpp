// Repair rules for memory & borrow UB: alloc lifecycle, dangling pointers,
// uninitialized reads, provenance, panics, borrow-stack conflicts.
#include "analysis/ast_edit.hpp"
#include "analysis/walk.hpp"
#include "llm/rules.hpp"
#include "llm/rules_detail.hpp"

namespace rustbrain::llm {

using namespace lang;
using namespace analysis;
using detail::addr_of_target;
using detail::stmt_as_call;
using detail::stmt_as_let;
using detail::strip_casts;
using detail::var_name;
using miri::UbCategory;

namespace {

using MaybeProgram = std::optional<Program>;

/// The first `let <name> = alloc(S, A);` (any name when `wanted_name` is
/// empty), or null.
const LetStmt* find_alloc_let(const Program& program,
                              const std::string& wanted_name = "") {
    const LetStmt* found = nullptr;
    WalkCallbacks callbacks;
    callbacks.on_stmt = [&](const Stmt& stmt, bool) {
        if (found != nullptr) return;
        const LetStmt* let = stmt_as_let(stmt);
        if (let == nullptr) return;
        if (!wanted_name.empty() && let->name != wanted_name) return;
        if (let->init->kind != ExprKind::Call) return;
        const auto& call = static_cast<const CallExpr&>(*let->init);
        if (call.callee != "alloc" || call.args.size() != 2) return;
        found = let;
    };
    walk_program(program, callbacks);
    return found;
}

/// The `alloc(S, A)` call of a let find_alloc_let found.
const CallExpr& alloc_call(const LetStmt& let) {
    return static_cast<const CallExpr&>(*let.init);
}

/// Count statements anywhere in the program that mention `name`, excluding
/// the let that declares it.
int mentions_outside_decl(const Program& program, const std::string& name) {
    int count = 0;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        if (var_name(expr) == name) ++count;
    };
    walk_program(program, callbacks);
    return count;
}

// --- alloc ------------------------------------------------------------

MaybeProgram remove_duplicate_dealloc(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size() && !changed; ++i) {
            const CallExpr* first = stmt_as_call(*block.statements[i], "dealloc");
            if (first == nullptr || first->args.empty()) continue;
            for (std::size_t j = i + 1; j < block.statements.size(); ++j) {
                const CallExpr* second = stmt_as_call(*block.statements[j], "dealloc");
                if (second == nullptr || second->args.empty()) continue;
                if (equals(*first->args[0], *second->args[0])) {
                    block.statements.erase(block.statements.begin() +
                                           static_cast<std::ptrdiff_t>(j));
                    changed = true;
                    break;
                }
            }
        }
        return changed;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram match_dealloc_layout(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::Expr) continue;
            auto& expr = *static_cast<ExprStmt&>(*stmt).expr;
            if (expr.kind != ExprKind::Call) continue;
            auto& call = static_cast<CallExpr&>(expr);
            if (call.callee != "dealloc" || call.args.size() != 3) continue;
            const std::string ptr = var_name(strip_casts(*call.args[0]));
            if (ptr.empty()) continue;
            const LetStmt* alloc_let = find_alloc_let(program, ptr);
            if (alloc_let == nullptr) continue;
            const CallExpr& layout = alloc_call(*alloc_let);
            if (!equals(*call.args[1], *layout.args[0]) ||
                !equals(*call.args[2], *layout.args[1])) {
                call.args[1] = clone(*layout.args[0], arena);
                call.args[2] = clone(*layout.args[1], arena);
                changed = true;
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram insert_missing_dealloc(const Program& input, const miri::Finding&) {
    const LetStmt* alloc_let = find_alloc_let(input);
    if (alloc_let == nullptr) return std::nullopt;
    // Already freed somewhere?
    bool freed = false;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        if (expr.kind != ExprKind::Call) return;
        const auto& call = static_cast<const CallExpr&>(expr);
        if (call.callee == "dealloc" && !call.args.empty() &&
            var_name(strip_casts(*call.args[0])) == alloc_let->name) {
            freed = true;
        }
    };
    walk_program(input, callbacks);
    if (freed) return std::nullopt;

    Program program = input.clone();
    AstArena& arena = program.arena();
    const CallExpr& layout = alloc_call(*alloc_let);
    const std::string name(alloc_let->name);
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        const int index = find_stmt(block, [&](const Stmt& stmt) {
            const LetStmt* let = stmt_as_let(stmt);
            return let != nullptr && let->name == name &&
                   let->init->kind == ExprKind::Call &&
                   static_cast<const CallExpr&>(*let->init).callee == "alloc";
        });
        if (index < 0) return false;
        ExprList args(arena);
        args.push_back(mk_var(arena, name));
        args.push_back(clone(*layout.args[0], arena));
        args.push_back(clone(*layout.args[1], arena));
        block.statements.push_back(
            mk_expr_stmt(arena, mk_call(arena, "dealloc", std::move(args))));
        changed = true;
        return true;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram move_dealloc_to_end(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        const int index = find_stmt(block, [](const Stmt& stmt) {
            return stmt_as_call(stmt, "dealloc") != nullptr;
        });
        if (index < 0 ||
            static_cast<std::size_t>(index) + 1 >= block.statements.size()) {
            return false;
        }
        move_stmt(block, static_cast<std::size_t>(index),
                  block.statements.size() - 1);
        changed = true;
        return true;
    });
    if (!changed) return std::nullopt;
    return program;
}

// --- dangling ----------------------------------------------------------

MaybeProgram hoist_declaration(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            if (block.statements[i]->kind != StmtKind::Block) continue;
            auto& inner = static_cast<BlockStmt&>(*block.statements[i]).block;
            // A let inside the inner block whose address is taken there.
            for (std::size_t j = 0; j < inner.statements.size(); ++j) {
                const LetStmt* let = stmt_as_let(*inner.statements[j]);
                if (let == nullptr) continue;
                bool address_taken = false;
                for (const auto& stmt : inner.statements) {
                    WalkCallbacks callbacks;
                    callbacks.on_expr = [&](const Expr& expr, bool) {
                        if (addr_of_target(expr) == let->name) address_taken = true;
                    };
                    if (stmt->kind == StmtKind::Assign) {
                        walk_expr(*static_cast<const AssignStmt&>(*stmt).value,
                                  callbacks, false);
                    } else if (stmt->kind == StmtKind::Let &&
                               stmt.get() != inner.statements[j].get()) {
                        walk_expr(*static_cast<const LetStmt&>(*stmt).init, callbacks,
                                  false);
                    }
                }
                if (!address_taken) continue;
                // Hoist the declaration to just before the inner block.
                StmtPtr hoisted = std::move(inner.statements[j]);
                inner.statements.erase(inner.statements.begin() +
                                       static_cast<std::ptrdiff_t>(j));
                block.statements.insert(
                    block.statements.begin() + static_cast<std::ptrdiff_t>(i),
                    std::move(hoisted));
                changed = true;
                return true;
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram guard_null_check(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            if (block.statements[i]->kind != StmtKind::Unsafe) continue;
            auto& unsafe_stmt = static_cast<UnsafeStmt&>(*block.statements[i]);
            // Find a raw pointer variable dereferenced inside.
            std::string ptr;
            WalkCallbacks callbacks;
            callbacks.on_expr = [&](const Expr& expr, bool) {
                if (!ptr.empty()) return;
                if (expr.kind != ExprKind::Unary) return;
                const auto& unary = static_cast<const UnaryExpr&>(expr);
                if (unary.op != UnaryOp::Deref) return;
                const std::string name = var_name(*unary.operand);
                if (!name.empty()) ptr = name;
            };
            walk_block(unsafe_stmt.block, callbacks, true);
            if (ptr.empty()) continue;

            // if ptr as usize != 0 { unsafe { ... } } else { print_int(-1); }
            ExprPtr cond = mk_binary(arena, BinaryOp::Ne,
                                     mk_cast(arena, mk_var(arena, ptr), Type::usize()),
                                     mk_int(arena, 0));
            Block then_block(arena);
            then_block.statements.push_back(std::move(block.statements[i]));
            block.statements[i] =
                mk_guard(arena, std::move(cond), std::move(then_block), true);
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

// --- panic ---------------------------------------------------------------

/// The declared length of array variable `name`, if discoverable.
std::optional<std::uint64_t> array_length_of(const Program& program,
                                             const std::string& name) {
    if (const LetStmt* let = find_let_by_name(program, name)) {
        if (let->declared_type && let->declared_type->is_array()) {
            return let->declared_type->array_length();
        }
        if (let->init->kind == ExprKind::ArrayRepeat) {
            return static_cast<const ArrayRepeatExpr&>(*let->init).count;
        }
        if (let->init->kind == ExprKind::ArrayLit) {
            return static_cast<const ArrayLitExpr&>(*let->init).elements.size();
        }
    }
    if (const StaticItem* item = program.find_static(name)) {
        if (item->type.is_array()) return item->type.array_length();
    }
    return std::nullopt;
}

MaybeProgram guard_index_bound(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            Stmt& stmt = *block.statements[i];
            if (stmt.kind != StmtKind::Expr && stmt.kind != StmtKind::Let &&
                stmt.kind != StmtKind::Assign) {
                continue;
            }
            // Find array[indexVar] with a variable index.
            std::string array;
            std::string index;
            WalkCallbacks callbacks;
            callbacks.on_expr = [&](const Expr& expr, bool) {
                if (!array.empty()) return;
                if (expr.kind != ExprKind::Index) return;
                const auto& node = static_cast<const IndexExpr&>(expr);
                const std::string base = var_name(*node.base);
                const std::string idx = var_name(*node.index);
                if (!base.empty() && !idx.empty()) {
                    array = base;
                    index = idx;
                }
            };
            if (stmt.kind == StmtKind::Expr) {
                walk_expr(*static_cast<const ExprStmt&>(stmt).expr, callbacks, false);
            } else if (stmt.kind == StmtKind::Let) {
                walk_expr(*static_cast<const LetStmt&>(stmt).init, callbacks, false);
            } else {
                walk_expr(*static_cast<const AssignStmt&>(stmt).value, callbacks,
                          false);
            }
            if (array.empty()) continue;
            const auto length = array_length_of(program, array);
            if (!length) continue;

            ExprPtr cond = mk_binary(arena, BinaryOp::Lt, mk_var(arena, index),
                                     mk_int(arena, *length));
            Block then_block(arena);
            then_block.statements.push_back(std::move(block.statements[i]));
            block.statements[i] =
                mk_guard(arena, std::move(cond), std::move(then_block), true);
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram guard_divisor(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            Stmt& stmt = *block.statements[i];
            if (stmt.kind != StmtKind::Expr && stmt.kind != StmtKind::Let) continue;
            std::string divisor;
            WalkCallbacks callbacks;
            callbacks.on_expr = [&](const Expr& expr, bool) {
                if (!divisor.empty()) return;
                if (expr.kind != ExprKind::Binary) return;
                const auto& node = static_cast<const BinaryExpr&>(expr);
                if (node.op != BinaryOp::Div && node.op != BinaryOp::Rem) return;
                const std::string name = var_name(*node.rhs);
                if (!name.empty()) divisor = name;
            };
            if (stmt.kind == StmtKind::Expr) {
                walk_expr(*static_cast<const ExprStmt&>(stmt).expr, callbacks, false);
            } else {
                walk_expr(*static_cast<const LetStmt&>(stmt).init, callbacks, false);
            }
            if (divisor.empty()) continue;

            ExprPtr cond =
                mk_binary(arena, BinaryOp::Ne, mk_var(arena, divisor), mk_int(arena, 0));
            Block then_block(arena);
            then_block.statements.push_back(std::move(block.statements[i]));
            block.statements[i] =
                mk_guard(arena, std::move(cond), std::move(then_block), true);
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram widen_to_i64(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    // (a) i32-typed lets become i64.
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            LetStmt* let = stmt->kind == StmtKind::Let
                               ? &static_cast<LetStmt&>(*stmt)
                               : nullptr;
            if (let != nullptr && let->declared_type &&
                *let->declared_type == Type::i32()) {
                let->declared_type = Type::i64();
                changed = true;
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    // (b) drop `as i32` on input() results.
    rewrite_exprs(program, [&](const Expr& expr) -> std::optional<ExprPtr> {
        if (expr.kind != ExprKind::Cast) return std::nullopt;
        const auto& cast = static_cast<const CastExpr&>(expr);
        if (!(cast.target == Type::i32())) return std::nullopt;
        if (cast.operand->kind == ExprKind::Call &&
            static_cast<const CallExpr&>(*cast.operand).callee == "input") {
            return clone(*cast.operand, arena);
        }
        return std::nullopt;
    });
    // (c) drop redundant `as i64` around variable arithmetic.
    rewrite_exprs(program, [&](const Expr& expr) -> std::optional<ExprPtr> {
        if (expr.kind != ExprKind::Cast) return std::nullopt;
        const auto& cast = static_cast<const CastExpr&>(expr);
        if (!(cast.target == Type::i64())) return std::nullopt;
        if (cast.operand->kind != ExprKind::Binary) return std::nullopt;
        const auto& binary = static_cast<const BinaryExpr&>(*cast.operand);
        if (binary.lhs->kind == ExprKind::VarRef &&
            binary.rhs->kind == ExprKind::VarRef) {
            return clone(*cast.operand, arena);
        }
        return std::nullopt;
    });
    return program;
}

// --- provenance ---------------------------------------------------------

MaybeProgram use_direct_pointer(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    // Find: let A = <ref-to-ptr-cast> as <int>; let P = A as *const T;
    std::string addr_var;
    ExprPtr direct;
    WalkCallbacks scan;
    scan.on_stmt = [&](const Stmt& stmt, bool) {
        if (!addr_var.empty()) return;
        const LetStmt* let = stmt_as_let(stmt);
        if (let == nullptr || let->init->kind != ExprKind::Cast) return;
        const auto& outer = static_cast<const CastExpr&>(*let->init);
        if (!outer.target.is_integer()) return;
        if (outer.operand->kind != ExprKind::Cast) return;
        const auto& inner = static_cast<const CastExpr&>(*outer.operand);
        if (!inner.target.is_raw_ptr()) return;
        if (addr_of_target(*inner.operand).empty()) return;
        addr_var = let->name;
        direct = clone(*outer.operand, arena);
    };
    walk_program(program, scan);
    if (addr_var.empty()) return std::nullopt;

    bool rewired = false;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::Let) continue;
            auto& let = static_cast<LetStmt&>(*stmt);
            if (let.init->kind != ExprKind::Cast) continue;
            auto& cast = static_cast<CastExpr&>(*let.init);
            if (!cast.target.is_raw_ptr()) continue;
            if (var_name(*cast.operand) != addr_var) continue;
            let.init = clone(*direct, arena);
            rewired = true;
        }
        return false;
    });
    if (!rewired) return std::nullopt;

    // Remove the now-dead address variable when nothing else uses it.
    if (mentions_outside_decl(program, addr_var) == 0) {
        for_each_block(program, [&](Block& block) {
            const int index = find_stmt(block, [&](const Stmt& stmt) {
                const LetStmt* let = stmt_as_let(stmt);
                return let != nullptr && let->name == addr_var;
            });
            if (index < 0) return false;
            block.statements.erase(block.statements.begin() + index);
            return true;
        });
    }
    return program;
}

MaybeProgram repair_loop_bounds(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    // (a) `while i <= N` -> `while i < N`.
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::While) continue;
            auto& loop = static_cast<WhileStmt&>(*stmt);
            if (loop.condition->kind != ExprKind::Binary) continue;
            auto& cond = static_cast<BinaryExpr&>(*loop.condition);
            if (cond.op == BinaryOp::Le) {
                cond.op = BinaryOp::Lt;
                changed = true;
            }
        }
        return false;
    });
    // (b) a loop bounded by `X - 1` while a sibling loop is bounded by `X`.
    for_each_block(program, [&](Block& block) {
        std::vector<WhileStmt*> loops;
        for (auto& stmt : block.statements) {
            if (stmt->kind == StmtKind::While) {
                loops.push_back(&static_cast<WhileStmt&>(*stmt));
            }
        }
        for (WhileStmt* shorter : loops) {
            if (shorter->condition->kind != ExprKind::Binary) continue;
            auto& cond = static_cast<BinaryExpr&>(*shorter->condition);
            if (cond.rhs->kind != ExprKind::Binary) continue;
            const auto& sub = static_cast<const BinaryExpr&>(*cond.rhs);
            if (sub.op != BinaryOp::Sub) continue;
            if (sub.rhs->kind != ExprKind::IntLit ||
                static_cast<const IntLitExpr&>(*sub.rhs).value != 1) {
                continue;
            }
            for (WhileStmt* longer : loops) {
                if (longer == shorter) continue;
                if (longer->condition->kind != ExprKind::Binary) continue;
                const auto& other =
                    static_cast<const BinaryExpr&>(*longer->condition);
                if (equals(*other.rhs, *sub.lhs)) {
                    cond.rhs = clone(*sub.lhs, arena);
                    changed = true;
                    break;
                }
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram guard_offset_range(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            Stmt& stmt = *block.statements[i];
            if (stmt.kind != StmtKind::Expr && stmt.kind != StmtKind::Let) continue;
            // offset(base, K as isize) with a variable K.
            std::string index;
            std::string base;
            WalkCallbacks callbacks;
            callbacks.on_expr = [&](const Expr& expr, bool) {
                if (!index.empty()) return;
                if (expr.kind != ExprKind::Call) return;
                const auto& call = static_cast<const CallExpr&>(expr);
                if (call.callee != "offset" || call.args.size() != 2) return;
                const std::string k = var_name(strip_casts(*call.args[1]));
                const std::string b = var_name(*call.args[0]);
                if (!k.empty() && !b.empty()) {
                    index = k;
                    base = b;
                }
            };
            if (stmt.kind == StmtKind::Expr) {
                walk_expr(*static_cast<const ExprStmt&>(stmt).expr, callbacks, false);
            } else {
                walk_expr(*static_cast<const LetStmt&>(stmt).init, callbacks, false);
            }
            if (index.empty()) continue;
            // Skip loop counters: the guard idiom targets one-shot accesses.
            // Element count: base's let is `X as *mut T` where X = alloc(N*8, _).
            const LetStmt* base_let = find_let_by_name(program, base);
            if (base_let == nullptr) continue;
            const std::string raw = var_name(strip_casts(*base_let->init));
            const LetStmt* alloc_let = find_alloc_let(program, raw);
            if (alloc_let == nullptr) continue;
            const Expr& size = *alloc_call(*alloc_let).args[0];
            ExprPtr count;
            if (size.kind == ExprKind::Binary &&
                static_cast<const BinaryExpr&>(size).op == BinaryOp::Mul) {
                count = clone(*static_cast<const BinaryExpr&>(size).lhs, arena);
            } else {
                continue;
            }

            ExprPtr cond = mk_binary(
                arena, BinaryOp::And,
                mk_binary(arena, BinaryOp::Ge, mk_var(arena, index), mk_int(arena, 0)),
                mk_binary(arena, BinaryOp::Lt, mk_var(arena, index), std::move(count)));
            Block then_block(arena);
            then_block.statements.push_back(std::move(block.statements[i]));
            block.statements[i] =
                mk_guard(arena, std::move(cond), std::move(then_block), true);
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

// --- uninit --------------------------------------------------------------

MaybeProgram init_after_alloc(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            const LetStmt* let = stmt_as_let(*block.statements[i]);
            if (let == nullptr || let->init->kind != ExprKind::Cast) continue;
            const auto& cast = static_cast<const CastExpr&>(*let->init);
            if (!cast.target.is_raw_ptr() || !cast.target.is_mut()) continue;
            const std::string raw = var_name(*cast.operand);
            if (raw.empty()) continue;
            if (find_alloc_let(program, raw) == nullptr) continue;
            // If the very next use already writes through it, nothing to do.
            const std::string slot(let->name);
            bool next_is_write = false;
            for (std::size_t j = i + 1; j < block.statements.size(); ++j) {
                if (!stmt_mentions(*block.statements[j], slot)) continue;
                if (block.statements[j]->kind == StmtKind::Assign) {
                    const auto& assign =
                        static_cast<const AssignStmt&>(*block.statements[j]);
                    if (assign.place->kind == ExprKind::Unary &&
                        var_name(*static_cast<const UnaryExpr&>(*assign.place)
                                      .operand) == slot) {
                        next_is_write = true;
                    }
                }
                break;
            }
            if (next_is_write) continue;
            // Insert `*slot = 0;` right after the pointer is formed.
            block.statements.insert(
                block.statements.begin() + static_cast<std::ptrdiff_t>(i + 1),
                mk_assign(arena, mk_unary(arena, UnaryOp::Deref, mk_var(arena, slot)),
                          mk_int(arena, 0)));
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram add_else_init(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::If) continue;
            auto& branch = static_cast<IfStmt&>(*stmt);
            if (branch.else_block.has_value()) continue;
            // then-block assigns through *slot?
            std::string slot;
            for (const auto& inner : branch.then_block.statements) {
                if (inner->kind != StmtKind::Assign) continue;
                const auto& assign = static_cast<const AssignStmt&>(*inner);
                if (assign.place->kind != ExprKind::Unary) continue;
                const auto& deref = static_cast<const UnaryExpr&>(*assign.place);
                if (deref.op != UnaryOp::Deref) continue;
                const std::string name = var_name(*deref.operand);
                if (!name.empty()) slot = name;
            }
            if (slot.empty()) continue;
            Block else_block(arena);
            else_block.statements.push_back(
                mk_assign(arena, mk_unary(arena, UnaryOp::Deref, mk_var(arena, slot)),
                          mk_int(arena, 0)));
            branch.else_block = std::move(else_block);
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

// --- borrows ---------------------------------------------------------------

/// Shared machinery for the reorder rules: find `let R = <borrow of X>` at i,
/// the first conflicting statement j > i (new &mut X or assignment to X),
/// and the first statement k > j that mentions R; move k to j.
MaybeProgram reorder_use_before_conflict(const Program& input, bool raw_pointer) {
    Program program = input.clone();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            const LetStmt* let = stmt_as_let(*block.statements[i]);
            if (let == nullptr) continue;
            std::string target;
            if (raw_pointer) {
                // let R = &mut X as *mut T;
                if (let->init->kind != ExprKind::Cast) continue;
                const auto& cast = static_cast<const CastExpr&>(*let->init);
                if (!cast.target.is_raw_ptr()) continue;
                target = addr_of_target(*cast.operand);
            } else {
                // let R = &X;
                target = addr_of_target(*let->init);
            }
            if (target.empty()) continue;
            const std::string borrow(let->name);

            // First conflict after i.
            int conflict = -1;
            for (std::size_t j = i + 1; j < block.statements.size(); ++j) {
                const Stmt& stmt = *block.statements[j];
                if (stmt.kind == StmtKind::Assign &&
                    var_name(*static_cast<const AssignStmt&>(stmt).place) ==
                        target) {
                    conflict = static_cast<int>(j);
                    break;
                }
                if (const LetStmt* other = stmt_as_let(stmt)) {
                    const Expr* borrow_expr = other->init.get();
                    if (borrow_expr->kind == ExprKind::Cast) {
                        borrow_expr =
                            static_cast<const CastExpr&>(*borrow_expr).operand.get();
                    }
                    if (borrow_expr->kind == ExprKind::Unary &&
                        static_cast<const UnaryExpr&>(*borrow_expr).op ==
                            UnaryOp::AddrOfMut &&
                        var_name(*static_cast<const UnaryExpr&>(*borrow_expr)
                                      .operand) == target) {
                        conflict = static_cast<int>(j);
                        break;
                    }
                }
            }
            if (conflict < 0) continue;

            // First use of the borrow after the conflict.
            int use = -1;
            for (std::size_t k = static_cast<std::size_t>(conflict) + 1;
                 k < block.statements.size(); ++k) {
                if (stmt_mentions(*block.statements[k], borrow)) {
                    use = static_cast<int>(k);
                    break;
                }
            }
            if (use < 0) continue;

            move_stmt(block, static_cast<std::size_t>(use),
                      static_cast<std::size_t>(conflict));
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram reorder_borrow_use(const Program& input, const miri::Finding&) {
    return reorder_use_before_conflict(input, /*raw_pointer=*/false);
}

MaybeProgram reorder_raw_use(const Program& input, const miri::Finding&) {
    return reorder_use_before_conflict(input, /*raw_pointer=*/true);
}

MaybeProgram read_place_directly(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            const LetStmt* let = stmt_as_let(*block.statements[i]);
            if (let == nullptr) continue;
            const std::string target = addr_of_target(*let->init);
            if (target.empty()) continue;
            const std::string borrow(let->name);
            // Is there a write to the target after the borrow?
            int conflict = -1;
            for (std::size_t j = i + 1; j < block.statements.size(); ++j) {
                const Stmt& stmt = *block.statements[j];
                const bool direct_write =
                    stmt.kind == StmtKind::Assign &&
                    var_name(*static_cast<const AssignStmt&>(stmt).place) == target;
                const LetStmt* other = stmt_as_let(stmt);
                const bool new_mut =
                    other != nullptr && addr_of_target(*other->init) == target &&
                    other->init->kind == ExprKind::Unary &&
                    static_cast<const UnaryExpr&>(*other->init).op ==
                        UnaryOp::AddrOfMut;
                if (direct_write || new_mut) {
                    conflict = static_cast<int>(j);
                    break;
                }
            }
            if (conflict < 0) continue;
            // Rewrite `*borrow` -> `target` in the last statement using it.
            int use = -1;
            for (std::size_t k = block.statements.size(); k-- > 0;) {
                if (static_cast<int>(k) <= conflict) break;
                if (stmt_mentions(*block.statements[k], borrow)) {
                    use = static_cast<int>(k);
                    break;
                }
            }
            if (use < 0) continue;
            Block wrapper(arena);
            wrapper.statements.push_back(std::move(block.statements[use]));
            const int rewrites = rewrite_exprs_in_block(
                wrapper, [&](const Expr& expr) -> std::optional<ExprPtr> {
                    if (expr.kind != ExprKind::Unary) return std::nullopt;
                    const auto& deref = static_cast<const UnaryExpr&>(expr);
                    if (deref.op != UnaryOp::Deref) return std::nullopt;
                    if (var_name(*deref.operand) != borrow) return std::nullopt;
                    return mk_var(arena, target);
                });
            block.statements[use] = std::move(wrapper.statements[0]);
            if (rewrites > 0) {
                changed = true;
                return true;
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram mut_raw_from_mut(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    std::string shared_var;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::Let) continue;
            auto& let = static_cast<LetStmt&>(*stmt);
            // let R = S as *const T as *mut T  (S = &X)
            if (let.init->kind != ExprKind::Cast) continue;
            auto& outer = static_cast<CastExpr&>(*let.init);
            if (!outer.target.is_raw_ptr() || !outer.target.is_mut()) continue;
            if (outer.operand->kind != ExprKind::Cast) continue;
            const auto& inner = static_cast<const CastExpr&>(*outer.operand);
            if (!inner.target.is_raw_ptr() || inner.target.is_mut()) continue;
            const std::string source = var_name(*inner.operand);
            if (source.empty()) continue;
            const LetStmt* source_let = find_let_by_name(program, source);
            if (source_let == nullptr) continue;
            const std::string place = addr_of_target(*source_let->init);
            if (place.empty()) continue;
            // Rebuild: let R = &mut X as *mut T;
            let.init = mk_cast(
                arena, mk_unary(arena, UnaryOp::AddrOfMut, mk_var(arena, place)),
                outer.target);
            shared_var = source;
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    if (!shared_var.empty() && mentions_outside_decl(program, shared_var) == 0) {
        for_each_block(program, [&](Block& block) {
            const int index = find_stmt(block, [&](const Stmt& stmt) {
                const LetStmt* let = stmt_as_let(stmt);
                return let != nullptr && let->name == shared_var;
            });
            if (index < 0) return false;
            block.statements.erase(block.statements.begin() + index);
            return true;
        });
    }
    return program;
}

}  // namespace

std::vector<RepairRule> memory_rules() {
    std::vector<RepairRule> rules;
    auto add = [&](std::string id, RuleFamily family,
                   std::vector<UbCategory> categories, auto fn) {
        RepairRule rule;
        rule.id = std::move(id);
        rule.family = family;
        rule.categories = std::move(categories);
        rule.apply = fn;
        rules.push_back(std::move(rule));
    };

    add("remove-duplicate-dealloc", RuleFamily::Modification,
        {UbCategory::Alloc, UbCategory::DanglingPointer}, remove_duplicate_dealloc);
    add("match-dealloc-layout", RuleFamily::Modification, {UbCategory::Alloc},
        match_dealloc_layout);
    add("insert-missing-dealloc", RuleFamily::Modification, {UbCategory::Alloc},
        insert_missing_dealloc);
    add("move-dealloc-to-end", RuleFamily::Modification,
        {UbCategory::DanglingPointer, UbCategory::Alloc}, move_dealloc_to_end);
    add("hoist-declaration", RuleFamily::Modification,
        {UbCategory::DanglingPointer}, hoist_declaration);
    add("guard-null-check", RuleFamily::Assertion,
        {UbCategory::DanglingPointer, UbCategory::Provenance}, guard_null_check);
    add("guard-index-bound", RuleFamily::Assertion, {UbCategory::Panic},
        guard_index_bound);
    add("guard-divisor", RuleFamily::Assertion, {UbCategory::Panic}, guard_divisor);
    add("widen-to-i64", RuleFamily::SafeReplacement, {UbCategory::Panic},
        widen_to_i64);
    add("use-direct-pointer", RuleFamily::SafeReplacement,
        {UbCategory::Provenance}, use_direct_pointer);
    add("repair-loop-bounds", RuleFamily::Modification,
        {UbCategory::Provenance, UbCategory::Uninit}, repair_loop_bounds);
    add("guard-offset-range", RuleFamily::Assertion, {UbCategory::Provenance},
        guard_offset_range);
    add("init-after-alloc", RuleFamily::Modification, {UbCategory::Uninit},
        init_after_alloc);
    add("add-else-init", RuleFamily::Modification, {UbCategory::Uninit},
        add_else_init);
    add("reorder-borrow-use", RuleFamily::Modification, {UbCategory::BothBorrow},
        reorder_borrow_use);
    add("read-place-directly", RuleFamily::SafeReplacement,
        {UbCategory::BothBorrow}, read_place_directly);
    add("reorder-raw-use", RuleFamily::Modification, {UbCategory::StackBorrow},
        reorder_raw_use);
    add("mut-raw-from-mut", RuleFamily::SafeReplacement, {UbCategory::StackBorrow},
        mut_raw_from_mut);
    return rules;
}

}  // namespace rustbrain::llm
