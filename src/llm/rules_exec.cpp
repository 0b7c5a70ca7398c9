// Repair rules for execution & concurrency UB: function pointers, tail
// calls, validity punning, alignment, threads and locks.
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

bool program_spawns(const Program& program) {
    bool found = false;
    WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        if (expr.kind == ExprKind::Call &&
            static_cast<const CallExpr&>(expr).callee == "spawn") {
            found = true;
        }
    };
    walk_program(program, callbacks);
    return found;
}

/// Trace a fn-pointer cast chain back to the underlying program function:
/// either directly `F as ...`, through a local holding `F`, or through an
/// integer-address local `let A = F as usize (+ arithmetic)`.
const FnItem* trace_fn_origin(const Program& program, const Expr& expr) {
    const Expr& stripped = strip_casts(expr);
    if (stripped.kind == ExprKind::VarRef) {
        const std::string name = var_name(stripped);
        if (const FnItem* fn = program.find_function(name)) return fn;
        if (const LetStmt* let = find_let_by_name(program, name)) {
            return trace_fn_origin(program, *let->init);
        }
        return nullptr;
    }
    if (stripped.kind == ExprKind::Binary) {
        // Address arithmetic, e.g. `F as usize + 8`: trace the lhs.
        return trace_fn_origin(program,
                               *static_cast<const BinaryExpr&>(stripped).lhs);
    }
    return nullptr;
}

// --- threads --------------------------------------------------------------

MaybeProgram atomicize_shared_access(const Program& input, const miri::Finding&) {
    if (!program_spawns(input)) return std::nullopt;
    // Candidate statics: i64 static muts not used as mutex/thread handles.
    std::vector<std::string> shared;
    for (const auto& item : input.statics) {
        if (!item.is_mut || !(item.type == Type::i64())) continue;
        bool is_handle = false;
        WalkCallbacks callbacks;
        callbacks.on_expr = [&](const Expr& expr, bool) {
            if (expr.kind != ExprKind::Call) return;
            const auto& call = static_cast<const CallExpr&>(expr);
            if (call.callee != "mutex_lock" && call.callee != "mutex_unlock" &&
                call.callee != "join") {
                return;
            }
            for (const auto& arg : call.args) {
                if (var_name(*arg) == item.name) is_handle = true;
            }
        };
        walk_program(input, callbacks);
        // Statics initialized from mutex_new via assignment are handles too.
        WalkCallbacks assign_scan;
        assign_scan.on_stmt = [&](const Stmt& stmt, bool) {
            if (stmt.kind != StmtKind::Assign) return;
            const auto& assign = static_cast<const AssignStmt&>(stmt);
            if (var_name(*assign.place) == item.name &&
                assign.value->kind == ExprKind::Call &&
                static_cast<const CallExpr&>(*assign.value).callee == "mutex_new") {
                is_handle = true;
            }
        };
        walk_program(input, assign_scan);
        if (!is_handle) shared.emplace_back(item.name);
    }
    if (shared.empty()) return std::nullopt;

    Program program = input.clone();

    AstArena& arena = program.arena();
    const Type mut_i64_ptr = program.types().raw_ptr(Type::i64(), true);
    const Type const_i64_ptr = program.types().raw_ptr(Type::i64(), false);
    auto atomic_ptr = [&](const std::string& name) {
        return mk_cast(arena, mk_unary(arena, UnaryOp::AddrOfMut, mk_var(arena, name)),
                       mut_i64_ptr);
    };
    bool changed = false;
    for (const std::string& name : shared) {
        // Reads: G -> atomic_load(&mut G as *mut i64 as *const i64). Assign
        // places are handled below (rewrite_exprs never sees Assign places
        // as replacements because we rewrite statements first).
        for_each_block(program, [&](Block& block) {
            for (auto& stmt : block.statements) {
                if (stmt->kind != StmtKind::Assign) continue;
                auto& assign = static_cast<AssignStmt&>(*stmt);
                if (var_name(*assign.place) != name) continue;
                // G = V  ->  { let tmp = V; atomic_store(&mut G as *mut i64,
                // tmp); } The temporary forces V (which may itself read G
                // atomically, retagging it) to evaluate *before* the store's
                // pointer is formed; otherwise the value's retag would
                // invalidate the pointer's borrow tag mid-call.
                const std::string tmp = "__rb_tmp_" + name;
                auto wrapper = arena.make<BlockStmt>();
                wrapper->block.statements.push_back(
                    mk_let(arena, tmp, false, std::move(assign.value), Type::i64()));
                ExprList args(arena);
                args.push_back(atomic_ptr(name));
                args.push_back(mk_var(arena, tmp));
                wrapper->block.statements.push_back(
                    mk_expr_stmt(arena, mk_call(arena, "atomic_store", std::move(args))));
                stmt = std::move(wrapper);
                changed = true;
            }
            return false;
        });
        int real_reads = 0;
        rewrite_exprs(program, [&](const Expr& expr) -> std::optional<ExprPtr> {
            // `&mut G` subtrees (including the ones this rule just created)
            // are addresses, not reads: self-clone to stop recursion into
            // them without changing anything.
            if (expr.kind == ExprKind::Unary) {
                const auto& unary = static_cast<const UnaryExpr&>(expr);
                if ((unary.op == UnaryOp::AddrOf ||
                     unary.op == UnaryOp::AddrOfMut) &&
                    var_name(*unary.operand) == name) {
                    return clone(expr, arena);
                }
            }
            if (var_name(expr) != name) return std::nullopt;
            ++real_reads;
            ExprList args(arena);
            args.push_back(
                mk_cast(arena, atomic_ptr(name), const_i64_ptr));
            return mk_call(arena, "atomic_load", std::move(args));
        });
        changed |= real_reads > 0;
    }
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram reorder_join_before_access(const Program& input,
                                        const miri::Finding&) {
    Program program = input.clone();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        // spawn at s, a shared-static access at a > s, join at j > a.
        int spawn_at = find_stmt(block, [](const Stmt& stmt) {
            const auto* let =
                stmt.kind == StmtKind::Let
                    ? &static_cast<const LetStmt&>(stmt)
                    : nullptr;
            return let != nullptr && let->init->kind == ExprKind::Call &&
                   static_cast<const CallExpr&>(*let->init).callee == "spawn";
        });
        if (spawn_at < 0) return false;
        int join_at = find_stmt(
            block,
            [](const Stmt& stmt) { return stmt_calls(stmt, "join"); },
            spawn_at + 1);
        if (join_at < 0) return false;
        // Any static-mut access strictly between them?
        bool access_between = false;
        for (int i = spawn_at + 1; i < join_at; ++i) {
            for (const auto& item : program.statics) {
                if (item.is_mut && stmt_mentions(*block.statements[i], item.name)) {
                    access_between = true;
                }
            }
        }
        if (!access_between) return false;
        move_stmt(block, static_cast<std::size_t>(join_at),
                  static_cast<std::size_t>(spawn_at) + 1);
        changed = true;
        return true;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram add_missing_join(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            const LetStmt* let = stmt_as_let(*block.statements[i]);
            if (let == nullptr || let->init->kind != ExprKind::Call) continue;
            if (static_cast<const CallExpr&>(*let->init).callee != "spawn") continue;
            // join(handle) anywhere?
            bool joined = false;
            WalkCallbacks callbacks;
            callbacks.on_expr = [&](const Expr& expr, bool) {
                if (expr.kind != ExprKind::Call) return;
                const auto& call = static_cast<const CallExpr&>(expr);
                if (call.callee == "join" && !call.args.empty() &&
                    var_name(*call.args[0]) == let->name) {
                    joined = true;
                }
            };
            walk_program(program, callbacks);
            if (joined) continue;
            ExprList args(arena);
            args.push_back(mk_var(arena, let->name));
            block.statements.insert(
                block.statements.begin() + static_cast<std::ptrdiff_t>(i + 1),
                mk_expr_stmt(arena, mk_call(arena, "join", std::move(args))));
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

MaybeProgram remove_duplicate_join(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (std::size_t i = 0; i < block.statements.size() && !changed; ++i) {
            const CallExpr* first = stmt_as_call(*block.statements[i], "join");
            if (first == nullptr || first->args.empty()) continue;
            for (std::size_t j = i + 1; j < block.statements.size(); ++j) {
                const CallExpr* second = stmt_as_call(*block.statements[j], "join");
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

MaybeProgram balance_mutex_lock(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        int first_lock = -1;
        for (std::size_t i = 0; i < block.statements.size(); ++i) {
            const CallExpr* lock = stmt_as_call(*block.statements[i], "mutex_lock");
            const CallExpr* unlock =
                stmt_as_call(*block.statements[i], "mutex_unlock");
            if (unlock != nullptr) {
                first_lock = -1;
                continue;
            }
            if (lock == nullptr || lock->args.empty()) continue;
            if (first_lock < 0) {
                first_lock = static_cast<int>(i);
                continue;
            }
            const CallExpr* previous =
                stmt_as_call(*block.statements[static_cast<std::size_t>(first_lock)],
                             "mutex_lock");
            if (previous != nullptr &&
                equals(*previous->args[0], *lock->args[0])) {
                // Re-lock without an unlock in between: insert the unlock.
                ExprList args(arena);
                args.push_back(clone(*lock->args[0], arena));
                block.statements.insert(
                    block.statements.begin() + static_cast<std::ptrdiff_t>(i),
                    mk_expr_stmt(arena, mk_call(arena, "mutex_unlock", std::move(args))));
                changed = true;
                return true;
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

// --- function pointers ---------------------------------------------------

MaybeProgram fix_fnptr_cast_sig(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    std::string cast_var;
    Type correct_sig;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::Let) continue;
            auto& let = static_cast<LetStmt&>(*stmt);
            if (let.init->kind != ExprKind::Cast) continue;
            auto& cast = static_cast<CastExpr&>(*let.init);
            if (!cast.target.is_fn_ptr()) continue;
            const FnItem* origin = trace_fn_origin(program, *cast.operand);
            if (origin == nullptr) continue;
            if (origin->has_fn_type(cast.target)) continue;
            const Type actual = origin->fn_type(program.types());
            cast.target = actual;
            cast_var = let.name;
            correct_sig = actual;
            changed = true;
            return true;
        }
        return false;
    });
    if (!changed) return std::nullopt;

    // Adjust call sites through the re-typed variable: arity padding with 0s.
    rewrite_exprs(program, [&](const Expr& expr) -> std::optional<ExprPtr> {
        if (expr.kind != ExprKind::Call) return std::nullopt;
        const auto& call = static_cast<const CallExpr&>(expr);
        if (call.callee != cast_var) return std::nullopt;
        const std::size_t want = correct_sig.fn_params().size();
        if (call.args.size() == want) return std::nullopt;
        auto patched = arena.make<CallExpr>();
        patched->callee = arena.name(call.callee);
        for (std::size_t i = 0; i < want; ++i) {
            patched->args.push_back(i < call.args.size() ? clone(*call.args[i], arena)
                                                         : mk_int(arena, 0));
        }
        return ExprPtr(std::move(patched));
    });
    return program;
}

MaybeProgram direct_call_replace(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    // Find `let H = <expr> as fn-sig;` then calls through H; replace the
    // call with a direct call to the traced (or unique signature-compatible)
    // program function.
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            const LetStmt* let = stmt_as_let(*stmt);
            if (let == nullptr || let->init->kind != ExprKind::Cast) continue;
            const auto& cast = static_cast<const CastExpr&>(*let->init);
            if (!cast.target.is_fn_ptr()) continue;
            const FnItem* target = trace_fn_origin(program, *cast.operand);
            if (target == nullptr) {
                // No traceable origin (e.g. a bogus constant): fall back to
                // the unique non-main function with the cast's signature.
                const FnItem* unique = nullptr;
                for (const auto& fn : program.functions) {
                    if (fn.name == "main") continue;
                    if (fn.has_fn_type(cast.target)) {
                        if (unique != nullptr) {
                            unique = nullptr;
                            break;
                        }
                        unique = &fn;
                    }
                }
                target = unique;
            }
            if (target == nullptr) continue;
            const std::string handle(let->name);
            const std::string fn_name(target->name);
            const int rewrites = rewrite_exprs(
                program, [&](const Expr& expr) -> std::optional<ExprPtr> {
                    if (expr.kind != ExprKind::Call) return std::nullopt;
                    const auto& call = static_cast<const CallExpr&>(expr);
                    if (call.callee != handle) return std::nullopt;
                    auto direct = arena.make<CallExpr>();
                    direct->callee = arena.name(fn_name);
                    for (const auto& arg : call.args) {
                        direct->args.push_back(clone(*arg, arena));
                    }
                    return ExprPtr(std::move(direct));
                });
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

// --- tail calls -------------------------------------------------------------

MaybeProgram become_to_return_call(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for (auto& fn : program.functions) {
        if (changed) break;
        // Find a become statement anywhere in this function.
        std::function<bool(Block&)> visit = [&](Block& block) -> bool {
            for (auto& stmt : block.statements) {
                if (stmt->kind == StmtKind::Become) {
                    auto& become = static_cast<BecomeStmt&>(*stmt);
                    const std::string callee_name = var_name(*become.callee);
                    const FnItem* target = program.find_function(callee_name);
                    ExprPtr call;
                    if (target != nullptr) {
                        // Direct become: keep callee and arguments.
                        auto direct = arena.make<CallExpr>();
                        direct->callee = arena.name(callee_name);
                        for (auto& arg : become.args) {
                            direct->args.push_back(clone(*arg, arena));
                        }
                        call = std::move(direct);
                    } else {
                        // Through a fn-pointer local: trace its origin.
                        const LetStmt* let = find_let_by_name(program, callee_name);
                        const FnItem* origin =
                            let != nullptr ? trace_fn_origin(program, *let->init)
                                           : nullptr;
                        if (origin == nullptr) {
                            // Fall back to the unique non-main fn returning the
                            // enclosing fn's type.
                            for (const auto& candidate : program.functions) {
                                if (candidate.name == "main" ||
                                    candidate.name == fn.name) {
                                    continue;
                                }
                                if (candidate.return_type == fn.return_type) {
                                    if (origin != nullptr) {
                                        origin = nullptr;
                                        break;
                                    }
                                    origin = &candidate;
                                }
                            }
                        }
                        if (origin == nullptr) continue;
                        // Arguments: map target params to the enclosing fn's
                        // params by position, pad with zeros.
                        auto direct = arena.make<CallExpr>();
                        direct->callee = arena.name(origin->name);
                        for (std::size_t i = 0; i < origin->params.size(); ++i) {
                            if (i < fn.params.size() &&
                                fn.params[i].type == origin->params[i].type) {
                                direct->args.push_back(mk_var(arena, fn.params[i].name));
                            } else {
                                direct->args.push_back(mk_int(arena, 0));
                            }
                        }
                        call = std::move(direct);
                    }
                    stmt = mk_return(arena, std::move(call));
                    changed = true;
                    return true;
                }
                bool found = false;
                for_each_child(*stmt, Overload{
                    [](ExprPtr&) {},
                    [&](Block& inner) { found = found || visit(inner); },
                });
                if (found) return true;
            }
            return false;
        };
        visit(fn.body);
    }
    if (!changed) return std::nullopt;
    return program;
}

// --- validity / alignment ----------------------------------------------------

MaybeProgram valid_bool_compare(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    const int rewrites = rewrite_exprs(
        program, [&](const Expr& expr) -> std::optional<ExprPtr> {
            // *P where P: `<bytes> as *const bool`  ->  *<bytes> != 0
            if (expr.kind != ExprKind::Unary) return std::nullopt;
            const auto& deref = static_cast<const UnaryExpr&>(expr);
            if (deref.op != UnaryOp::Deref) return std::nullopt;
            const Expr* source = deref.operand.get();
            if (source->kind == ExprKind::VarRef) {
                const LetStmt* let =
                    find_let_by_name(program, var_name(*source));
                if (let == nullptr) return std::nullopt;
                source = let->init.get();
            }
            if (source->kind != ExprKind::Cast) return std::nullopt;
            const auto& cast = static_cast<const CastExpr&>(*source);
            if (!cast.target.is_raw_ptr() || !cast.target.element().is_bool()) {
                return std::nullopt;
            }
            return mk_binary(arena, BinaryOp::Ne,
                             mk_unary(arena, UnaryOp::Deref, clone(*cast.operand, arena)),
                             mk_int(arena, 0));
        });
    if (rewrites == 0) return std::nullopt;
    return program;
}

MaybeProgram element_offset(const Program& input, const miri::Finding&) {
    Program program = input.clone();
    AstArena& arena = program.arena();
    bool changed = false;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind != StmtKind::Let) continue;
            auto& let = static_cast<LetStmt&>(*stmt);
            // Pattern A: let S = offset(B, k) as *T where B = (wide as *u8)
            //   -> let S = offset(wide, k)
            // Pattern B: let S = offset(B, k) as *mut W where B is a u8
            //   heap pointer -> scale k by size(W).
            const Expr* init = let.init.get();
            if (init->kind != ExprKind::Cast) continue;
            const auto& cast = static_cast<const CastExpr&>(*init);
            if (!cast.target.is_raw_ptr()) continue;
            const Type wide = cast.target.element();
            if (wide.size_bytes() <= 1) continue;
            if (cast.operand->kind != ExprKind::Call) continue;
            const auto& call = static_cast<const CallExpr&>(*cast.operand);
            if (call.callee != "offset" || call.args.size() != 2) continue;
            const std::string base = var_name(*call.args[0]);
            if (base.empty()) continue;
            const LetStmt* base_let = find_let_by_name(program, base);
            if (base_let == nullptr) continue;

            if (base_let->init->kind == ExprKind::Cast) {
                const auto& base_cast =
                    static_cast<const CastExpr&>(*base_let->init);
                if (base_cast.target.is_raw_ptr() &&
                    base_cast.target.element() == Type::u8() &&
                    base_cast.operand->kind == ExprKind::Cast) {
                    const auto& wide_cast =
                        static_cast<const CastExpr&>(*base_cast.operand);
                    if (wide_cast.target.is_raw_ptr() &&
                        wide_cast.target.element() == wide) {
                        // Pattern A: offset the wide-typed pointer instead.
                        ExprList args(arena);
                        args.push_back(clone(*base_cast.operand, arena));
                        args.push_back(clone(*call.args[1], arena));
                        let.init = mk_call(arena, "offset", std::move(args));
                        changed = true;
                        return true;
                    }
                }
            }
            if (base_let->init->kind == ExprKind::Call &&
                static_cast<const CallExpr&>(*base_let->init).callee == "alloc" &&
                call.args[1]->kind == ExprKind::IntLit) {
                // Pattern B: byte offset must be a multiple of the element
                // size; scale the literal.
                const auto k = static_cast<const IntLitExpr&>(*call.args[1]).value;
                if (k % wide.size_bytes() != 0) {
                    ExprList args(arena);
                    args.push_back(clone(*call.args[0], arena));
                    args.push_back(mk_int(arena, k * wide.size_bytes()));
                    let.init = mk_cast(arena, mk_call(arena, "offset", std::move(args)),
                                       cast.target);
                    changed = true;
                    return true;
                }
            }
        }
        return false;
    });
    if (!changed) return std::nullopt;
    return program;
}

}  // namespace

std::vector<RepairRule> exec_rules() {
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

    add("atomicize-shared-access", RuleFamily::SafeReplacement,
        {UbCategory::DataRace}, atomicize_shared_access);
    add("reorder-join-before-access", RuleFamily::Modification,
        {UbCategory::DataRace}, reorder_join_before_access);
    add("add-missing-join", RuleFamily::Modification, {UbCategory::Concurrency},
        add_missing_join);
    add("remove-duplicate-join", RuleFamily::Modification,
        {UbCategory::Concurrency}, remove_duplicate_join);
    add("balance-mutex-lock", RuleFamily::Modification, {UbCategory::Concurrency},
        balance_mutex_lock);
    add("fix-fnptr-cast-sig", RuleFamily::Modification,
        {UbCategory::FuncPointer, UbCategory::FuncCall}, fix_fnptr_cast_sig);
    add("direct-call-replace", RuleFamily::SafeReplacement,
        {UbCategory::FuncCall, UbCategory::FuncPointer}, direct_call_replace);
    add("become-to-return-call", RuleFamily::SafeReplacement,
        {UbCategory::TailCall}, become_to_return_call);
    add("valid-bool-compare", RuleFamily::SafeReplacement, {UbCategory::Validity},
        valid_bool_compare);
    add("element-offset", RuleFamily::Modification, {UbCategory::Unaligned},
        element_offset);
    return rules;
}

}  // namespace rustbrain::llm
