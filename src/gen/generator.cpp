#include "gen/generator.hpp"

#include <algorithm>
#include <utility>

#include "analysis/ast_edit.hpp"
#include "gen/shape_template.hpp"
#include "lang/ast.hpp"
#include "lang/printer.hpp"

namespace rustbrain::gen {

namespace detail {

MutationPlan sample_plan(support::Rng& rng, const MutationKnobs& knobs) {
    MutationPlan plan;
    if (knobs.max_nesting > 0) {
        plan.nesting = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(knobs.max_nesting) + 1));
    }
    int pads = 0;
    if (knobs.max_padding > 0) {
        pads = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(knobs.max_padding) + 1));
    }
    static const std::vector<std::string> kPadNames = {
        "pad_idle", "pad_scratch", "pad_spare", "pad_stash", "pad_slack"};
    for (int i = 0; i < pads; ++i) {
        PadSpec pad;
        pad.kind = static_cast<int>(rng.next_below(3));
        pad.name =
            detail::pick(rng, kPadNames) + "_" + std::to_string(i);
        pad.a = rng.next_range(1, 90);
        pad.b = rng.next_range(1, 9);
        if (rng.chance(0.5)) {
            plan.front_pads.push_back(std::move(pad));
        } else {
            plan.back_pads.push_back(std::move(pad));
        }
    }
    if (knobs.helpers && rng.chance(0.4)) {
        static const std::vector<std::string> kHelperNames = {
            "unused_route", "unused_blend", "unused_probe", "unused_tally"};
        plan.helper = true;
        plan.helper_name = detail::pick(rng, kHelperNames);
        plan.helper_mul = rng.next_range(2, 9);
        plan.helper_add = rng.next_range(0, 99);
    }
    return plan;
}

}  // namespace detail

namespace {

lang::ExprPtr make_int(lang::AstArena& arena, std::int64_t value) {
    return analysis::mk_int(arena, static_cast<std::uint64_t>(value));
}

lang::StmtPtr make_let(lang::AstArena& arena, const std::string& name, bool is_mut,
                       lang::ExprPtr init) {
    return analysis::mk_let(arena, name, is_mut, std::move(init), lang::Type::i64());
}

/// Append one pad spec's statements (1 or 2 of them) to `out`.
void append_pad(lang::AstArena& arena, const detail::PadSpec& pad, lang::StmtList& out) {
    using analysis::mk_binary;
    using analysis::mk_var;
    switch (pad.kind) {
        case 0:
            out.push_back(make_let(arena, pad.name, false, make_int(arena, pad.a)));
            break;
        case 1:
            out.push_back(make_let(
                arena, pad.name, false,
                mk_binary(arena, lang::BinaryOp::Add,
                          mk_binary(arena, lang::BinaryOp::Mul, make_int(arena, pad.a),
                                    make_int(arena, pad.b)),
                          make_int(arena, pad.b))));
            break;
        default: {
            out.push_back(make_let(arena, pad.name, true, make_int(arena, 0)));
            auto loop = arena.make<lang::WhileStmt>();
            loop->condition = mk_binary(arena, lang::BinaryOp::Lt,
                                        mk_var(arena, pad.name), make_int(arena, pad.b));
            loop->body.statements.push_back(analysis::mk_assign(
                arena, mk_var(arena, pad.name),
                mk_binary(arena, lang::BinaryOp::Add, mk_var(arena, pad.name),
                          make_int(arena, 1))));
            out.push_back(std::move(loop));
            break;
        }
    }
}

}  // namespace

namespace detail {

void apply_plan(lang::Program& program, const MutationPlan& plan) {
    lang::AstArena& arena = program.arena();
    lang::FnItem* main_fn = program.find_function("main");
    if (main_fn != nullptr) {
        // Wrap the existing body in `nesting` plain blocks. Everything the
        // body declares stays in scope for the whole (wrapped) body, so this
        // is behavior-preserving for any program that only runs `main` once.
        for (int level = 0; level < plan.nesting; ++level) {
            auto wrapper = arena.make<lang::BlockStmt>();
            wrapper->block.statements = std::move(main_fn->body.statements);
            main_fn->body.statements = lang::StmtList(arena);
            main_fn->body.statements.push_back(std::move(wrapper));
        }
        // Dead-code padding around the wrapped body. Pads never print, never
        // touch existing locals and never overflow, so the observable trace
        // is untouched.
        lang::StmtList body(arena);
        for (const PadSpec& pad : plan.front_pads) append_pad(arena, pad, body);
        for (auto& stmt : main_fn->body.statements) body.push_back(std::move(stmt));
        for (const PadSpec& pad : plan.back_pads) append_pad(arena, pad, body);
        main_fn->body.statements = std::move(body);
    }
    if (plan.helper && program.find_function(plan.helper_name) == nullptr) {
        using analysis::mk_binary;
        lang::FnItem helper(arena);
        helper.name = arena.name(plan.helper_name);
        helper.params.push_back({arena.name("x"), lang::Type::i64()});
        helper.return_type = lang::Type::i64();
        helper.body.statements.push_back(analysis::mk_return(
            arena, mk_binary(arena, lang::BinaryOp::Add,
                             mk_binary(arena, lang::BinaryOp::Mul,
                                       analysis::mk_var(arena, "x"),
                                       make_int(arena, plan.helper_mul)),
                             make_int(arena, plan.helper_add))));
        program.functions.push_back(std::move(helper));
    }
    program.renumber();
}

}  // namespace detail

namespace {

using detail::MutationPlan;

/// Mutate -> print: applies `plan` to `program`, prints it respanned into
/// `source`, and returns a clone of it whose arena is sized from what the
/// program uses, so a cached copy carries none of the mutation's growth.
lang::Program mutate(lang::Program program, const MutationPlan& plan, std::string& source) {
    detail::apply_plan(program, plan);
    source = lang::print_respanned(program);
    return program.clone();
}

}  // namespace

namespace detail {

CaseGenerator::Parsed build_case(Draft drafted, const MutationPlan& plan) {
    const dataset::Shape& shape = *drafted.shape;
    ShapePrograms programs = instantiate(shape, drafted.args);
    dataset::UbCase out = shape.bare_case(std::move(drafted.inputs));
    lang::Program buggy = mutate(std::move(programs.buggy), plan, out.buggy_source);
    lang::Program fix = mutate(std::move(programs.fix), plan, out.reference_fix);
    // Mutations that add real structure make the program harder to read —
    // reflect that in the difficulty the expert-time model and SimLLM see.
    if (plan.nesting >= 2 ||
        plan.front_pads.size() + plan.back_pads.size() >= 3) {
        out.difficulty = std::min(3, out.difficulty + 1);
    }
    return {std::move(out), std::move(buggy), std::move(fix)};
}

}  // namespace detail

CaseGenerator::Parsed CaseGenerator::generate_parsed(support::Rng& rng) const {
    Draft drafted = spec_.draft(rng);
    const MutationPlan plan = detail::sample_plan(rng, knobs_);
    return detail::build_case(std::move(drafted), plan);
}

}  // namespace rustbrain::gen
