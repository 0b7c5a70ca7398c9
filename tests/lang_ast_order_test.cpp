// The child order (DESIGN.md §3) is written once, in lang::for_each_child,
// and every structural walk is built on it. Over the standard corpus (buggy
// and fixed), the seed-7 and seed-42 forges and mutated corpus programs
// that still parse, this checks that
//  * renumber() gives every node the id the old per-kind numbering pass
//    (ast_reference.hpp) gives it, and returns node_count();
//  * analysis::walk_program visits node ids in strictly ascending order;
//  * a no-op rewrite_exprs offers the function-body expressions in the
//    order walk_program visits them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ast_edit.hpp"
#include "analysis/walk.hpp"
#include "ast_reference.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "lang/parser.hpp"
#include "mutation.hpp"
#include "support/rng.hpp"
#include "tree_digest.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::lang {
namespace {

/// Statement and expression ids in walk_program's visit order.
std::vector<NodeId> walk_order(const Program& program) {
    std::vector<NodeId> ids;
    analysis::WalkCallbacks callbacks;
    callbacks.on_stmt = [&](const Stmt& stmt, bool) { ids.push_back(stmt.id); };
    callbacks.on_expr = [&](const Expr& expr, bool) { ids.push_back(expr.id); };
    analysis::walk_program(program, callbacks);
    return ids;
}

std::vector<NodeId> item_ids(const Program& program) {
    std::vector<NodeId> ids;
    for (const StaticItem& item : program.statics) ids.push_back(item.id);
    for (const FnItem& fn : program.functions) ids.push_back(fn.id);
    return ids;
}

/// Runs every check on `source`. Returns the number of nodes compared, or
/// nothing when the source does not parse.
std::optional<std::size_t> check_order(const std::string& source) {
    std::optional<Program> program = try_parse(source);
    if (!program) return std::nullopt;
    Program reference = program->clone();
    const std::uint32_t count = program->renumber();
    EXPECT_EQ(count, program->node_count());
    EXPECT_EQ(ast_reference::renumber(reference), count);

    // Both trees have one shape, so equal sequences mean equal ids node by
    // node.
    const std::vector<NodeId> ids = walk_order(*program);
    EXPECT_EQ(ids, walk_order(reference));
    EXPECT_EQ(item_ids(*program), item_ids(reference));
    EXPECT_EQ(ids.size() + program->statics.size() + program->functions.size(),
              count);
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()),
              ids.end())
        << "walk_program visits ids out of order";

    std::vector<NodeId> offered;
    EXPECT_EQ(analysis::rewrite_exprs(*program,
                                      [&](const Expr& expr) -> std::optional<ExprPtr> {
                                          offered.push_back(expr.id);
                                          return std::nullopt;
                                      }),
              0);
    std::vector<NodeId> walked;
    analysis::WalkCallbacks exprs;
    exprs.on_expr = [&](const Expr& expr, bool) { walked.push_back(expr.id); };
    for (const FnItem& fn : program->functions) {
        analysis::walk_block(fn.body, exprs, fn.is_unsafe);
    }
    EXPECT_EQ(offered, walked);
    return ids.size();
}

/// check_order over `sources`; returns the total compared.
std::size_t check_all(const std::vector<std::string>& sources) {
    std::size_t compared = 0;
    for (const std::string& source : sources) {
        SCOPED_TRACE(source);
        const std::optional<std::size_t> nodes = check_order(source);
        EXPECT_TRUE(nodes.has_value()) << "does not parse";
        compared += nodes.value_or(0);
    }
    return compared;
}

std::vector<std::string> sources_of(const dataset::Corpus& corpus) {
    std::vector<std::string> out;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        out.push_back(ub_case.buggy_source);
        out.push_back(ub_case.reference_fix);
    }
    return out;
}

TEST(AstOrderTest, EveryNodeKindMatchesTheReference) {
    const std::optional<Program> program = try_parse(kEveryNodeKind);
    ASSERT_TRUE(program.has_value());
    std::vector<bool> expr_kinds(static_cast<std::size_t>(ExprKind::ArrayRepeat) + 1);
    std::vector<bool> stmt_kinds(static_cast<std::size_t>(StmtKind::Become) + 1);
    analysis::WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        expr_kinds[static_cast<std::size_t>(expr.kind)] = true;
    };
    callbacks.on_stmt = [&](const Stmt& stmt, bool) {
        stmt_kinds[static_cast<std::size_t>(stmt.kind)] = true;
    };
    analysis::walk_program(*program, callbacks);
    EXPECT_EQ(std::count(expr_kinds.begin(), expr_kinds.end(), false), 0);
    EXPECT_EQ(std::count(stmt_kinds.begin(), stmt_kinds.end(), false), 0);
    EXPECT_GT(check_all({kEveryNodeKind}), 0u);
}

TEST(AstOrderTest, StandardCorpusMatchesTheReference) {
    EXPECT_GT(check_all(sources_of(dataset::Corpus::standard())), 0u);
}

TEST(AstOrderTest, ForgedCorporaMatchTheReference) {
    for (const std::uint64_t seed : {7u, 42u}) {
        SCOPED_TRACE("forge seed " + std::to_string(seed));
        verify::OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<verify::VerifyCache>();
        const verify::Oracle oracle(std::move(oracle_options));
        gen::ForgeOptions options;
        options.seed = seed;
        options.count = 560;
        options.oracle = &oracle;
        const dataset::Corpus corpus = gen::forge_corpus(options);
        ASSERT_EQ(corpus.cases().size(), 560u);
        EXPECT_GT(check_all(sources_of(corpus)), 0u);
    }
}

TEST(AstOrderTest, MutatedProgramsMatchTheReference) {
    const std::vector<std::string> seeds = sources_of(dataset::Corpus::standard());
    support::Rng rng(support::derive_seed(1, "ast-order-mutation"));
    std::size_t checked = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        const std::string source =
            mutation::mutate(seeds[i % seeds.size()], seeds, rng);
        SCOPED_TRACE("iteration " + std::to_string(i));
        if (check_order(source)) ++checked;
    }
    EXPECT_GT(checked, 0u);  // some mutations still parse
}

}  // namespace
}  // namespace rustbrain::lang
