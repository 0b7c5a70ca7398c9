// Name binding: lang::type_check is the only name resolver (DESIGN.md §4),
// and every tier runs off what it writes. Each Binding, `let` slot and
// function slot count it writes must equal what the retired slot-lowering
// pass (binding_reference.hpp) computes from the same tree — over the
// standard corpus (buggy and fixed), the seed-7 and seed-42 forges, mutated
// corpus programs that still type-check, and the name-resolution shapes
// the tiers are checked on, one of which only binds the same way when the
// type checker tries a fn-pointer local before a function item.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/walk.hpp"
#include "binding_reference.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "mutation.hpp"
#include "support/rng.hpp"
#include "tier_agreement.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::lang {

/// Readable failure messages (gtest finds this by argument lookup).
void PrintTo(const Binding& binding, std::ostream* os) {
    static const char* const kKinds[] = {"None", "Local", "Static", "Function",
                                         "Intrinsic"};
    *os << kKinds[static_cast<int>(binding.kind)] << "(" << binding.index << ")";
}

namespace {

namespace ref = binding_reference;

Binding expected_var(const ref::VarResolution& res) {
    switch (res.kind) {
        case ref::VarResolution::Kind::Local:
            return {Binding::Kind::Local, res.index};
        case ref::VarResolution::Kind::Static:
            return {Binding::Kind::Static, res.index};
        case ref::VarResolution::Kind::Function:
            return {Binding::Kind::Function, res.index};
        case ref::VarResolution::Kind::Unresolved:
            break;
    }
    return {};
}

Binding expected_call(const ref::CallResolution& res, const CallExpr& call) {
    switch (res.kind) {
        case ref::CallResolution::Kind::Intrinsic:
            return {Binding::Kind::Intrinsic,
                    static_cast<std::int32_t>(intrinsic_id(call.callee))};
        case ref::CallResolution::Kind::LocalFnPtr:
            return {Binding::Kind::Local, res.index};
        case ref::CallResolution::Kind::Direct:
            return {Binding::Kind::Function, res.index};
        case ref::CallResolution::Kind::Unresolved:
            break;
    }
    return {};
}

/// Type-checks `source` and compares every binding on it with the
/// reference's tables. Returns how many names, lets and functions were
/// compared, or nothing when the source does not parse or type-check.
std::optional<std::size_t> compare_bindings(const std::string& source) {
    std::optional<Program> program = try_parse(source);
    if (!program || !type_check(*program)) return std::nullopt;
    const ref::ReferenceTables tables = ref::reference_bindings(*program);

    std::size_t compared = 0;
    analysis::WalkCallbacks callbacks;
    callbacks.on_expr = [&](const Expr& expr, bool) {
        if (expr.kind == ExprKind::VarRef) {
            const auto& node = static_cast<const VarRefExpr&>(expr);
            EXPECT_EQ(node.binding, expected_var(tables.var_refs.at(node.id)))
                << "name '" << node.name << "' (node " << node.id << ")";
            ++compared;
        } else if (expr.kind == ExprKind::Call) {
            const auto& node = static_cast<const CallExpr&>(expr);
            EXPECT_EQ(node.binding, expected_call(tables.calls.at(node.id), node))
                << "callee '" << node.callee << "' (node " << node.id << ")";
            ++compared;
        }
    };
    callbacks.on_stmt = [&](const Stmt& stmt, bool) {
        if (stmt.kind != StmtKind::Let) return;
        const auto& node = static_cast<const LetStmt&>(stmt);
        EXPECT_EQ(node.slot, tables.let_slots.at(node.id))
            << "let '" << node.name << "' (node " << node.id << ")";
        ++compared;
    };
    analysis::walk_program(*program, callbacks);

    EXPECT_EQ(program->functions.size(), tables.fn_slot_counts.size());
    for (std::size_t i = 0; i < program->functions.size(); ++i) {
        EXPECT_EQ(program->functions[i].slot_count, tables.fn_slot_counts.at(i))
            << "fn '" << program->functions[i].name << "'";
        ++compared;
    }
    return compared;
}

/// compare_bindings over `sources`; returns the total compared.
std::size_t compare_all(const std::vector<std::string>& sources) {
    std::size_t compared = 0;
    for (const std::string& source : sources) {
        SCOPED_TRACE(source);
        compared += compare_bindings(source).value_or(0);
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

TEST(BindingTest, StandardCorpusMatchesTheReference) {
    EXPECT_GT(compare_all(sources_of(dataset::Corpus::standard())), 0u);
}

TEST(BindingTest, ForgedCorporaMatchTheReference) {
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
        EXPECT_GT(compare_all(sources_of(corpus)), 0u);
    }
}

TEST(BindingTest, MutatedProgramsMatchTheReference) {
    const std::vector<std::string> seeds = sources_of(dataset::Corpus::standard());
    support::Rng rng(support::derive_seed(1, "binding-mutation"));
    std::size_t checked = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        const std::string source =
            mutation::mutate(seeds[i % seeds.size()], seeds, rng);
        SCOPED_TRACE("iteration " + std::to_string(i));
        if (compare_bindings(source)) ++checked;
    }
    EXPECT_GT(checked, 0u);  // some mutations stay well-typed
}

TEST(BindingTest, NameResolutionShapesMatchTheReference) {
    // The same fn-pointer shadowing with one signature for both: it
    // type-checks under either call-position order, so only the order
    // decides which binding the call gets.
    constexpr const char* kSameSignatureShadow = R"(fn f(x: i64) -> i64 {
    return x;
}
fn g(x: i64) -> i64 {
    return x * 2;
}
fn main() {
    let f: fn(i64) -> i64 = g;
    print_int(f(5));
}
)";
    for (const char* source :
         {miri::agreement::kShadowing, miri::agreement::kLoopRedeclaration,
          miri::agreement::kStaticsAndLocals, miri::agreement::kMutableStatic,
          miri::agreement::kFunctionPointers, miri::agreement::kBecomeTailCalls,
          miri::agreement::kSpawnedThreads, miri::agreement::kInputs,
          miri::agreement::kLocalFnPtrShadowsItem, kSameSignatureShadow}) {
        SCOPED_TRACE(source);
        const std::optional<std::size_t> compared = compare_bindings(source);
        EXPECT_TRUE(compared.has_value()) << "does not type-check";
        EXPECT_GT(compared.value_or(0), 0u);
    }
}

}  // namespace
}  // namespace rustbrain::lang
