#include "llm/hallucinate.hpp"

#include <vector>

#include "analysis/ast_edit.hpp"

namespace rustbrain::llm {

using namespace lang;
using analysis::for_each_block;

const char* mutation_kind_name(MutationKind kind) {
    switch (kind) {
        case MutationKind::DeleteStatement: return "delete-statement";
        case MutationKind::DuplicateStatement: return "duplicate-statement";
        case MutationKind::PerturbConstant: return "perturb-constant";
        case MutationKind::FlipComparison: return "flip-comparison";
        case MutationKind::DropElseBranch: return "drop-else-branch";
        case MutationKind::SwapStatements: return "swap-statements";
    }
    return "?";
}

namespace {

/// Collect mutable pointers to every block (so mutations can target nested
/// blocks uniformly).
std::vector<Block*> all_blocks(Program& program) {
    std::vector<Block*> blocks;
    for_each_block(program, [&](Block& block) {
        blocks.push_back(&block);
        return false;
    });
    return blocks;
}

std::vector<IntLitExpr*> all_int_literals(Program& program) {
    std::vector<IntLitExpr*> literals;
    analysis::rewrite_exprs(program, [&](const Expr& expr) -> std::optional<ExprPtr> {
        if (expr.kind == ExprKind::IntLit) {
            literals.push_back(
                const_cast<IntLitExpr*>(static_cast<const IntLitExpr*>(&expr)));
        }
        return std::nullopt;  // never replace — we only want the pointers
    });
    return literals;
}

std::vector<BinaryExpr*> all_comparisons(Program& program) {
    std::vector<BinaryExpr*> comparisons;
    analysis::rewrite_exprs(program, [&](const Expr& expr) -> std::optional<ExprPtr> {
        if (expr.kind == ExprKind::Binary) {
            const auto& node = static_cast<const BinaryExpr&>(expr);
            switch (node.op) {
                case BinaryOp::Lt:
                case BinaryOp::Le:
                case BinaryOp::Gt:
                case BinaryOp::Ge:
                case BinaryOp::Eq:
                case BinaryOp::Ne:
                    comparisons.push_back(
                        const_cast<BinaryExpr*>(static_cast<const BinaryExpr*>(&expr)));
                    break;
                default:
                    break;
            }
        }
        return std::nullopt;
    });
    return comparisons;
}

std::vector<IfStmt*> all_ifs_with_else(Program& program) {
    std::vector<IfStmt*> ifs;
    for_each_block(program, [&](Block& block) {
        for (auto& stmt : block.statements) {
            if (stmt->kind == StmtKind::If) {
                auto& node = static_cast<IfStmt&>(*stmt);
                if (node.else_block.has_value()) ifs.push_back(&node);
            }
        }
        return false;
    });
    return ifs;
}

}  // namespace

std::optional<MutationKind> mutate_program(Program& program, support::Rng& rng) {
    // Try mutation kinds in a random order until one applies.
    std::vector<MutationKind> kinds = {
        MutationKind::PerturbConstant,    MutationKind::DeleteStatement,
        MutationKind::DuplicateStatement, MutationKind::FlipComparison,
        MutationKind::DropElseBranch,     MutationKind::SwapStatements,
    };
    // Fisher–Yates with the caller's deterministic rng.
    for (std::size_t i = kinds.size(); i > 1; --i) {
        const std::size_t j = rng.next_below(i);
        std::swap(kinds[i - 1], kinds[j]);
    }

    for (MutationKind kind : kinds) {
        switch (kind) {
            case MutationKind::PerturbConstant: {
                auto literals = all_int_literals(program);
                if (literals.empty()) break;
                IntLitExpr* victim = literals[rng.next_below(literals.size())];
                const std::uint64_t old = victim->value;
                switch (rng.next_below(3)) {
                    case 0: victim->value = old + 1; break;
                    case 1: victim->value = old > 0 ? old - 1 : old + 2; break;
                    default: victim->value = old * 2 + 1; break;
                }
                return kind;
            }
            case MutationKind::DeleteStatement: {
                auto blocks = all_blocks(program);
                // Only delete from blocks with >= 2 statements so programs
                // stay plausible.
                std::vector<Block*> candidates;
                for (Block* block : blocks) {
                    if (block->statements.size() >= 2) candidates.push_back(block);
                }
                if (candidates.empty()) break;
                Block* block = candidates[rng.next_below(candidates.size())];
                const std::size_t index = rng.next_below(block->statements.size());
                block->statements.erase(block->statements.begin() +
                                        static_cast<std::ptrdiff_t>(index));
                return kind;
            }
            case MutationKind::DuplicateStatement: {
                auto blocks = all_blocks(program);
                std::vector<Block*> candidates;
                for (Block* block : blocks) {
                    if (!block->statements.empty()) candidates.push_back(block);
                }
                if (candidates.empty()) break;
                Block* block = candidates[rng.next_below(candidates.size())];
                const std::size_t index = rng.next_below(block->statements.size());
                // Duplicating a `let` would shadow harmlessly; duplicating
                // calls/assignments is where the damage is.
                block->statements.insert(
                    block->statements.begin() + static_cast<std::ptrdiff_t>(index),
                    clone(*block->statements[index], program.arena()));
                return kind;
            }
            case MutationKind::FlipComparison: {
                auto comparisons = all_comparisons(program);
                if (comparisons.empty()) break;
                BinaryExpr* victim = comparisons[rng.next_below(comparisons.size())];
                switch (victim->op) {
                    case BinaryOp::Lt: victim->op = BinaryOp::Le; break;
                    case BinaryOp::Le: victim->op = BinaryOp::Lt; break;
                    case BinaryOp::Gt: victim->op = BinaryOp::Ge; break;
                    case BinaryOp::Ge: victim->op = BinaryOp::Gt; break;
                    case BinaryOp::Eq: victim->op = BinaryOp::Ne; break;
                    case BinaryOp::Ne: victim->op = BinaryOp::Eq; break;
                    default: break;
                }
                return kind;
            }
            case MutationKind::DropElseBranch: {
                auto ifs = all_ifs_with_else(program);
                if (ifs.empty()) break;
                IfStmt* victim = ifs[rng.next_below(ifs.size())];
                victim->else_block.reset();
                return kind;
            }
            case MutationKind::SwapStatements: {
                auto blocks = all_blocks(program);
                std::vector<Block*> candidates;
                for (Block* block : blocks) {
                    if (block->statements.size() >= 2) candidates.push_back(block);
                }
                if (candidates.empty()) break;
                Block* block = candidates[rng.next_below(candidates.size())];
                const std::size_t index =
                    rng.next_below(block->statements.size() - 1);
                std::swap(block->statements[index], block->statements[index + 1]);
                return kind;
            }
        }
    }
    return std::nullopt;
}

}  // namespace rustbrain::llm
