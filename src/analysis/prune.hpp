// Algorithm 1 from the paper: prune irrelevant nodes from the Rust AST.
//
//   Input: original AST, Miri errors
//   1. keep every node containing the `unsafe` keyword (Principle 1);
//   2. for each unsafe node, keep context relevant to the unsafe operation
//      (here: statements that define or touch names used inside unsafe
//      regions, and the control-flow statements containing them);
//   3. drop everything else.
//
// Invariants (property-tested): the pruned program contains every unsafe
// statement of the original, and never more nodes than the original.
#pragma once

#include "analysis/vectorize.hpp"
#include "lang/ast.hpp"

namespace rustbrain::analysis {

struct PruneStats {
    std::uint32_t original_nodes = 0;
    std::uint32_t pruned_nodes = 0;

    [[nodiscard]] double retained_fraction() const {
        return original_nodes == 0
                   ? 1.0
                   : static_cast<double>(pruned_nodes) / original_nodes;
    }
};

/// Produce a pruned clone of `program`. Functions whose bodies end up empty
/// and that are not referenced from unsafe regions are dropped entirely.
lang::Program prune_ast(const lang::Program& program, PruneStats* stats = nullptr);

/// What the knowledge base sees of a program (Fig 6's "vector error AST"):
/// the vector of its Algorithm-1-pruned AST and the fraction of nodes the
/// pruning kept.
struct AstProbe {
    AstVector vector{};
    double retained_fraction = 1.0;
};

/// Prune once and vectorize, with a degenerate-case fallback: when pruning
/// keeps almost nothing (programs whose bug involves no unsafe code), the
/// vector is the whole program's, so it still carries the program's
/// structure. Shared by KB seeding and query formation; a pure function of
/// the program's structure (it reads no types and no node numbering).
AstProbe probe_ast(const lang::Program& program);

}  // namespace rustbrain::analysis
