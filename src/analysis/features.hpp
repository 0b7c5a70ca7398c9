// Error-feature extraction — the fast-thinking stage's view of the problem
// (Fig 2, F2). Combines the Miri finding with code-shape features so that
// solution generation and the feedback store can key on "what kind of
// problem is this" rather than on raw source text.
#pragma once

#include <cstdint>
#include <string>

#include "lang/ast.hpp"
#include "miri/finding.hpp"

namespace rustbrain::analysis {

/// Counts of unsafe-operation kinds (from the paper's five-way
/// classification) and repair-relevant shape features.
struct ErrorFeatures {
    miri::UbCategory category = miri::UbCategory::Panic;

    // Unsafe-operation kinds (Section III-A1).
    int raw_ptr_derefs = 0;
    int fn_ptr_casts = 0;   // stand-in for "unsafe trait" (not in mini-Rust)

    // Shape features used by rule applicability & the feedback key.
    int alloc_calls = 0;
    int dealloc_calls = 0;
    int offset_calls = 0;
    int int_to_ptr_casts = 0;
    int spawn_calls = 0;
    int become_stmts = 0;
    int unsafe_blocks = 0;
    int loops = 0;
    int branches = 0;
    int index_exprs = 0;
    int div_ops = 0;
    int array_decls = 0;
    std::uint32_t node_count = 0;

    /// Stable feedback-store key: category plus the dominant shape signals.
    [[nodiscard]] std::string feedback_key() const;
    [[nodiscard]] std::string to_string() const;
};

ErrorFeatures extract_features(const lang::Program& program,
                               const miri::Finding& finding);

}  // namespace rustbrain::analysis
