// Knowledge-base construction from previously-solved problems.
//
// For each corpus case, every affinity rule is replayed: rules whose patch
// passes MiriLite *and* matches the developer reference semantics become the
// entry's verified fixes. The entry's vector is analysis::probe_ast of the
// buggy program, compiled through the Oracle: the probe a repair-time
// consult of that source reads off its compiled program (DESIGN.md §15).
#pragma once

#include "dataset/corpus.hpp"
#include "kb/knowledge_base.hpp"

namespace rustbrain::kb {

struct SeedStats {
    std::size_t cases_processed = 0;
    std::size_t entries_added = 0;
    std::size_t rules_verified = 0;
};

/// Build a KB from ANY corpus — the hand-written standard set, a corpus
/// forged by gen::forge_corpus, or one loaded from disk by gen::load_corpus.
/// Cases with no verified rule contribute no entry (the KB only stores
/// knowledge that actually worked).
SeedStats seed_from_corpus(const dataset::Corpus& corpus, KnowledgeBase& kb);

}  // namespace rustbrain::kb
