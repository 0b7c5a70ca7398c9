// The built-in generator library: one CaseGenerator per UB category plus
// cross-category compositions. Each factory configures a generator with the
// given mutation knobs; GeneratorRegistry::builtin() wires them to string
// ids. Every generator draws one of its category's shape records
// (dataset/shape.hpp, the records the standard corpus renders at fixed
// arguments) per case and fills it from randomized identifier, constant and
// size pools, so a forged corpus covers a far wider surface than the
// standard corpus's three argument tuples per shape.
#pragma once

#include <memory>

#include "gen/generator.hpp"

namespace rustbrain::gen {

// Memory categories.
std::unique_ptr<CaseGenerator> make_alloc_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_dangling_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_uninit_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_provenance_generator(MutationKnobs knobs);

// Borrow/value categories.
std::unique_ptr<CaseGenerator> make_bothborrow_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_stackborrow_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_validity_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_unaligned_generator(MutationKnobs knobs);

// Control-flow/execution categories.
std::unique_ptr<CaseGenerator> make_panic_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_funccall_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_funcpointer_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_tailcall_generator(MutationKnobs knobs);

// Thread categories.
std::unique_ptr<CaseGenerator> make_datarace_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_concurrency_generator(MutationKnobs knobs);

// Cross-category compositions.
std::unique_ptr<CaseGenerator> make_panic_in_borrow_generator(MutationKnobs knobs);
std::unique_ptr<CaseGenerator> make_race_on_dangling_generator(MutationKnobs knobs);

}  // namespace rustbrain::gen
