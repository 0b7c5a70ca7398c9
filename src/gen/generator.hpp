// Corpus Forge — procedural UB case generation.
//
// A CaseGenerator synthesizes corpus entries for one UB category (or one
// cross-category composition). It is one row of the generator table
// (GeneratorSpec) plus mutation knobs: the row's draft function picks a
// shape record, its arguments and trigger inputs from a seeded RNG stream;
// the generator instantiates the buggy program and its reference fix from
// the record's templates, parsed once into programs with holes
// (gen/shape_template.hpp), then puts BOTH programs through structural AST
// mutation (nested block wrapping, dead-code padding, never-called helper
// functions) and prints them — so every emitted case is a genuine mini-Rust
// program the rest of the system (MiriLite, pruning, vectorization, the
// engines) can chew on, not a string template. The same mutation plan is
// applied to the buggy program and the fix, which preserves the
// semantic-benchmark trace relationship between the two. generate_parsed()
// also hands back the printed programs, so the forge's Oracle type-checks
// them without parsing their text.
//
// Generation is deterministic: a generator is a pure function of (its
// configuration, the Rng handed to generate_parsed()). The forge derives
// that Rng from (corpus seed, generator id, case serial, attempt), so a
// whole generated corpus is a pure function of its ForgeOptions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/case.hpp"
#include "dataset/shape.hpp"
#include "lang/ast.hpp"
#include "support/rng.hpp"

namespace rustbrain::gen {

/// Structural mutation knobs shared by every generator; resolved from a
/// generator option map by GeneratorRegistry ("depth=3,padding=4,helpers=off").
struct MutationKnobs {
    /// Max extra block-nesting levels wrapped around fn main's body
    /// (sampled uniformly in [0, max_nesting] per case).
    int max_nesting = 2;
    /// Max dead-code statements added to fn main (sampled in [0, max_padding]).
    int max_padding = 3;
    /// Allow appending a never-called helper function.
    bool helpers = true;
};

/// One drafted scenario before structural mutation: a shape record and the
/// arguments and inputs it is rendered with.
struct Draft {
    const dataset::Shape* shape = nullptr;
    std::vector<std::string> args;
    /// One run with no input unless the shape needs more.
    std::vector<std::vector<std::int64_t>> inputs = {{}};
};

/// One row of the generator table (registry.cpp): the registry id and help
/// line, the category every drafted case declares, and the draft function,
/// which must consume rng deterministically.
struct GeneratorSpec {
    const char* id;
    const char* help;
    miri::UbCategory category;
    Draft (*draft)(support::Rng& rng);
};

class CaseGenerator final {
  public:
    CaseGenerator(const GeneratorSpec& spec, MutationKnobs knobs)
        : spec_(spec), knobs_(knobs) {}

    [[nodiscard]] std::string id() const { return spec_.id; }
    [[nodiscard]] miri::UbCategory category() const { return spec_.category; }
    [[nodiscard]] const MutationKnobs& knobs() const { return knobs_; }

    /// One candidate case synthesized from `rng` and, for each of its two
    /// sources, the program printed into it, spans and ids as try_parse of
    /// the text gives them (DESIGN.md §22), so the forge can hand them to
    /// the Oracle instead of having it parse. The case's id is the shape
    /// name only (e.g. "double_free"); the forge composes the final
    /// corpus-unique id. The candidate is NOT yet validated — the forge's
    /// rejection sampler owns that. Throws std::logic_error when the draft's
    /// arguments do not fit its shape's holes.
    struct Parsed {
        dataset::UbCase value;
        lang::Program buggy_program;
        lang::Program fix_program;
    };
    [[nodiscard]] Parsed generate_parsed(support::Rng& rng) const;

  private:
    GeneratorSpec spec_;
    MutationKnobs knobs_;
};

namespace detail {

/// One dead-code padding statement. Values are kept small so padding can
/// never overflow or otherwise perturb the program it decorates.
struct PadSpec {
    int kind = 0;  // 0: const let, 1: arithmetic let, 2: counting loop
    std::string name;
    std::int64_t a = 0;
    std::int64_t b = 0;
};

/// The structural mutations of one case, sampled once and applied to both
/// the buggy program and the reference fix so their traces stay related.
struct MutationPlan {
    int nesting = 0;
    std::vector<PadSpec> front_pads;
    std::vector<PadSpec> back_pads;
    bool helper = false;
    std::string helper_name;
    std::int64_t helper_mul = 1;
    std::int64_t helper_add = 0;
};

MutationPlan sample_plan(support::Rng& rng, const MutationKnobs& knobs);

/// The case `drafted` renders to under `plan`, with its two programs as
/// generate_parsed() hands them over; generate_parsed() is this on its
/// generator's draft and a plan sampled after it.
CaseGenerator::Parsed build_case(Draft drafted, const MutationPlan& plan);

/// Apply `plan` to `program` in place, its new nodes made in the
/// program's arena, and renumber it.
void apply_plan(lang::Program& program, const MutationPlan& plan);

/// Pick one entry of a pool uniformly.
template <typename T>
const T& pick(support::Rng& rng, const std::vector<T>& pool) {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
}

}  // namespace detail

}  // namespace rustbrain::gen
