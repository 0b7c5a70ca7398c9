// forge_corpus — deterministic rejection-sampled corpus generation.
//
// Cases are drawn round-robin from the selected generators. Every candidate
// must earn its place: it is accepted only if both programs typecheck,
// the buggy program fails MiriLite with the generator's declared
// UbCategory, and the reference fix passes (dataset::validate_case — the
// exact contract the hand-written corpus is held to). Rejected candidates
// are resampled from a fresh attempt-indexed RNG stream, so the output is a
// pure function of ForgeOptions: same seed + options => byte-identical
// corpus, on any machine, at any parallelism.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "support/options.hpp"

namespace rustbrain::verify {
class Oracle;
}  // namespace rustbrain::verify

namespace rustbrain::gen {

struct ForgeOptions {
    std::uint64_t seed = 42;
    std::size_t count = 100;
    /// Generator ids to draw from; empty => every builtin generator.
    std::vector<std::string> generators;
    /// Forwarded to every selected generator (mutation knobs).
    support::OptionMap generator_options;
    /// Rejection-sampling budget per corpus slot; exceeding it throws
    /// (it means a generator is systematically producing invalid cases).
    int max_attempts_per_case = 64;
    /// Verification oracle for the acceptance checks; null =>
    /// verify::Oracle::shared_default(). Candidates compile once and that
    /// compile is shared with validate_case's runs (and with any later
    /// sweep over the forged corpus in the same process). The compile
    /// type-checks the program the generator printed rather than parsing
    /// its text again (Oracle::compile(source, parsed), DESIGN.md §22).
    /// The corpus produced is byte-identical whichever oracle (cached or
    /// not) is used.
    const verify::Oracle* oracle = nullptr;
};

struct ForgeStats {
    std::size_t attempts = 0;
    /// Always 0: a forged program is instantiated from templates that
    /// parsed when they were built, never parsed itself (DESIGN.md §22).
    std::size_t rejected_parse = 0;
    std::size_t rejected_typecheck = 0;
    std::size_t rejected_validation = 0;
    std::map<std::string, std::size_t> accepted_by_generator;

    [[nodiscard]] std::size_t accepted() const {
        std::size_t total = 0;
        for (const auto& [id, n] : accepted_by_generator) total += n;
        return total;
    }
};

/// Generate `options.count` validated cases. Throws std::invalid_argument on
/// unknown generator ids/options and std::runtime_error when a generator
/// exhausts its attempt budget.
dataset::Corpus forge_corpus(const ForgeOptions& options,
                             ForgeStats* stats = nullptr);

}  // namespace rustbrain::gen
