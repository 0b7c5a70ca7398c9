// GeneratorRegistry — build any case generator from a string id + option
// map, mirroring core::EngineRegistry: "alloc" / "panic" / ... /
// "race-on-dangling" plus options like "depth=3,padding=4,helpers=off".
// Unknown ids and unknown option keys both throw std::invalid_argument with
// a message listing what IS available, so a typo in a forge config fails
// loudly instead of silently generating the default mix.
#pragma once

#include <memory>

#include "gen/generator.hpp"
#include "support/options.hpp"
#include "support/registry.hpp"

namespace rustbrain::gen {

class GeneratorRegistry
    : public support::Registry<std::unique_ptr<CaseGenerator>(
          const support::OptionMap& options)> {
  public:
    GeneratorRegistry() : Registry("generator") {}

    /// Every category generator plus the cross-category compositions.
    static const GeneratorRegistry& builtin();
};

/// The option keys every built-in generator understands, resolved into
/// MutationKnobs ("depth" = max nesting, "padding" = max dead-code
/// statements, "helpers" = allow never-called helper functions).
MutationKnobs resolve_knobs(const support::OptionMap& options);

}  // namespace rustbrain::gen
