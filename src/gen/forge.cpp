#include "gen/forge.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "gen/registry.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::gen {

namespace {

/// Both programs must make it through the type checker before MiriLite
/// gets involved; the split keeps the rejection stats meaningful. The
/// compile is cached — validate_case's interpretation reuses it. The
/// program the generator printed into `source` is type-checked in place of
/// a parse of the text (DESIGN.md §22).
bool front_end_ok(const verify::Oracle& oracle, const std::string& source,
                  lang::Program printed) {
    return oracle.compile(source, std::move(printed))->ok();
}

std::string serial_tag(std::size_t serial) {
    std::string digits = std::to_string(serial);
    while (digits.size() < 4) digits.insert(digits.begin(), '0');
    return digits;
}

}  // namespace

dataset::Corpus forge_corpus(const ForgeOptions& options, ForgeStats* stats) {
    if (options.max_attempts_per_case <= 0) {
        throw std::invalid_argument("max_attempts_per_case must be positive");
    }

    // Generator ids and options are validated unconditionally — a typo must
    // throw even for a count of zero.
    const GeneratorRegistry& registry = GeneratorRegistry::builtin();
    const std::vector<std::string> ids =
        options.generators.empty() ? registry.ids() : options.generators;
    std::vector<std::unique_ptr<CaseGenerator>> generators;
    generators.reserve(ids.size());
    for (const std::string& id : ids) {
        generators.push_back(registry.build(id, options.generator_options));
    }

    ForgeStats local_stats;
    ForgeStats& s = stats != nullptr ? *stats : local_stats;
    s = ForgeStats{};
    if (options.count == 0) {
        return dataset::Corpus(std::vector<dataset::UbCase>{});
    }

    const verify::Oracle& oracle = verify::resolve(options.oracle);
    std::vector<dataset::UbCase> cases;
    cases.reserve(options.count);
    for (std::size_t serial = 0; serial < options.count; ++serial) {
        const CaseGenerator& generator = *generators[serial % generators.size()];
        bool accepted = false;
        for (int attempt = 0; attempt < options.max_attempts_per_case;
             ++attempt) {
            support::Rng rng(support::derive_seed(
                options.seed, generator.id() + "/" + std::to_string(serial) +
                                  "/" + std::to_string(attempt)));
            CaseGenerator::Parsed generated = generator.generate_parsed(rng);
            dataset::UbCase& candidate = generated.value;
            candidate.id = "gen/" + generator.id() + "/" + candidate.id + "_s" +
                           std::to_string(options.seed) + "_" +
                           serial_tag(serial);
            ++s.attempts;

            if (!front_end_ok(oracle, candidate.buggy_source,
                              std::move(generated.buggy_program)) ||
                !front_end_ok(oracle, candidate.reference_fix,
                              std::move(generated.fix_program))) {
                ++s.rejected_typecheck;
                continue;
            }
            if (!dataset::validate_case(candidate, oracle).ok()) {
                ++s.rejected_validation;
                continue;
            }
            ++s.accepted_by_generator[generator.id()];
            cases.push_back(std::move(candidate));
            accepted = true;
            break;
        }
        if (!accepted) {
            throw std::runtime_error(
                "corpus forge: generator '" + generator.id() +
                "' produced no valid case for slot " + std::to_string(serial) +
                " after " + std::to_string(options.max_attempts_per_case) +
                " attempts (seed " + std::to_string(options.seed) + ")");
        }
    }
    return dataset::Corpus(std::move(cases));
}

}  // namespace rustbrain::gen
