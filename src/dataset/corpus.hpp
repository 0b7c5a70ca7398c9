// The full UB corpus: every shape record rendered (DESIGN.md §1), with lookup helpers
// and a validation routine used by the integration tests (every buggy case
// must fail MiriLite with its declared category; every reference fix must
// pass and defines the expected output traces).
//
// A Corpus can be built from any case vector — the standard set, a
// gen::forge_corpus() product, or a file loaded by gen::load_corpus —
// and indexes ids and categories at construction so find() and by_category()
// are O(1)/O(k) instead of linear scans over the whole corpus.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/case.hpp"

namespace rustbrain::verify {
class Oracle;
}  // namespace rustbrain::verify

namespace rustbrain::dataset {

class Corpus {
  public:
    Corpus() = default;
    /// Index an arbitrary case vector. Throws std::invalid_argument on a
    /// duplicate id (every corpus, generated or loaded, must be addressable).
    explicit Corpus(std::vector<UbCase> cases);

    /// The standard corpus: each corpus shape record rendered at its
    /// kVariantsPerShape fixed argument tuples, category by category in
    /// figure order, variant outer and shape inner (no RNG involved).
    static Corpus standard();

    [[nodiscard]] const std::vector<UbCase>& cases() const { return cases_; }
    [[nodiscard]] std::vector<const UbCase*> by_category(
        miri::UbCategory category) const;
    [[nodiscard]] const UbCase* find(const std::string& id) const;
    [[nodiscard]] std::size_t size() const { return cases_.size(); }

    /// Categories that actually appear in the corpus, in figure order.
    [[nodiscard]] std::vector<miri::UbCategory> categories() const;

  private:
    std::vector<UbCase> cases_;
    // Both indexes store positions into cases_, not pointers, so the default
    // copy/move of a Corpus stays correct.
    std::unordered_map<std::string, std::size_t> id_index_;
    std::map<miri::UbCategory, std::vector<std::size_t>> category_index_;
};

/// Validation outcome for one case.
struct CaseValidation {
    std::string id;
    bool buggy_fails = false;
    bool category_matches = false;
    bool reference_passes = false;
    std::string detail;

    [[nodiscard]] bool ok() const {
        return buggy_fails && category_matches && reference_passes;
    }
};

/// Validate a single case: the buggy program must fail MiriLite with the
/// declared category and the reference fix must pass. The unit of work
/// behind validate_corpus and the forge's rejection sampler. Verification
/// runs through `oracle`, so a corpus validated (or forged) earlier in the
/// process answers from cache.
CaseValidation validate_case(const UbCase& ub_case,
                             const verify::Oracle& oracle);
/// Convenience overload bound to verify::Oracle::shared_default().
CaseValidation validate_case(const UbCase& ub_case);

/// Validate every case; the integration tests assert all ok().
std::vector<CaseValidation> validate_corpus(const Corpus& corpus);

}  // namespace rustbrain::dataset
