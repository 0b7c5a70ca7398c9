#include "dataset/corpus.hpp"

#include <stdexcept>
#include <utility>

#include "dataset/shape.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::dataset {

const char* fix_strategy_name(FixStrategy strategy) {
    switch (strategy) {
        case FixStrategy::SafeAlternative: return "safe-alternative";
        case FixStrategy::AssertionGuard: return "assertion-guard";
        case FixStrategy::SemanticModification: return "semantic-modification";
    }
    return "?";
}

Corpus::Corpus(std::vector<UbCase> cases) : cases_(std::move(cases)) {
    id_index_.reserve(cases_.size());
    for (std::size_t i = 0; i < cases_.size(); ++i) {
        if (!id_index_.emplace(cases_[i].id, i).second) {
            throw std::invalid_argument("duplicate corpus case id: " +
                                        cases_[i].id);
        }
        category_index_[cases_[i].category].push_back(i);
    }
}

Corpus Corpus::standard() {
    std::vector<UbCase> cases;
    for (miri::UbCategory category : miri::all_ub_categories()) {
        std::vector<const Shape*> group;
        for (const Shape* shape : all_shapes()) {
            if (shape->category == category && !shape->corpus.empty()) {
                group.push_back(shape);
            }
        }
        const std::string prefix = std::string(miri::ub_category_label(category)) + "/";
        for (int v = 0; v < kVariantsPerShape; ++v) {
            for (const Shape* shape : group) {
                const ShapeArgs& fixed = shape->corpus[static_cast<std::size_t>(v)];
                UbCase ub_case = shape->render(fixed.args, fixed.inputs);
                ub_case.id = prefix + ub_case.id + "_" + std::to_string(v);
                cases.push_back(std::move(ub_case));
            }
        }
    }
    return Corpus(std::move(cases));
}

std::vector<const UbCase*> Corpus::by_category(miri::UbCategory category) const {
    std::vector<const UbCase*> out;
    auto it = category_index_.find(category);
    if (it == category_index_.end()) return out;
    out.reserve(it->second.size());
    for (std::size_t index : it->second) {
        out.push_back(&cases_[index]);
    }
    return out;
}

const UbCase* Corpus::find(const std::string& id) const {
    auto it = id_index_.find(id);
    return it == id_index_.end() ? nullptr : &cases_[it->second];
}

std::vector<miri::UbCategory> Corpus::categories() const {
    std::vector<miri::UbCategory> out;
    for (miri::UbCategory category : miri::all_ub_categories()) {
        if (category_index_.count(category) != 0) {
            out.push_back(category);
        }
    }
    return out;
}

CaseValidation validate_case(const UbCase& ub_case,
                             const verify::Oracle& oracle) {
    CaseValidation validation;
    validation.id = ub_case.id;

    const miri::MiriReport buggy =
        oracle.test_source(ub_case.buggy_source, ub_case.inputs);
    validation.buggy_fails = !buggy.passed();
    validation.category_matches = buggy.has_category(ub_case.category);
    if (!validation.buggy_fails) {
        validation.detail = "buggy program passed MiriLite";
    } else if (!validation.category_matches) {
        validation.detail =
            "expected category " +
            std::string(miri::ub_category_label(ub_case.category)) +
            " but findings were:\n" + buggy.summary();
    }

    const miri::MiriReport fixed =
        oracle.test_source(ub_case.reference_fix, ub_case.inputs);
    validation.reference_passes = fixed.passed();
    if (!validation.reference_passes) {
        validation.detail += "\nreference fix failed:\n" + fixed.summary();
    }
    return validation;
}

CaseValidation validate_case(const UbCase& ub_case) {
    return validate_case(ub_case, verify::Oracle::shared_default());
}

std::vector<CaseValidation> validate_corpus(const Corpus& corpus) {
    std::vector<CaseValidation> results;
    results.reserve(corpus.size());
    const verify::Oracle& oracle = verify::Oracle::shared_default();
    for (const UbCase& c : corpus.cases()) {
        results.push_back(validate_case(c, oracle));
    }
    return results;
}

}  // namespace rustbrain::dataset
