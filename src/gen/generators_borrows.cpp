// Generators: bothborrow, stackborrow, validity, unaligned.
#include <string>
#include <vector>

#include "gen/generators.hpp"

namespace rustbrain::gen {

namespace {

using detail::pick;
namespace shapes = dataset::shapes;

const std::vector<std::string> kVarNames = {"x",    "count", "cell",
                                            "slot", "score", "level"};

std::string num(std::int64_t value) { return std::to_string(value); }

/// A variable and two distinct values to store in it, one after the other.
std::vector<std::string> draw_two_values(support::Rng& rng) {
    const std::string var = pick(rng, kVarNames);
    const std::int64_t first = rng.next_range(1, 899);
    const std::int64_t second = first + rng.next_range(1, 99);
    return {var, num(first), num(second)};
}

class BothBorrowGenerator final : public CaseGenerator {
  public:
    explicit BothBorrowGenerator(MutationKnobs knobs)
        : CaseGenerator("bothborrow", miri::UbCategory::BothBorrow, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        std::vector<std::string> args = draw_two_values(rng);
        static const dataset::Shape* const kShapes[] = {
            &shapes::shared_then_mut(), &shapes::write_under_shared(),
            &shapes::juggle()};
        return {kShapes[rng.next_below(3)], std::move(args)};
    }
};

class StackBorrowGenerator final : public CaseGenerator {
  public:
    explicit StackBorrowGenerator(MutationKnobs knobs)
        : CaseGenerator("stackborrow", miri::UbCategory::StackBorrow, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        std::vector<std::string> args = draw_two_values(rng);
        static const dataset::Shape* const kShapes[] = {
            &shapes::raw_invalidated(), &shapes::raw_after_write(),
            &shapes::readonly_write()};
        return {kShapes[rng.next_below(3)], std::move(args)};
    }
};

class ValidityGenerator final : public CaseGenerator {
  public:
    explicit ValidityGenerator(MutationKnobs knobs)
        : CaseGenerator("validity", miri::UbCategory::Validity, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string var = pick(rng, kVarNames);
        // Any byte outside {0, 1} is an invalid bool.
        const std::int64_t bad_byte = rng.next_range(2, 255);
        std::vector<std::string> args = {var, num(bad_byte)};
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::bool_pun(), std::move(args)};
            case 1:
                return {&shapes::heap_bool(), std::move(args)};
            default:
                return {&shapes::input_bool(),
                        std::move(args),
                        {{0}, {1}, {rng.next_range(2, 200)}}};
        }
    }
};

class UnalignedGenerator final : public CaseGenerator {
  public:
    explicit UnalignedGenerator(MutationKnobs knobs)
        : CaseGenerator("unaligned", miri::UbCategory::Unaligned, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string var = pick(rng, kVarNames);
        const std::int64_t count = rng.next_range(3, 6);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::byte_confusion(), {var, num(count)}};
            case 1: {
                // Any byte offset that is not 8-aligned misaligns an i64.
                const std::int64_t skew = rng.next_range(1, 7);
                const std::int64_t stored = rng.next_range(1, 899);
                return {&shapes::wide_store(), {var, num(skew), num(stored)}};
            }
            default:
                return {&shapes::odd_u16(), {var, num(count)}};
        }
    }
};

}  // namespace

std::unique_ptr<CaseGenerator> make_bothborrow_generator(MutationKnobs knobs) {
    return std::make_unique<BothBorrowGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_stackborrow_generator(MutationKnobs knobs) {
    return std::make_unique<StackBorrowGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_validity_generator(MutationKnobs knobs) {
    return std::make_unique<ValidityGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_unaligned_generator(MutationKnobs knobs) {
    return std::make_unique<UnalignedGenerator>(knobs);
}

}  // namespace rustbrain::gen
