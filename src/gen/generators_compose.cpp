// Cross-category composition generators — the mutation knob the hand-written
// corpus cannot offer. Each draws one composition shape (dataset/
// shapes_compose.cpp) whose actual UB belongs to a single declared category:
//
//   panic-in-borrow: a correct shared/exclusive borrow dance surrounds an
//     input-driven out-of-bounds index (declared: panic).
//   race-on-dangling: a spawned worker runs while main commits a heap
//     use-after-free (declared: danglingpointer).
#include <string>
#include <vector>

#include "gen/generators.hpp"

namespace rustbrain::gen {

namespace {

using detail::pick;
namespace shapes = dataset::shapes;

const std::vector<std::string> kVarNames = {"x", "count", "cell", "score"};
const std::vector<std::string> kArrNames = {"table", "values", "samples",
                                            "grid"};
const std::vector<std::string> kPtrNames = {"p", "buf", "mem", "chunk"};
const std::vector<std::string> kWorkerNames = {"worker", "tally", "bump",
                                               "pump"};

std::string num(std::int64_t value) { return std::to_string(value); }

class PanicInBorrowGenerator final : public CaseGenerator {
  public:
    explicit PanicInBorrowGenerator(MutationKnobs knobs)
        : CaseGenerator("panic-in-borrow", miri::UbCategory::Panic, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string var = pick(rng, kVarNames);
        const std::string arr = pick(rng, kArrNames);
        const std::int64_t len = rng.next_range(2, 8);
        const std::int64_t base = rng.next_range(1, 899);
        const std::int64_t element = rng.next_range(1, 99);
        return {&shapes::borrowed_oob(),
                {var, arr, num(len), num(base), num(element)},
                {{rng.next_range(0, len - 1)}, {len + rng.next_range(0, 9)}}};
    }
};

class RaceOnDanglingGenerator final : public CaseGenerator {
  public:
    explicit RaceOnDanglingGenerator(MutationKnobs knobs)
        : CaseGenerator("race-on-dangling", miri::UbCategory::DanglingPointer,
                        knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string ptr = pick(rng, kPtrNames);
        const std::string worker = pick(rng, kWorkerNames);
        const std::int64_t size = 8 * rng.next_range(1, 6);
        const std::int64_t worker_print = rng.next_range(1, 99);
        const std::int64_t stored = rng.next_range(100, 999);
        return {&shapes::threaded_uaf(),
                {ptr, worker, num(size), num(worker_print), num(stored)}};
    }
};

}  // namespace

std::unique_ptr<CaseGenerator> make_panic_in_borrow_generator(
    MutationKnobs knobs) {
    return std::make_unique<PanicInBorrowGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_race_on_dangling_generator(
    MutationKnobs knobs) {
    return std::make_unique<RaceOnDanglingGenerator>(knobs);
}

}  // namespace rustbrain::gen
