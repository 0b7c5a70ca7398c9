// Generators: datarace, concurrency.
#include <string>
#include <vector>

#include "gen/generators.hpp"

namespace rustbrain::gen {

namespace {

using detail::pick;
namespace shapes = dataset::shapes;

const std::vector<std::string> kGlobalNames = {"COUNTER", "TOTAL", "HITS",
                                               "TICKS",   "EVENTS"};
const std::vector<std::string> kWorkerNames = {"worker", "tally", "bump",
                                               "drain",  "pump"};

/// A static, a worker function and a step: every thread shape's arguments.
std::vector<std::string> draw_thread_args(support::Rng& rng) {
    const std::string global = pick(rng, kGlobalNames);
    const std::string worker = pick(rng, kWorkerNames);
    const std::int64_t step = rng.next_range(1, 99);
    return {global, worker, std::to_string(step)};
}

class DataRaceGenerator final : public CaseGenerator {
  public:
    explicit DataRaceGenerator(MutationKnobs knobs)
        : CaseGenerator("datarace", miri::UbCategory::DataRace, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        std::vector<std::string> args = draw_thread_args(rng);
        static const dataset::Shape* const kShapes[] = {
            &shapes::counter(), &shapes::flag(), &shapes::late_join()};
        return {kShapes[rng.next_below(3)], std::move(args)};
    }
};

class ConcurrencyGenerator final : public CaseGenerator {
  public:
    explicit ConcurrencyGenerator(MutationKnobs knobs)
        : CaseGenerator("concurrency", miri::UbCategory::Concurrency, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        std::vector<std::string> args = draw_thread_args(rng);
        static const dataset::Shape* const kShapes[] = {
            &shapes::thread_leak(), &shapes::double_join(), &shapes::relock()};
        return {kShapes[rng.next_below(3)], std::move(args)};
    }
};

}  // namespace

std::unique_ptr<CaseGenerator> make_datarace_generator(MutationKnobs knobs) {
    return std::make_unique<DataRaceGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_concurrency_generator(MutationKnobs knobs) {
    return std::make_unique<ConcurrencyGenerator>(knobs);
}

}  // namespace rustbrain::gen
