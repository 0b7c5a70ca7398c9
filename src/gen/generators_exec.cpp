// Generators: panic, func.call, func.pointer, tailcall.
#include <string>
#include <vector>

#include "gen/generators.hpp"

namespace rustbrain::gen {

namespace {

using detail::pick;
namespace shapes = dataset::shapes;

const std::vector<std::string> kArrNames = {"table", "values", "samples",
                                            "grid",  "ranks",  "bins"};
const std::vector<std::string> kFnNames = {"compute", "transform", "score",
                                           "fold",    "measure",   "shade"};

std::string num(std::int64_t value) { return std::to_string(value); }

class PanicGenerator final : public CaseGenerator {
  public:
    explicit PanicGenerator(MutationKnobs knobs)
        : CaseGenerator("panic", miri::UbCategory::Panic, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string arr = pick(rng, kArrNames);
        switch (rng.next_below(3)) {
            case 0: {
                const std::int64_t len = rng.next_range(2, 9);
                const std::int64_t element = rng.next_range(1, 99);
                return {&shapes::oob_index(),
                        {arr, num(len), num(element)},
                        {{rng.next_range(0, len - 1)},
                         {len + rng.next_range(0, 9)}}};
            }
            case 1: {
                const std::int64_t total = rng.next_range(10, 9999);
                return {&shapes::div_zero(),
                        {num(total)},
                        {{rng.next_range(1, 9)}, {0}}};
            }
            default: {
                const std::int64_t base = 2147481000 + rng.next_range(0, 2600);
                const std::int64_t headroom = 2147483647 - base;
                return {&shapes::overflow(),
                        {num(base)},
                        {{rng.next_range(1, 40)},
                         {headroom + rng.next_range(1, 999)}}};
            }
        }
    }
};

class FuncCallGenerator final : public CaseGenerator {
  public:
    explicit FuncCallGenerator(MutationKnobs knobs)
        : CaseGenerator("func.call", miri::UbCategory::FuncCall, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string fn = pick(rng, kFnNames);
        const std::int64_t printed = rng.next_range(1, 99);
        switch (rng.next_below(3)) {
            case 0: {
                const std::int64_t bogus = 4096 * rng.next_range(1, 32);
                return {&shapes::bogus_address(), {fn, num(bogus), num(printed)}};
            }
            case 1: {
                const std::int64_t skew = 4 * rng.next_range(1, 16);
                return {&shapes::corrupted_address(), {fn, num(skew), num(printed)}};
            }
            default:
                return {&shapes::data_as_code(), {fn, num(printed)}};
        }
    }
};

class FuncPointerGenerator final : public CaseGenerator {
  public:
    explicit FuncPointerGenerator(MutationKnobs knobs)
        : CaseGenerator("func.pointer", miri::UbCategory::FuncPointer, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string fn = pick(rng, kFnNames);
        const std::int64_t factor = rng.next_range(2, 9);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::narrowed_sig(), {fn, num(factor)}};
            case 1:
                return {&shapes::wrong_arity(), {fn, num(factor)}};
            default: {
                const std::int64_t add = rng.next_range(1, 99);
                return {&shapes::sig_transmute(), {fn, num(add)}};
            }
        }
    }
};

class TailCallGenerator final : public CaseGenerator {
  public:
    explicit TailCallGenerator(MutationKnobs knobs)
        : CaseGenerator("tailcall", miri::UbCategory::TailCall, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string fn = pick(rng, kFnNames);
        const std::int64_t add = rng.next_range(1, 999);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::wrong_sig(), {fn, num(add)}};
            case 1: {
                const std::int64_t bogus = 4096 * rng.next_range(1, 32);
                return {&shapes::bogus_target(), {fn, num(add), num(bogus)}};
            }
            default:
                return {&shapes::local_escape(), {num(add)}};
        }
    }
};

}  // namespace

std::unique_ptr<CaseGenerator> make_panic_generator(MutationKnobs knobs) {
    return std::make_unique<PanicGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_funccall_generator(MutationKnobs knobs) {
    return std::make_unique<FuncCallGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_funcpointer_generator(MutationKnobs knobs) {
    return std::make_unique<FuncPointerGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_tailcall_generator(MutationKnobs knobs) {
    return std::make_unique<TailCallGenerator>(knobs);
}

}  // namespace rustbrain::gen
