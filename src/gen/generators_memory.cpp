// Generators: alloc, danglingpointer, uninit, provenance.
#include <string>
#include <vector>

#include "gen/generators.hpp"

namespace rustbrain::gen {

namespace {

using detail::pick;
namespace shapes = dataset::shapes;

const std::vector<std::string> kPtrNames = {"p",     "buf",   "mem",    "blk",
                                            "chunk", "region", "arena", "slab"};
const std::vector<std::string> kValNames = {"x",    "value", "data",
                                            "item", "cur",   "sample"};

std::string num(std::int64_t value) { return std::to_string(value); }

/// A heap slot size: always a positive multiple of 8.
std::int64_t sample_size(support::Rng& rng) { return 8 * rng.next_range(1, 6); }

class AllocGenerator final : public CaseGenerator {
  public:
    explicit AllocGenerator(MutationKnobs knobs)
        : CaseGenerator("alloc", miri::UbCategory::Alloc, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string ptr = pick(rng, kPtrNames);
        const std::int64_t size = sample_size(rng);
        const std::int64_t seed_const = rng.next_range(1, 8999);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::double_free(), {ptr, num(size), num(seed_const)}};
            case 1: {
                std::int64_t wrong = 8 * rng.next_range(1, 6);
                if (wrong == size) wrong += 8;
                return {&shapes::wrong_layout(),
                        {ptr, num(size), num(seed_const), num(wrong)}};
            }
            default:
                return {&shapes::leak(),
                        {ptr, num(size), num(seed_const)},
                        {{rng.next_range(1, 99)}, {rng.next_range(100, 999)}}};
        }
    }
};

class DanglingGenerator final : public CaseGenerator {
  public:
    explicit DanglingGenerator(MutationKnobs knobs)
        : CaseGenerator("danglingpointer", miri::UbCategory::DanglingPointer,
                        knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string ptr = pick(rng, kPtrNames);
        const std::string val = pick(rng, kValNames);
        const std::int64_t size = sample_size(rng);
        const std::int64_t seed_const = rng.next_range(1, 8999);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::use_after_free(),
                        {ptr, num(size), num(seed_const)}};
            case 1:
                return {&shapes::scope_escape(), {ptr, num(seed_const), val}};
            default:
                return {&shapes::null_deref(),
                        {ptr, num(seed_const), val},
                        {{0}, {rng.next_range(1, 9)}}};
        }
    }
};

class UninitGenerator final : public CaseGenerator {
  public:
    explicit UninitGenerator(MutationKnobs knobs)
        : CaseGenerator("uninit", miri::UbCategory::Uninit, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string ptr = pick(rng, kPtrNames);
        const std::int64_t seed_const = rng.next_range(1, 899);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::fresh_read(), {ptr, num(seed_const)}};
            case 1: {
                const std::int64_t count = rng.next_range(3, 9);
                const std::int64_t stride = rng.next_range(1, 5);
                return {&shapes::partial_init(), {ptr, num(count), num(stride)}};
            }
            default:
                return {&shapes::conditional_init(),
                        {ptr, num(seed_const)},
                        {{0}, {rng.next_range(1, 9)}}};
        }
    }
};

class ProvenanceGenerator final : public CaseGenerator {
  public:
    explicit ProvenanceGenerator(MutationKnobs knobs)
        : CaseGenerator("provenance", miri::UbCategory::Provenance, knobs) {}

  protected:
    Draft draft(support::Rng& rng) const override {
        const std::string ptr = pick(rng, kPtrNames);
        const std::string val = pick(rng, kValNames);
        const std::int64_t len = rng.next_range(3, 8);
        const std::int64_t seed_const = rng.next_range(1, 899);
        switch (rng.next_below(3)) {
            case 0:
                return {&shapes::int_roundtrip(), {ptr, val, num(seed_const)}};
            case 1:
                return {&shapes::loop_overrun(), {ptr, num(len)}};
            default: {
                const std::int64_t scale = rng.next_range(2, 20);
                return {&shapes::wild_offset(),
                        {ptr, num(len), num(scale)},
                        {{rng.next_range(0, len - 1)},
                         {len + rng.next_range(1, 99)}}};
            }
        }
    }
};

}  // namespace

std::unique_ptr<CaseGenerator> make_alloc_generator(MutationKnobs knobs) {
    return std::make_unique<AllocGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_dangling_generator(MutationKnobs knobs) {
    return std::make_unique<DanglingGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_uninit_generator(MutationKnobs knobs) {
    return std::make_unique<UninitGenerator>(knobs);
}

std::unique_ptr<CaseGenerator> make_provenance_generator(MutationKnobs knobs) {
    return std::make_unique<ProvenanceGenerator>(knobs);
}

}  // namespace rustbrain::gen
