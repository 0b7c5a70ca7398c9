#include "gen/registry.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace rustbrain::gen {

MutationKnobs resolve_knobs(const support::OptionMap& options) {
    options.check_known({"depth", "padding", "helpers"});
    MutationKnobs knobs;
    knobs.max_nesting = options.get_int("depth", knobs.max_nesting);
    knobs.max_padding = options.get_int("padding", knobs.max_padding);
    knobs.helpers = options.get_bool("helpers", knobs.helpers);
    if (knobs.max_nesting < 0 || knobs.max_nesting > 16) {
        throw std::invalid_argument("option depth must be in [0, 16]");
    }
    if (knobs.max_padding < 0 || knobs.max_padding > 16) {
        throw std::invalid_argument("option padding must be in [0, 16]");
    }
    return knobs;
}

// The built-in generator library: one draft function per UB category plus
// cross-category compositions, and the table that names them. Every draft
// picks one of its category's shape records (dataset/shape.hpp, the records
// the standard corpus renders at fixed arguments) and fills it from
// randomized identifier, constant and size pools, so a forged corpus covers
// a far wider surface than the standard corpus's three argument tuples per
// shape.
namespace {

using detail::pick;
namespace shapes = dataset::shapes;

std::string num(std::int64_t value) { return std::to_string(value); }

// Memory categories: alloc, danglingpointer, uninit, provenance.

const std::vector<std::string> kPtrNames = {"p",     "buf",   "mem",    "blk",
                                            "chunk", "region", "arena", "slab"};
const std::vector<std::string> kValNames = {"x",    "value", "data",
                                            "item", "cur",   "sample"};

/// A heap slot size: always a positive multiple of 8.
std::int64_t sample_size(support::Rng& rng) { return 8 * rng.next_range(1, 6); }

Draft draft_alloc(support::Rng& rng) {
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

Draft draft_dangling(support::Rng& rng) {
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

Draft draft_uninit(support::Rng& rng) {
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

Draft draft_provenance(support::Rng& rng) {
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

// Borrow/value categories: bothborrow, stackborrow, validity, unaligned.

const std::vector<std::string> kVarNames = {"x",    "count", "cell",
                                            "slot", "score", "level"};

/// A variable and two distinct values to store in it, one after the other.
std::vector<std::string> draw_two_values(support::Rng& rng) {
    const std::string var = pick(rng, kVarNames);
    const std::int64_t first = rng.next_range(1, 899);
    const std::int64_t second = first + rng.next_range(1, 99);
    return {var, num(first), num(second)};
}

Draft draft_bothborrow(support::Rng& rng) {
    std::vector<std::string> args = draw_two_values(rng);
    static const dataset::Shape* const kShapes[] = {
        &shapes::shared_then_mut(), &shapes::write_under_shared(),
        &shapes::juggle()};
    return {kShapes[rng.next_below(3)], std::move(args)};
}

Draft draft_stackborrow(support::Rng& rng) {
    std::vector<std::string> args = draw_two_values(rng);
    static const dataset::Shape* const kShapes[] = {
        &shapes::raw_invalidated(), &shapes::raw_after_write(),
        &shapes::readonly_write()};
    return {kShapes[rng.next_below(3)], std::move(args)};
}

Draft draft_validity(support::Rng& rng) {
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

Draft draft_unaligned(support::Rng& rng) {
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

// Control-flow/execution categories: panic, func.call, func.pointer,
// tailcall.

const std::vector<std::string> kArrNames = {"table", "values", "samples",
                                            "grid",  "ranks",  "bins"};
const std::vector<std::string> kFnNames = {"compute", "transform", "score",
                                           "fold",    "measure",   "shade"};

Draft draft_panic(support::Rng& rng) {
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

Draft draft_funccall(support::Rng& rng) {
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

Draft draft_funcpointer(support::Rng& rng) {
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

Draft draft_tailcall(support::Rng& rng) {
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

// Thread categories: datarace, concurrency.

const std::vector<std::string> kGlobalNames = {"COUNTER", "TOTAL", "HITS",
                                               "TICKS",   "EVENTS"};
const std::vector<std::string> kWorkerNames = {"worker", "tally", "bump",
                                               "drain",  "pump"};

/// A static, a worker function and a step: every thread shape's arguments.
std::vector<std::string> draw_thread_args(support::Rng& rng) {
    const std::string global = pick(rng, kGlobalNames);
    const std::string worker = pick(rng, kWorkerNames);
    const std::int64_t step = rng.next_range(1, 99);
    return {global, worker, num(step)};
}

Draft draft_datarace(support::Rng& rng) {
    std::vector<std::string> args = draw_thread_args(rng);
    static const dataset::Shape* const kShapes[] = {
        &shapes::counter(), &shapes::flag(), &shapes::late_join()};
    return {kShapes[rng.next_below(3)], std::move(args)};
}

Draft draft_concurrency(support::Rng& rng) {
    std::vector<std::string> args = draw_thread_args(rng);
    static const dataset::Shape* const kShapes[] = {
        &shapes::thread_leak(), &shapes::double_join(), &shapes::relock()};
    return {kShapes[rng.next_below(3)], std::move(args)};
}

// Cross-category compositions — the mutation knob the hand-written corpus
// cannot offer. Each draws one composition shape (dataset/
// shapes_compose.cpp) whose actual UB belongs to a single declared
// category:
//
//   panic-in-borrow: a correct shared/exclusive borrow dance surrounds an
//     input-driven out-of-bounds index (declared: panic).
//   race-on-dangling: a spawned worker runs while main commits a heap
//     use-after-free (declared: danglingpointer).

const std::vector<std::string> kComposeVarNames = {"x", "count", "cell",
                                                   "score"};
const std::vector<std::string> kComposeArrNames = {"table", "values",
                                                   "samples", "grid"};
const std::vector<std::string> kComposePtrNames = {"p", "buf", "mem", "chunk"};
const std::vector<std::string> kComposeWorkerNames = {"worker", "tally",
                                                      "bump", "pump"};

Draft draft_panic_in_borrow(support::Rng& rng) {
    const std::string var = pick(rng, kComposeVarNames);
    const std::string arr = pick(rng, kComposeArrNames);
    const std::int64_t len = rng.next_range(2, 8);
    const std::int64_t base = rng.next_range(1, 899);
    const std::int64_t element = rng.next_range(1, 99);
    return {&shapes::borrowed_oob(),
            {var, arr, num(len), num(base), num(element)},
            {{rng.next_range(0, len - 1)}, {len + rng.next_range(0, 9)}}};
}

Draft draft_race_on_dangling(support::Rng& rng) {
    const std::string ptr = pick(rng, kComposePtrNames);
    const std::string worker = pick(rng, kComposeWorkerNames);
    const std::int64_t size = 8 * rng.next_range(1, 6);
    const std::int64_t worker_print = rng.next_range(1, 99);
    const std::int64_t stored = rng.next_range(100, 999);
    return {&shapes::threaded_uaf(),
            {ptr, worker, num(size), num(worker_print), num(stored)}};
}

using miri::UbCategory;

constexpr GeneratorSpec kGenerators[] = {
    {"alloc", "double free / wrong layout / leak", UbCategory::Alloc,
     draft_alloc},
    {"danglingpointer", "use-after-free / scope escape / conditional null deref",
     UbCategory::DanglingPointer, draft_dangling},
    {"uninit", "fresh read / off-by-one init loop / missing else init",
     UbCategory::Uninit, draft_uninit},
    {"provenance",
     "int round trip / loop overrun / input-controlled wild offset",
     UbCategory::Provenance, draft_provenance},
    {"bothborrow", "shared-then-mut / write under shared / borrow juggling",
     UbCategory::BothBorrow, draft_bothborrow},
    {"stackborrow",
     "raw invalidated by &mut / raw after write / readonly write",
     UbCategory::StackBorrow, draft_stackborrow},
    {"validity", "out-of-range bytes punned to bool", UbCategory::Validity,
     draft_validity},
    {"unaligned",
     "byte/element offset confusion and misaligned wide accesses",
     UbCategory::Unaligned, draft_unaligned},
    {"panic", "unchecked index / div by zero / i32 overflow", UbCategory::Panic,
     draft_panic},
    {"func.call", "bogus / corrupted / data addresses called as code",
     UbCategory::FuncCall, draft_funccall},
    {"func.pointer", "fn pointers transmuted to wrong signatures",
     UbCategory::FuncPointer, draft_funcpointer},
    {"tailcall", "become through wrong signatures, bogus targets, escapes",
     UbCategory::TailCall, draft_tailcall},
    {"datarace", "unsynchronized static mut access across threads",
     UbCategory::DataRace, draft_datarace},
    {"concurrency", "thread leak / double join / mutex relock",
     UbCategory::Concurrency, draft_concurrency},
    {"panic-in-borrow",
     "composition: unchecked index inside a correct borrow dance",
     UbCategory::Panic, draft_panic_in_borrow},
    {"race-on-dangling",
     "composition: use-after-free while a worker thread runs",
     UbCategory::DanglingPointer, draft_race_on_dangling},
};

}  // namespace

const GeneratorRegistry& GeneratorRegistry::builtin() {
    static const GeneratorRegistry registry = [] {
        GeneratorRegistry r;
        for (const GeneratorSpec& spec : kGenerators) {
            r.add({spec.id, spec.help, [&spec](const support::OptionMap& options) {
                       return std::make_unique<CaseGenerator>(
                           spec, resolve_knobs(options));
                   }});
        }
        return r;
    }();
    return registry;
}

}  // namespace rustbrain::gen
