// UB shapes: each bug shape of the corpus is written once, as one Shape
// record holding its category, name, fix strategy, difficulty, the kind of
// each argument, and the buggy and fix templates (`$0`..`$9` placeholders).
// The standard corpus renders every record at the kVariantsPerShape fixed
// argument tuples held beside it; Corpus Forge's generators render the
// same records at arguments drawn from their RNG, from templates parsed
// once into programs with holes (gen/template.hpp, DESIGN.md §1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/case.hpp"

namespace rustbrain::dataset {

/// Fixed argument tuples per shape in the standard corpus.
constexpr int kVariantsPerShape = 3;

/// The arguments of one rendering of a shape, with its trigger inputs.
struct ShapeArgs {
    std::vector<std::string> args;
    std::vector<std::vector<std::int64_t>> inputs;
};

struct Shape {
    miri::UbCategory category;
    std::string_view name;  // e.g. "double_free"
    FixStrategy strategy;
    int difficulty;  // 1 (routine) .. 3 (rare/complex)
    /// One letter per argument `$i`: 'n' an identifier (a variable,
    /// function or static name), 'i' a non-negative decimal integer.
    std::string_view holes;
    std::string_view buggy;
    std::string_view fix;
    /// The standard corpus's kVariantsPerShape renderings, variant 0 first;
    /// empty for a shape that only a composition generator draws.
    std::vector<ShapeArgs> corpus;

    /// The case of this shape run on `inputs`, both sources empty; its id
    /// is the shape name.
    [[nodiscard]] UbCase bare_case(std::vector<std::vector<std::int64_t>> inputs) const;
    /// bare_case(inputs) with both templates filled with `args`.
    [[nodiscard]] UbCase render(const std::vector<std::string>& args,
                                std::vector<std::vector<std::int64_t>> inputs) const;
};

/// Replace `$0`..`$9` placeholders with the given fragments. A `$` before a
/// non-digit, or with an index past `args`, stays as written.
std::string fill_template(std::string_view templ,
                          const std::vector<std::string>& args);

/// Every shape record, grouped by category with each category's shapes in
/// corpus order, then the compositions.
const std::vector<const Shape*>& all_shapes();

/// One accessor per record. A record is built on first use, so code that
/// runs during static initialization may render it too.
namespace shapes {
// alloc, danglingpointer, uninit, provenance
const Shape& double_free();
const Shape& wrong_layout();
const Shape& leak();
const Shape& use_after_free();
const Shape& scope_escape();
const Shape& null_deref();
const Shape& fresh_read();
const Shape& partial_init();
const Shape& conditional_init();
const Shape& int_roundtrip();
const Shape& loop_overrun();
const Shape& wild_offset();
// bothborrow, stackborrow, validity, unaligned
const Shape& shared_then_mut();
const Shape& write_under_shared();
const Shape& juggle();
const Shape& raw_invalidated();
const Shape& raw_after_write();
const Shape& readonly_write();
const Shape& bool_pun();
const Shape& heap_bool();
const Shape& input_bool();
const Shape& byte_confusion();
const Shape& wide_store();
const Shape& odd_u16();
// panic, func.call, func.pointer, tailcall
const Shape& oob_index();
const Shape& div_zero();
const Shape& overflow();
const Shape& bogus_address();
const Shape& corrupted_address();
const Shape& data_as_code();
const Shape& narrowed_sig();
const Shape& wrong_arity();
const Shape& sig_transmute();
const Shape& wrong_sig();
const Shape& bogus_target();
const Shape& local_escape();
// datarace, concurrency
const Shape& counter();
const Shape& flag();
const Shape& late_join();
const Shape& thread_leak();
const Shape& double_join();
const Shape& relock();
// compositions (panic, danglingpointer)
const Shape& borrowed_oob();
const Shape& threaded_uaf();
}  // namespace shapes

}  // namespace rustbrain::dataset
