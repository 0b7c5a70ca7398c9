#include "dataset/shape.hpp"

#include <utility>

namespace rustbrain::dataset {

std::string fill_template(std::string_view templ,
                          const std::vector<std::string>& args) {
    std::string out;
    out.reserve(templ.size());
    // Copy the text between placeholders in runs, not byte by byte.
    std::size_t copied = 0;
    for (std::size_t at = templ.find('$'); at != std::string_view::npos;
         at = templ.find('$', at + 1)) {
        if (at + 1 >= templ.size() || templ[at + 1] < '0' || templ[at + 1] > '9') {
            continue;
        }
        const std::size_t index = static_cast<std::size_t>(templ[at + 1] - '0');
        if (index >= args.size()) continue;
        out.append(templ, copied, at - copied);
        out += args[index];
        copied = at + 2;
        ++at;
    }
    out.append(templ, copied, std::string_view::npos);
    return out;
}

UbCase Shape::bare_case(std::vector<std::vector<std::int64_t>> inputs) const {
    UbCase out;
    out.id = std::string(name);
    out.category = category;
    out.intended_strategy = strategy;
    out.inputs = std::move(inputs);
    out.difficulty = difficulty;
    return out;
}

UbCase Shape::render(const std::vector<std::string>& args,
                     std::vector<std::vector<std::int64_t>> inputs) const {
    UbCase out = bare_case(std::move(inputs));
    out.buggy_source = fill_template(buggy, args);
    out.reference_fix = fill_template(fix, args);
    return out;
}

const std::vector<const Shape*>& all_shapes() {
    using namespace shapes;
    static const std::vector<const Shape*> all = {
        &double_free(), &wrong_layout(), &leak(),
        &use_after_free(), &scope_escape(), &null_deref(),
        &fresh_read(), &partial_init(), &conditional_init(),
        &int_roundtrip(), &loop_overrun(), &wild_offset(),
        &shared_then_mut(), &write_under_shared(), &juggle(),
        &raw_invalidated(), &raw_after_write(), &readonly_write(),
        &bool_pun(), &heap_bool(), &input_bool(),
        &byte_confusion(), &wide_store(), &odd_u16(),
        &oob_index(), &div_zero(), &overflow(),
        &bogus_address(), &corrupted_address(), &data_as_code(),
        &narrowed_sig(), &wrong_arity(), &sig_transmute(),
        &wrong_sig(), &bogus_target(), &local_escape(),
        &counter(), &flag(), &late_join(),
        &thread_leak(), &double_join(), &relock(),
        &borrowed_oob(), &threaded_uaf(),
    };
    return all;
}

}  // namespace rustbrain::dataset
