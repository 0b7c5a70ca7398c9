#include "gen/registry.hpp"

#include <stdexcept>

#include "gen/generators.hpp"

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

namespace {

using Factory = std::unique_ptr<CaseGenerator> (*)(MutationKnobs);

GeneratorRegistry::Builder knob_builder(Factory factory) {
    return [factory](const support::OptionMap& options) {
        return factory(resolve_knobs(options));
    };
}

}  // namespace

const GeneratorRegistry& GeneratorRegistry::builtin() {
    static const GeneratorRegistry registry = [] {
        GeneratorRegistry r;
        r.add({"alloc", "double free / wrong layout / leak",
               knob_builder(make_alloc_generator)});
        r.add({"danglingpointer",
               "use-after-free / scope escape / conditional null deref",
               knob_builder(make_dangling_generator)});
        r.add({"uninit",
               "fresh read / off-by-one init loop / missing else init",
               knob_builder(make_uninit_generator)});
        r.add({"provenance",
               "int round trip / loop overrun / input-controlled wild offset",
               knob_builder(make_provenance_generator)});
        r.add({"bothborrow",
               "shared-then-mut / write under shared / borrow juggling",
               knob_builder(make_bothborrow_generator)});
        r.add({"stackborrow",
               "raw invalidated by &mut / raw after write / readonly write",
               knob_builder(make_stackborrow_generator)});
        r.add({"validity", "out-of-range bytes punned to bool",
               knob_builder(make_validity_generator)});
        r.add({"unaligned",
               "byte/element offset confusion and misaligned wide accesses",
               knob_builder(make_unaligned_generator)});
        r.add({"panic", "unchecked index / div by zero / i32 overflow",
               knob_builder(make_panic_generator)});
        r.add({"func.call",
               "bogus / corrupted / data addresses called as code",
               knob_builder(make_funccall_generator)});
        r.add({"func.pointer", "fn pointers transmuted to wrong signatures",
               knob_builder(make_funcpointer_generator)});
        r.add({"tailcall",
               "become through wrong signatures, bogus targets, escapes",
               knob_builder(make_tailcall_generator)});
        r.add({"datarace",
               "unsynchronized static mut access across threads",
               knob_builder(make_datarace_generator)});
        r.add({"concurrency", "thread leak / double join / mutex relock",
               knob_builder(make_concurrency_generator)});
        r.add({"panic-in-borrow",
               "composition: unchecked index inside a correct borrow dance",
               knob_builder(make_panic_in_borrow_generator)});
        r.add({"race-on-dangling",
               "composition: use-after-free while a worker thread runs",
               knob_builder(make_race_on_dangling_generator)});
        return r;
    }();
    return registry;
}

}  // namespace rustbrain::gen
