// Shape templates parsed once (DESIGN.md §1, §22).
//
// Every argument a shape record is rendered with is an identifier or a
// non-negative integer (dataset::Shape::holes), so each record's buggy and
// fix templates parse once, on first use, into programs with holes: the
// template filled with stand-ins that a walk finds again, `__hole<i>` for a
// name and a reserved literal far above any template's for an integer. A
// hole may sit only here:
//   - a name: a `let`, parameter, `fn` or `static` name, a variable
//     reference or a direct call's callee;
//   - an integer: an integer literal, an array repeat's count, or the
//     length of an array type, as in `[u32; $1]`.
// A template that does not parse, or that puts a hole anywhere else (inside
// a longer token, in a comment), throws std::logic_error when the templates
// are built.
//
// instantiate() clones the holed programs into fresh Programs, each with
// its own arena and type pool as a parse makes, and fills every hole: a
// name through AstArena::name, an integer in its literal or count field,
// and every type re-interned in the new pool at the drawn array lengths.
// Each result is, node for node, the program try_parse gives for
// dataset::fill_template of the template with the same arguments
// (ForgeTest.InstantiatedProgramsMatchTheParseOfTheirText checks this).
// The templates are built under one function-local static and only read
// afterwards, so any number of threads may instantiate at once.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dataset/shape.hpp"
#include "lang/ast.hpp"

namespace rustbrain::gen {

struct ShapePrograms {
    lang::Program buggy;
    lang::Program fix;
};

/// `shape`'s two templates filled with `args`, not yet type-checked.
/// Throws std::logic_error when `shape` is not a record of
/// dataset::all_shapes(), when the records' templates do not build (see
/// above), or when `args` does not hold one argument per hole of the kind
/// the hole takes: an identifier that is not a keyword for a name, decimal
/// digits of a u64 for an integer.
ShapePrograms instantiate(const dataset::Shape& shape, const std::vector<std::string>& args);

namespace detail {

/// `templ`, one of `shape`'s templates, parsed into a program with holes
/// as the records' templates are built; throws std::logic_error as that
/// build does.
lang::Program parse_holed(const dataset::Shape& shape, std::string_view templ);

}  // namespace detail

}  // namespace rustbrain::gen
