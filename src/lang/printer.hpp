// AST -> mini-Rust source. print_program(parse(print_program(p))) round-trips
// structurally (property-tested); the repair pipeline uses it to render
// patched programs back into the "code" section of LLM prompts and reports.
//
// print_respanned prints the same bytes and also rewrites every node's span
// to the one try_parse of those bytes assigns (DESIGN.md §22), so a program
// built or edited in memory can stand in for the parse of its own text: the
// corpus forge hands the Oracle the program it printed instead of having it
// parse the text again. The rules are parser.cpp's:
//   - `let`, `if`, `while`, `return`, `become`, `unsafe`, `{` and `static`
//     take their keyword token's span; an assignment or expression
//     statement takes its first expression's;
//   - a literal, a variable and a direct call's callee take their token's,
//     a unary expression its operator token's (`&` alone for `&mut`), an
//     array literal or repeat its `[`;
//   - a binary expression takes lhs.span.merge(rhs.span); a cast, an index
//     and an indirect call take their operand's, base's or callee's;
//   - a function takes the span of its name.
// Ids are not touched: renumber() already gives the ids a parse gives.
#pragma once

#include <string>

#include "lang/ast.hpp"

namespace rustbrain::lang {

std::string print_program(const Program& program);

/// print_program(program), respanning every node on the way (see above).
std::string print_respanned(Program& program);

}  // namespace rustbrain::lang
