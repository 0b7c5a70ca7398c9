// Recursive-descent parser for mini-Rust.
//
// Grammar sketch (see DESIGN.md §3):
//   program   := item*
//   item      := fn_item | static_item
//   fn_item   := "unsafe"? "fn" IDENT "(" params ")" ("->" type)? block
//   static    := "static" "mut"? IDENT ":" type "=" const_expr ";"
//   stmt      := let | assign | expr ";" | if | while | return | block
//              | "unsafe" block | "become" call ";"
//   expr      := precedence-climbing over Rust's operator table, with
//                postfix calls/indexing and `as` casts binding above binary.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "lang/token.hpp"
#include "support/diagnostics.hpp"

namespace rustbrain::lang {

/// The deepest nesting an item may reach (DESIGN.md §2), so no recursive
/// pass over a parsed tree can exhaust the native stack. Along the path
/// from an item to any node, each enclosing block (a function body
/// included), `else if` link, parenthesis, unary operator, binary operator,
/// cast, call, index, array literal and compound type adds one level; a
/// deeper program is a located parse error.
inline constexpr std::size_t kMaxNesting = 256;

class Parser {
  public:
    Parser(std::vector<Token> tokens, support::DiagnosticEngine& diagnostics);

    /// Parse a whole program. On any error the diagnostics engine carries the
    /// details and the returned (partial) program must not be used.
    Program parse_program();

  private:
    // Token stream ---------------------------------------------------------
    [[nodiscard]] const Token& peek(std::size_t lookahead = 0) const;
    const Token& advance();
    [[nodiscard]] bool check(TokenKind kind) const { return peek().is(kind); }
    bool match(TokenKind kind);
    const Token& expect(TokenKind kind, std::string_view context);
    void synchronize_to_item();

    // Items ------------------------------------------------------------
    void parse_items(Program& program);
    FnItem parse_fn(bool is_unsafe);
    StaticItem parse_static();

    // Types --------------------------------------------------------------
    Type parse_type();

    // Statements -----------------------------------------------------------
    Block parse_block();
    StmtPtr parse_statement();
    StmtPtr parse_let();
    StmtPtr parse_if();
    StmtPtr parse_while();
    StmtPtr parse_return();
    StmtPtr parse_become();
    StmtPtr parse_expr_or_assign();

    // Expressions ------------------------------------------------------
    ExprPtr parse_expression();
    ExprPtr parse_binary(int min_precedence);
    ExprPtr parse_cast();
    ExprPtr parse_unary();
    ExprPtr parse_unary_operand();
    ExprPtr parse_postfix();
    ExprPtr parse_primary();
    std::vector<ExprPtr> parse_call_args();

    // Nesting ------------------------------------------------------------
    /// Thrown past kMaxNesting, after the located error is recorded;
    /// parse_program stops there.
    struct TooDeep {};
    /// Holds one nesting level for the parse it scopes.
    struct Nest {
        explicit Nest(Parser& p) : parser(p) {
            parser.check_nesting(++parser.depth_);
        }
        ~Nest() { --parser.depth_; }
        Nest(const Nest&) = delete;
        Nest& operator=(const Nest&) = delete;
        Parser& parser;
    };
    /// Records the located error and throws TooDeep once `levels` passes
    /// kMaxNesting.
    void check_nesting(std::size_t levels);

    std::vector<Token> tokens_;
    std::size_t position_ = 0;
    support::DiagnosticEngine& diagnostics_;
    /// Levels enclosing the node being parsed.
    std::size_t depth_ = 0;
    /// Levels inside the expression the last parse_* call returned: 0 for
    /// a leaf. Left folds (binary chains, postfix chains, casts) build
    /// their nodes above an operand parsed at their own depth, so they
    /// check depth_ + height_ instead of relying on Nest alone.
    std::size_t height_ = 0;
};

/// Convenience wrapper: lex + parse. Program is only meaningful if
/// diagnostics has no errors afterwards.
Program parse_source(std::string_view source, support::DiagnosticEngine& diagnostics);

/// Lex, parse and renumber; returns std::nullopt and fills `error` on
/// failure. This is the entry point used by the repair pipeline to validate
/// LLM-produced code.
std::optional<Program> try_parse(std::string_view source, std::string* error = nullptr);

}  // namespace rustbrain::lang
