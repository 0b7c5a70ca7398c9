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
#include "lang/lexer.hpp"
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

/// The parser stops at the next item or statement once the errors so far,
/// lexical ones included, pass this many.
inline constexpr std::size_t kMaxParseErrors = 20;

/// Arena bytes a parse reserves per source byte. The standard corpus and
/// the seed-7 and seed-42 forges take 5.7 to 9.9 bytes of nodes, lists and
/// names per source byte (p10 to p99, forge median 6.5, mean 6.6). A cached
/// program keeps its slack for as long as it lives, so the first block is
/// sized a little above the median and what overflows goes to small later
/// blocks, rather than sizing for p99 (DESIGN.md §21).
inline constexpr std::size_t kArenaBytesPerSourceByte = 7;

/// The first arena block of a program parsed from `source_bytes` of text.
std::size_t arena_bytes_for(std::size_t source_bytes);

/// Pulls tokens from a Lexer through a two-token window (the grammar never
/// looks past peek(1)) and builds the program's nodes in its arena.
///
/// Diagnostics come out as if the whole source had been lexed first: every
/// lexical error, in source order, then the parser's errors. The lexer
/// reports straight to the caller's engine while the parser's own errors
/// wait in a side engine until the lexer is drained, which a parse that
/// stops early (an error storm, the nesting cap) also does.
class Parser {
  public:
    Parser(std::string_view source, support::DiagnosticEngine& diagnostics);

    /// Parse a whole program. On any error the diagnostics engine carries the
    /// details and the returned (partial) program must not be used.
    Program parse_program();

  private:
    /// A parser whose error count starts from `known_errors`, the caller's
    /// errors plus every lexical error of the source; its lexer reports to
    /// `lexical`, which the caller discards.
    Parser(std::string_view source, support::DiagnosticEngine& lexical,
           std::optional<std::size_t> known_errors);

    /// One pass over the token stream, the lexer drained at the end.
    Program parse_pass();

    // Token stream ---------------------------------------------------------
    /// `lookahead` is 0 or 1. The reference lasts until the next advance(),
    /// so a caller that needs a token after consuming it copies it first.
    [[nodiscard]] const Token& peek(std::size_t lookahead = 0) const {
        return window_[(head_ + lookahead) & 1];
    }
    void advance();
    [[nodiscard]] bool check(TokenKind kind) const { return peek().is(kind); }
    bool match(TokenKind kind);
    void expect(TokenKind kind, std::string_view context);
    void synchronize_to_item();

    // Errors -----------------------------------------------------------------
    void error(std::string message, support::SourceSpan span);
    /// The caller's errors, the lexical ones so far (all of them when
    /// known) and the parser's.
    [[nodiscard]] std::size_t error_count() const;

    // Items ------------------------------------------------------------
    void parse_items(Program& program);
    FnItem parse_fn(bool is_unsafe);
    StaticItem parse_static();

    // Types --------------------------------------------------------------
    Type parse_type();
    /// The pool the parsed program will own, made on the first composite
    /// type.
    TypePool& types();

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
    void parse_call_args(ExprList& args);

    // Child lists --------------------------------------------------------
    /// Children are gathered on a stack shared by every list of their kind
    /// and moved into an exactly sized arena list once complete, so no
    /// list grows inside the arena.
    template <typename T>
    static void push(std::vector<T>& stack, T item);
    template <typename T>
    static void take(std::vector<T>& stack, std::size_t base, ArenaVector<T>& out);

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

    std::string_view source_;
    support::DiagnosticEngine& diagnostics_;
    Lexer lexer_;
    /// The next two tokens, peek(0) at head_.
    Token window_[2];
    std::size_t head_ = 0;
    /// The parser's own errors, appended to diagnostics_ once the lexer
    /// is drained.
    support::DiagnosticEngine parse_errors_;
    std::optional<std::size_t> known_errors_;
    /// The arena of the program being built.
    AstArena* arena_ = nullptr;
    /// The child stacks push and take use. One set per thread, kept across
    /// parses so a parse allocates none once they have grown; every pass
    /// leaves them empty, however it ends.
    struct Stacks {
        std::vector<StmtPtr> stmts;
        std::vector<ExprPtr> exprs;
        std::vector<FnItem> fns;

        /// Empties the stacks, and gives back any that one huge list grew.
        void clear();
    };
    static Stacks& thread_stacks();
    Stacks& stacks_ = thread_stacks();
    /// Levels enclosing the node being parsed.
    std::size_t depth_ = 0;
    /// Levels inside the expression the last parse_* call returned: 0 for
    /// a leaf. Left folds (binary chains, postfix chains, casts) build
    /// their nodes above an operand parsed at their own depth, so they
    /// check depth_ + height_ instead of relying on Nest alone.
    std::size_t height_ = 0;
    std::shared_ptr<TypePool> types_;
};

/// Convenience wrapper: lex + parse. Program is only meaningful if
/// diagnostics has no errors afterwards.
Program parse_source(std::string_view source, support::DiagnosticEngine& diagnostics);

/// Lex, parse and renumber; returns std::nullopt and fills `error` on
/// failure. This is the entry point used by the repair pipeline to validate
/// LLM-produced code.
std::optional<Program> try_parse(std::string_view source, std::string* error = nullptr);

}  // namespace rustbrain::lang
