// Lexer for mini-Rust. Hands out one token per next() call, so the parser
// pulls tokens through a two-token window instead of holding the whole
// stream; lexical errors are reported through the DiagnosticEngine as the
// lexer reaches them and yield Invalid tokens so the parser can continue
// and report more. Token spellings are views into the source, which must
// outlive the tokens.
#pragma once

#include <string_view>

#include "lang/token.hpp"
#include "support/diagnostics.hpp"

namespace rustbrain::lang {

/// True when `text` lexes as exactly one identifier token: an ASCII letter
/// or `_`, then letters, digits and `_`, and not a keyword.
bool is_identifier(std::string_view text);

class Lexer {
  public:
    Lexer(std::string_view source, support::DiagnosticEngine& diagnostics);

    /// The next token; EndOfFile at the end of the buffer, and again on
    /// every later call.
    Token next();

  private:
    [[nodiscard]] bool at_end() const { return position_ >= source_.size(); }
    [[nodiscard]] char peek(std::size_t lookahead = 0) const;
    char advance();
    /// Advance over `count` bytes that hold no newline.
    void advance_columns(std::size_t count);
    void skip_trivia();
    Token lex_identifier_or_keyword();
    Token lex_number();
    Token make_token(TokenKind kind, std::size_t start);
    [[nodiscard]] support::SourceSpan span_from(std::size_t start) const;

    std::string_view source_;
    support::DiagnosticEngine& diagnostics_;
    std::size_t position_ = 0;
    std::uint32_t line_ = 1;
    std::uint32_t column_ = 1;
    std::uint32_t token_line_ = 1;
    std::uint32_t token_column_ = 1;
};

}  // namespace rustbrain::lang
