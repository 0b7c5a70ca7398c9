// Token model for mini-Rust.
#pragma once

#include <cstdint>
#include <string_view>

#include "support/source_span.hpp"

namespace rustbrain::lang {

enum class TokenKind {
    // Literals / identifiers
    Identifier,
    IntLiteral,
    // Keywords
    KwFn,
    KwLet,
    KwMut,
    KwIf,
    KwElse,
    KwWhile,
    KwReturn,
    KwUnsafe,
    KwStatic,
    KwAs,
    KwTrue,
    KwFalse,
    KwConst,
    KwBecome,
    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Colon,
    Arrow,      // ->
    Eq,         // =
    EqEq,       // ==
    NotEq,      // !=
    Lt,
    Gt,
    Le,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,        // &
    AmpAmp,     // &&
    Pipe,       // |
    PipePipe,   // ||
    Caret,      // ^
    Shl,        // <<
    Shr,        // >>
    Bang,       // !
    EndOfFile,
    Invalid,
};

struct Token {
    TokenKind kind = TokenKind::Invalid;
    std::string_view text;     // spelling: a view into the lexed source
    std::uint64_t int_value = 0;  // for IntLiteral
    support::SourceSpan span;

    [[nodiscard]] bool is(TokenKind k) const { return kind == k; }
};

const char* token_kind_name(TokenKind kind);

}  // namespace rustbrain::lang
