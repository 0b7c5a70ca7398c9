#include "lang/lexer.hpp"

namespace rustbrain::lang {

const char* token_kind_name(TokenKind kind) {
    switch (kind) {
        case TokenKind::Identifier: return "identifier";
        case TokenKind::IntLiteral: return "integer literal";
        case TokenKind::KwFn: return "'fn'";
        case TokenKind::KwLet: return "'let'";
        case TokenKind::KwMut: return "'mut'";
        case TokenKind::KwIf: return "'if'";
        case TokenKind::KwElse: return "'else'";
        case TokenKind::KwWhile: return "'while'";
        case TokenKind::KwReturn: return "'return'";
        case TokenKind::KwUnsafe: return "'unsafe'";
        case TokenKind::KwStatic: return "'static'";
        case TokenKind::KwAs: return "'as'";
        case TokenKind::KwTrue: return "'true'";
        case TokenKind::KwFalse: return "'false'";
        case TokenKind::KwConst: return "'const'";
        case TokenKind::KwBecome: return "'become'";
        case TokenKind::LParen: return "'('";
        case TokenKind::RParen: return "')'";
        case TokenKind::LBrace: return "'{'";
        case TokenKind::RBrace: return "'}'";
        case TokenKind::LBracket: return "'['";
        case TokenKind::RBracket: return "']'";
        case TokenKind::Comma: return "','";
        case TokenKind::Semicolon: return "';'";
        case TokenKind::Colon: return "':'";
        case TokenKind::Arrow: return "'->'";
        case TokenKind::Eq: return "'='";
        case TokenKind::EqEq: return "'=='";
        case TokenKind::NotEq: return "'!='";
        case TokenKind::Lt: return "'<'";
        case TokenKind::Gt: return "'>'";
        case TokenKind::Le: return "'<='";
        case TokenKind::Ge: return "'>='";
        case TokenKind::Plus: return "'+'";
        case TokenKind::Minus: return "'-'";
        case TokenKind::Star: return "'*'";
        case TokenKind::Slash: return "'/'";
        case TokenKind::Percent: return "'%'";
        case TokenKind::Amp: return "'&'";
        case TokenKind::AmpAmp: return "'&&'";
        case TokenKind::Pipe: return "'|'";
        case TokenKind::PipePipe: return "'||'";
        case TokenKind::Caret: return "'^'";
        case TokenKind::Shl: return "'<<'";
        case TokenKind::Shr: return "'>>'";
        case TokenKind::Bang: return "'!'";
        case TokenKind::EndOfFile: return "end of file";
        case TokenKind::Invalid: return "invalid token";
    }
    return "unknown";
}

namespace {

// ASCII classification without the locale: bytes >= 0x80 are none of these.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_ident_start(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
constexpr bool is_ident_char(char c) { return is_ident_start(c) || is_digit(c); }
constexpr bool is_hex_digit(char c) {
    return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

TokenKind keyword_or_identifier(std::string_view text) {
    switch (text[0]) {
        case 'a': if (text == "as") return TokenKind::KwAs; break;
        case 'b': if (text == "become") return TokenKind::KwBecome; break;
        case 'c': if (text == "const") return TokenKind::KwConst; break;
        case 'e': if (text == "else") return TokenKind::KwElse; break;
        case 'f':
            if (text == "fn") return TokenKind::KwFn;
            if (text == "false") return TokenKind::KwFalse;
            break;
        case 'i': if (text == "if") return TokenKind::KwIf; break;
        case 'l': if (text == "let") return TokenKind::KwLet; break;
        case 'm': if (text == "mut") return TokenKind::KwMut; break;
        case 'r': if (text == "return") return TokenKind::KwReturn; break;
        case 's': if (text == "static") return TokenKind::KwStatic; break;
        case 't': if (text == "true") return TokenKind::KwTrue; break;
        case 'u': if (text == "unsafe") return TokenKind::KwUnsafe; break;
        case 'w': if (text == "while") return TokenKind::KwWhile; break;
        default: break;
    }
    return TokenKind::Identifier;
}

}  // namespace

bool is_identifier(std::string_view text) {
    if (text.empty() || !is_ident_start(text[0])) return false;
    for (const char c : text) {
        if (!is_ident_char(c)) return false;
    }
    return keyword_or_identifier(text) == TokenKind::Identifier;
}

Lexer::Lexer(std::string_view source, support::DiagnosticEngine& diagnostics)
    : source_(source), diagnostics_(diagnostics) {}

char Lexer::peek(std::size_t lookahead) const {
    const std::size_t index = position_ + lookahead;
    return index < source_.size() ? source_[index] : '\0';
}

char Lexer::advance() {
    const char c = source_[position_++];
    if (c == '\n') {
        ++line_;
        column_ = 1;
    } else {
        ++column_;
    }
    return c;
}

void Lexer::advance_columns(std::size_t count) {
    position_ += count;
    column_ += static_cast<std::uint32_t>(count);
}

void Lexer::skip_trivia() {
    for (;;) {
        // Runs of indentation are most of the trivia: take them in one step.
        std::size_t end = position_;
        while (end < source_.size() &&
               (source_[end] == ' ' || source_[end] == '\t' || source_[end] == '\r')) {
            ++end;
        }
        advance_columns(end - position_);
        if (at_end()) return;
        const char c = peek();
        if (c == '\n') {
            advance();
        } else if (c == '/' && peek(1) == '/') {
            while (!at_end() && peek() != '\n') advance();
        } else if (c == '/' && peek(1) == '*') {
            support::SourceSpan opener;
            opener.begin = static_cast<std::uint32_t>(position_);
            opener.line = line_;
            opener.column = column_;
            advance();
            advance();
            while (!at_end() && !(peek() == '*' && peek(1) == '/')) advance();
            if (at_end()) {
                opener.end = static_cast<std::uint32_t>(position_);
                diagnostics_.error("unterminated block comment", opener);
                return;
            }
            advance();
            advance();
        } else {
            return;
        }
    }
}

support::SourceSpan Lexer::span_from(std::size_t start) const {
    support::SourceSpan span;
    span.begin = static_cast<std::uint32_t>(start);
    span.end = static_cast<std::uint32_t>(position_);
    span.line = token_line_;
    span.column = token_column_;
    return span;
}

Token Lexer::make_token(TokenKind kind, std::size_t start) {
    Token token;
    token.kind = kind;
    token.text = std::string_view(source_.data() + start, position_ - start);
    token.span = span_from(start);
    return token;
}

Token Lexer::lex_identifier_or_keyword() {
    const std::size_t start = position_;
    std::size_t end = start + 1;
    while (end < source_.size() && is_ident_char(source_[end])) ++end;
    advance_columns(end - start);
    Token token = make_token(TokenKind::Identifier, start);
    token.kind = keyword_or_identifier(token.text);
    return token;
}

Token Lexer::lex_number() {
    const std::size_t start = position_;
    std::uint64_t value = 0;
    bool overflow = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        advance_columns(2);
        bool any_digit = false;
        while (!at_end() && (is_hex_digit(peek()) || peek() == '_')) {
            const char c = advance();
            if (c == '_') continue;
            any_digit = true;
            const std::uint64_t digit =
                is_digit(c) ? static_cast<std::uint64_t>(c - '0')
                            : static_cast<std::uint64_t>((c | 0x20) - 'a' + 10);
            if (value > (~0ULL - digit) / 16) overflow = true;
            value = value * 16 + digit;
        }
        if (!any_digit) {
            diagnostics_.error("hex literal needs at least one digit", span_from(start));
        }
    } else {
        while (!at_end() && (is_digit(peek()) || peek() == '_')) {
            const char c = advance();
            if (c == '_') continue;
            const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
            if (value > (~0ULL - digit) / 10) overflow = true;
            value = value * 10 + digit;
        }
    }
    Token token = make_token(TokenKind::IntLiteral, start);
    token.int_value = value;
    if (overflow) {
        diagnostics_.error("integer literal overflows u64", token.span);
    }
    return token;
}

Token Lexer::next() {
    skip_trivia();
    token_line_ = line_;
    token_column_ = column_;
    if (at_end()) {
        Token token;
        token.kind = TokenKind::EndOfFile;
        token.span = span_from(position_);
        return token;
    }
    const std::size_t start = position_;
    const char c = peek();
    if (is_ident_start(c)) {
        return lex_identifier_or_keyword();
    }
    if (is_digit(c)) {
        return lex_number();
    }
    advance();
    switch (c) {
        case '(': return make_token(TokenKind::LParen, start);
        case ')': return make_token(TokenKind::RParen, start);
        case '{': return make_token(TokenKind::LBrace, start);
        case '}': return make_token(TokenKind::RBrace, start);
        case '[': return make_token(TokenKind::LBracket, start);
        case ']': return make_token(TokenKind::RBracket, start);
        case ',': return make_token(TokenKind::Comma, start);
        case ';': return make_token(TokenKind::Semicolon, start);
        case ':': return make_token(TokenKind::Colon, start);
        case '+': return make_token(TokenKind::Plus, start);
        case '%': return make_token(TokenKind::Percent, start);
        case '^': return make_token(TokenKind::Caret, start);
        case '/': return make_token(TokenKind::Slash, start);
        case '*': return make_token(TokenKind::Star, start);
        case '-':
            if (peek() == '>') {
                advance();
                return make_token(TokenKind::Arrow, start);
            }
            return make_token(TokenKind::Minus, start);
        case '=':
            if (peek() == '=') {
                advance();
                return make_token(TokenKind::EqEq, start);
            }
            return make_token(TokenKind::Eq, start);
        case '!':
            if (peek() == '=') {
                advance();
                return make_token(TokenKind::NotEq, start);
            }
            return make_token(TokenKind::Bang, start);
        case '<':
            if (peek() == '=') {
                advance();
                return make_token(TokenKind::Le, start);
            }
            if (peek() == '<') {
                advance();
                return make_token(TokenKind::Shl, start);
            }
            return make_token(TokenKind::Lt, start);
        case '>':
            if (peek() == '=') {
                advance();
                return make_token(TokenKind::Ge, start);
            }
            if (peek() == '>') {
                advance();
                return make_token(TokenKind::Shr, start);
            }
            return make_token(TokenKind::Gt, start);
        case '&':
            if (peek() == '&') {
                advance();
                return make_token(TokenKind::AmpAmp, start);
            }
            return make_token(TokenKind::Amp, start);
        case '|':
            if (peek() == '|') {
                advance();
                return make_token(TokenKind::PipePipe, start);
            }
            return make_token(TokenKind::Pipe, start);
        default: {
            Token token = make_token(TokenKind::Invalid, start);
            diagnostics_.error("unexpected character '" + std::string(1, c) + "'",
                               token.span);
            return token;
        }
    }
}

}  // namespace rustbrain::lang
