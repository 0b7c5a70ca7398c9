#include "lang/lexer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/parser.hpp"

namespace rustbrain::lang {
namespace {

/// Every token of the buffer, through EndOfFile.
std::vector<Token> tokenize(Lexer& lexer) {
    std::vector<Token> tokens;
    for (;;) {
        tokens.push_back(lexer.next());
        if (tokens.back().kind == TokenKind::EndOfFile) return tokens;
    }
}

std::vector<Token> lex_ok(std::string_view source) {
    support::DiagnosticEngine diagnostics;
    Lexer lexer(source, diagnostics);
    auto tokens = tokenize(lexer);
    EXPECT_FALSE(diagnostics.has_errors()) << diagnostics.summary();
    return tokens;
}

TEST(LexerTest, EmptyInputYieldsEof) {
    const auto tokens = lex_ok("");
    ASSERT_EQ(tokens.size(), 1u);
    EXPECT_EQ(tokens[0].kind, TokenKind::EndOfFile);
}

TEST(LexerTest, KeywordsAndIdentifiers) {
    const auto tokens = lex_ok("fn main unsafe letx become");
    ASSERT_EQ(tokens.size(), 6u);
    EXPECT_EQ(tokens[0].kind, TokenKind::KwFn);
    EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[1].text, "main");
    EXPECT_EQ(tokens[2].kind, TokenKind::KwUnsafe);
    EXPECT_EQ(tokens[3].kind, TokenKind::Identifier);  // letx is not 'let'
    EXPECT_EQ(tokens[4].kind, TokenKind::KwBecome);
}

TEST(LexerTest, DecimalAndHexLiterals) {
    const auto tokens = lex_ok("42 0x2A 1_000");
    EXPECT_EQ(tokens[0].int_value, 42u);
    EXPECT_EQ(tokens[1].int_value, 42u);
    EXPECT_EQ(tokens[2].int_value, 1000u);
}

TEST(LexerTest, HexLiteralNeedsDigits) {
    support::DiagnosticEngine diagnostics;
    Lexer lexer("0x", diagnostics);
    tokenize(lexer);
    EXPECT_TRUE(diagnostics.has_errors());
}

TEST(LexerTest, LiteralOverflowDiagnosed) {
    support::DiagnosticEngine diagnostics;
    Lexer lexer("99999999999999999999999999", diagnostics);
    tokenize(lexer);
    EXPECT_TRUE(diagnostics.has_errors());
}

TEST(LexerTest, MultiCharOperators) {
    const auto tokens = lex_ok("-> == != <= >= << >> && ||");
    EXPECT_EQ(tokens[0].kind, TokenKind::Arrow);
    EXPECT_EQ(tokens[1].kind, TokenKind::EqEq);
    EXPECT_EQ(tokens[2].kind, TokenKind::NotEq);
    EXPECT_EQ(tokens[3].kind, TokenKind::Le);
    EXPECT_EQ(tokens[4].kind, TokenKind::Ge);
    EXPECT_EQ(tokens[5].kind, TokenKind::Shl);
    EXPECT_EQ(tokens[6].kind, TokenKind::Shr);
    EXPECT_EQ(tokens[7].kind, TokenKind::AmpAmp);
    EXPECT_EQ(tokens[8].kind, TokenKind::PipePipe);
}

TEST(LexerTest, SingleVsDoubleAmp) {
    const auto tokens = lex_ok("a & b && c");
    EXPECT_EQ(tokens[1].kind, TokenKind::Amp);
    EXPECT_EQ(tokens[3].kind, TokenKind::AmpAmp);
}

TEST(LexerTest, LineAndBlockComments) {
    const auto tokens = lex_ok("a // comment\nb /* multi\nline */ c");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
    EXPECT_EQ(tokens[2].text, "c");
}

TEST(LexerTest, TracksLineAndColumn) {
    const auto tokens = lex_ok("a\n  b");
    EXPECT_EQ(tokens[0].span.line, 1u);
    EXPECT_EQ(tokens[0].span.column, 1u);
    EXPECT_EQ(tokens[1].span.line, 2u);
    EXPECT_EQ(tokens[1].span.column, 3u);
}

TEST(LexerTest, UnexpectedCharacterDiagnosed) {
    support::DiagnosticEngine diagnostics;
    Lexer lexer("let $ = 1;", diagnostics);
    const auto tokens = tokenize(lexer);
    EXPECT_TRUE(diagnostics.has_errors());
    bool saw_invalid = false;
    for (const auto& token : tokens) {
        if (token.kind == TokenKind::Invalid) saw_invalid = true;
    }
    EXPECT_TRUE(saw_invalid);
}

TEST(LexerTest, UnterminatedBlockCommentIsALocatedError) {
    support::DiagnosticEngine diagnostics;
    Lexer lexer("fn main() { let x = 1; }\n  /* never closed", diagnostics);
    const auto tokens = tokenize(lexer);
    ASSERT_TRUE(diagnostics.has_errors());
    EXPECT_NE(diagnostics.summary().find("unterminated block comment"),
              std::string::npos)
        << diagnostics.summary();
    EXPECT_NE(diagnostics.summary().find("2:3"), std::string::npos)
        << diagnostics.summary();
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
    // A closed comment at end of input stays fine.
    EXPECT_EQ(lex_ok("a /* closed */").size(), 2u);
    std::string error;
    EXPECT_FALSE(try_parse("fn main() { let x = 1; } /* never closed", &error));
    EXPECT_NE(error.find("unterminated block comment"), std::string::npos) << error;
}

// Keyword recognition must match whole identifiers only: every keyword,
// and every keyword with one identifier character glued on either side.
TEST(LexerTest, KeywordBoundaries) {
    const std::pair<const char*, TokenKind> keywords[] = {
        {"fn", TokenKind::KwFn},         {"let", TokenKind::KwLet},
        {"mut", TokenKind::KwMut},       {"if", TokenKind::KwIf},
        {"else", TokenKind::KwElse},     {"while", TokenKind::KwWhile},
        {"return", TokenKind::KwReturn}, {"unsafe", TokenKind::KwUnsafe},
        {"static", TokenKind::KwStatic}, {"as", TokenKind::KwAs},
        {"true", TokenKind::KwTrue},     {"false", TokenKind::KwFalse},
        {"const", TokenKind::KwConst},   {"become", TokenKind::KwBecome},
    };
    for (const auto& [spelling, kind] : keywords) {
        SCOPED_TRACE(spelling);
        const auto alone = lex_ok(spelling);
        ASSERT_EQ(alone.size(), 2u);
        EXPECT_EQ(alone[0].kind, kind);
        EXPECT_EQ(alone[0].text, spelling);
        for (const std::string glue : {"_", "x", "Z", "0", "9"}) {
            // Token text views its source, so each source outlives its tokens.
            const std::string glued_after = spelling + glue;
            const auto after = lex_ok(glued_after);
            ASSERT_EQ(after.size(), 2u) << glued_after;
            EXPECT_EQ(after[0].kind, TokenKind::Identifier);
            EXPECT_EQ(after[0].text, glued_after);
            const std::string glued_before = glue + spelling;
            const auto before = lex_ok(glued_before);
            if (glue[0] >= '0' && glue[0] <= '9') {
                // A leading digit is a literal of its own.
                ASSERT_EQ(before.size(), 3u) << glued_before;
                EXPECT_EQ(before[0].kind, TokenKind::IntLiteral);
                EXPECT_EQ(before[1].kind, kind);
            } else {
                ASSERT_EQ(before.size(), 2u) << glued_before;
                EXPECT_EQ(before[0].kind, TokenKind::Identifier);
                EXPECT_EQ(before[0].text, glued_before);
            }
        }
        // The keyword less its last character is an identifier.
        const std::string prefix(spelling, std::string_view(spelling).size() - 1);
        EXPECT_EQ(lex_ok(prefix)[0].kind, TokenKind::Identifier);
    }
    const auto underscore = lex_ok("_ _1 a_b");
    ASSERT_EQ(underscore.size(), 4u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(underscore[i].kind, TokenKind::Identifier);
    }
    EXPECT_EQ(underscore[1].text, "_1");
}

TEST(LexerTest, NonAsciiBytesAreInvalid) {
    for (int byte = 0x80; byte <= 0xFF; ++byte) {
        SCOPED_TRACE(byte);
        const std::string glyph(1, static_cast<char>(byte));
        const std::string source = "a" + glyph + "b";
        support::DiagnosticEngine diagnostics;
        Lexer lexer(source, diagnostics);
        const auto tokens = tokenize(lexer);
        ASSERT_EQ(tokens.size(), 4u);
        EXPECT_EQ(tokens[0].text, "a");
        EXPECT_EQ(tokens[1].kind, TokenKind::Invalid);
        EXPECT_EQ(tokens[1].text, glyph);
        EXPECT_EQ(tokens[2].text, "b");
        EXPECT_NE(diagnostics.summary().find("unexpected character '" + glyph + "'"),
                  std::string::npos);
    }
}

TEST(LexerTest, PunctuationInventory) {
    const auto tokens = lex_ok("( ) { } [ ] , ; : = + - * / % ^ ! < >");
    const TokenKind expected[] = {
        TokenKind::LParen, TokenKind::RParen,  TokenKind::LBrace,
        TokenKind::RBrace, TokenKind::LBracket, TokenKind::RBracket,
        TokenKind::Comma,  TokenKind::Semicolon, TokenKind::Colon,
        TokenKind::Eq,     TokenKind::Plus,    TokenKind::Minus,
        TokenKind::Star,   TokenKind::Slash,   TokenKind::Percent,
        TokenKind::Caret,  TokenKind::Bang,    TokenKind::Lt,
        TokenKind::Gt,
    };
    ASSERT_GE(tokens.size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i) {
        EXPECT_EQ(tokens[i].kind, expected[i]) << "at index " << i;
    }
}

}  // namespace
}  // namespace rustbrain::lang
