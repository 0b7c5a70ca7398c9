#include "lang/parser.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "lang/lexer.hpp"

namespace rustbrain::lang {

namespace {

/// Binary operator precedence, mirroring Rust. Higher binds tighter.
/// (`as` casts and unary operators are handled above this table.)
struct OpInfo {
    BinaryOp op;
    int precedence;
};

std::optional<OpInfo> binary_op_for(TokenKind kind) {
    switch (kind) {
        case TokenKind::Star: return OpInfo{BinaryOp::Mul, 10};
        case TokenKind::Slash: return OpInfo{BinaryOp::Div, 10};
        case TokenKind::Percent: return OpInfo{BinaryOp::Rem, 10};
        case TokenKind::Plus: return OpInfo{BinaryOp::Add, 9};
        case TokenKind::Minus: return OpInfo{BinaryOp::Sub, 9};
        case TokenKind::Shl: return OpInfo{BinaryOp::Shl, 8};
        case TokenKind::Shr: return OpInfo{BinaryOp::Shr, 8};
        case TokenKind::Amp: return OpInfo{BinaryOp::BitAnd, 7};
        case TokenKind::Caret: return OpInfo{BinaryOp::BitXor, 6};
        case TokenKind::Pipe: return OpInfo{BinaryOp::BitOr, 5};
        case TokenKind::EqEq: return OpInfo{BinaryOp::Eq, 4};
        case TokenKind::NotEq: return OpInfo{BinaryOp::Ne, 4};
        case TokenKind::Lt: return OpInfo{BinaryOp::Lt, 4};
        case TokenKind::Le: return OpInfo{BinaryOp::Le, 4};
        case TokenKind::Gt: return OpInfo{BinaryOp::Gt, 4};
        case TokenKind::Ge: return OpInfo{BinaryOp::Ge, 4};
        case TokenKind::AmpAmp: return OpInfo{BinaryOp::And, 3};
        case TokenKind::PipePipe: return OpInfo{BinaryOp::Or, 2};
        default: return std::nullopt;
    }
}

}  // namespace

void Parser::check_nesting(std::size_t levels) {
    if (levels > kMaxNesting) {
        diagnostics_.error("nesting exceeds " + std::to_string(kMaxNesting) +
                               " levels",
                           peek().span);
        throw TooDeep{};
    }
}

Parser::Parser(std::vector<Token> tokens, support::DiagnosticEngine& diagnostics)
    : tokens_(std::move(tokens)), diagnostics_(diagnostics) {
    if (tokens_.empty()) {
        Token eof;
        eof.kind = TokenKind::EndOfFile;
        tokens_.push_back(eof);
    }
}

const Token& Parser::peek(std::size_t lookahead) const {
    const std::size_t index = position_ + lookahead;
    return index < tokens_.size() ? tokens_[index] : tokens_.back();
}

const Token& Parser::advance() {
    const Token& token = peek();
    if (position_ + 1 < tokens_.size()) {
        ++position_;
    }
    return token;
}

bool Parser::match(TokenKind kind) {
    if (check(kind)) {
        advance();
        return true;
    }
    return false;
}

const Token& Parser::expect(TokenKind kind, std::string_view context) {
    if (check(kind)) {
        return advance();
    }
    diagnostics_.error("expected " + std::string(token_kind_name(kind)) + " " +
                           std::string(context) + ", found " +
                           token_kind_name(peek().kind),
                       peek().span);
    return peek();
}

void Parser::synchronize_to_item() {
    while (!check(TokenKind::EndOfFile)) {
        if (check(TokenKind::KwFn) || check(TokenKind::KwStatic) ||
            (check(TokenKind::KwUnsafe) && peek(1).is(TokenKind::KwFn))) {
            return;
        }
        advance();
    }
}

Program Parser::parse_program() {
    Program program;
    try {
        parse_items(program);
    } catch (const TooDeep&) {
        // The located error is recorded; the partial program is unusable.
    }
    return program;
}

void Parser::parse_items(Program& program) {
    while (!check(TokenKind::EndOfFile)) {
        if (diagnostics_.error_count() > 20) {
            break;  // avoid error storms on garbage input
        }
        if (check(TokenKind::KwStatic)) {
            program.statics.push_back(parse_static());
        } else if (check(TokenKind::KwFn)) {
            advance();
            program.functions.push_back(parse_fn(/*is_unsafe=*/false));
        } else if (check(TokenKind::KwUnsafe) && peek(1).is(TokenKind::KwFn)) {
            advance();
            advance();
            program.functions.push_back(parse_fn(/*is_unsafe=*/true));
        } else {
            diagnostics_.error(std::string("expected item, found ") +
                                   token_kind_name(peek().kind),
                               peek().span);
            synchronize_to_item();
        }
    }
}

FnItem Parser::parse_fn(bool is_unsafe) {
    FnItem fn;
    fn.is_unsafe = is_unsafe;
    const Token& name = expect(TokenKind::Identifier, "after 'fn'");
    fn.name = name.text;
    fn.span = name.span;

    expect(TokenKind::LParen, "to open parameter list");
    if (!check(TokenKind::RParen)) {
        do {
            Param param;
            const Token& param_name = expect(TokenKind::Identifier, "parameter name");
            param.name = param_name.text;
            expect(TokenKind::Colon, "after parameter name");
            param.type = parse_type();
            fn.params.push_back(std::move(param));
        } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "to close parameter list");

    if (match(TokenKind::Arrow)) {
        fn.return_type = parse_type();
    } else {
        fn.return_type = Type::unit();
    }
    expect(TokenKind::LBrace, "to open function body");
    fn.body = parse_block();
    return fn;
}

StaticItem Parser::parse_static() {
    StaticItem item;
    const Token& kw = expect(TokenKind::KwStatic, "item");
    item.span = kw.span;
    item.is_mut = match(TokenKind::KwMut);
    const Token& name = expect(TokenKind::Identifier, "static name");
    item.name = name.text;
    expect(TokenKind::Colon, "after static name");
    item.type = parse_type();
    expect(TokenKind::Eq, "static initializer");
    item.init = parse_expression();
    expect(TokenKind::Semicolon, "after static item");
    return item;
}

Type Parser::parse_type() {
    // "*const T" / "*mut T"
    if (match(TokenKind::Star)) {
        const Nest nest(*this);
        bool is_mut = false;
        if (match(TokenKind::KwMut)) {
            is_mut = true;
        } else if (match(TokenKind::KwConst)) {
            is_mut = false;
        } else {
            diagnostics_.error("raw pointer type needs 'const' or 'mut'", peek().span);
        }
        return Type::raw_ptr(parse_type(), is_mut);
    }
    // "&T" / "&mut T"
    if (match(TokenKind::Amp)) {
        const Nest nest(*this);
        const bool is_mut = match(TokenKind::KwMut);
        return Type::reference(parse_type(), is_mut);
    }
    // "[T; N]"
    if (match(TokenKind::LBracket)) {
        const Nest nest(*this);
        Type element = parse_type();
        expect(TokenKind::Semicolon, "in array type");
        const Token& len = expect(TokenKind::IntLiteral, "array length");
        expect(TokenKind::RBracket, "to close array type");
        return Type::array(std::move(element), len.int_value);
    }
    // "fn(T, ...) -> T"
    if (match(TokenKind::KwFn)) {
        const Nest nest(*this);
        expect(TokenKind::LParen, "in fn pointer type");
        std::vector<Type> params;
        if (!check(TokenKind::RParen)) {
            do {
                params.push_back(parse_type());
            } while (match(TokenKind::Comma));
        }
        expect(TokenKind::RParen, "to close fn pointer type");
        Type ret = Type::unit();
        if (match(TokenKind::Arrow)) {
            ret = parse_type();
        }
        return Type::fn_ptr(std::move(params), std::move(ret));
    }
    // "()"
    if (check(TokenKind::LParen) && peek(1).is(TokenKind::RParen)) {
        advance();
        advance();
        return Type::unit();
    }
    // scalar name
    if (check(TokenKind::Identifier)) {
        const Token& name = advance();
        ScalarKind kind;
        if (scalar_kind_from_name(name.text, kind)) {
            return Type::scalar(kind);
        }
        diagnostics_.error("unknown type '" + name.text + "'", name.span);
        return Type::unit();
    }
    diagnostics_.error(std::string("expected type, found ") +
                           token_kind_name(peek().kind),
                       peek().span);
    advance();
    return Type::unit();
}

Block Parser::parse_block() {
    // Caller has already consumed the '{'.
    const Nest nest(*this);
    Block block;
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        if (diagnostics_.error_count() > 20) break;
        block.statements.push_back(parse_statement());
    }
    expect(TokenKind::RBrace, "to close block");
    return block;
}

StmtPtr Parser::parse_statement() {
    switch (peek().kind) {
        case TokenKind::KwLet:
            return parse_let();
        case TokenKind::KwIf:
            return parse_if();
        case TokenKind::KwWhile:
            return parse_while();
        case TokenKind::KwReturn:
            return parse_return();
        case TokenKind::KwBecome:
            return parse_become();
        case TokenKind::KwUnsafe: {
            auto stmt = std::make_unique<UnsafeStmt>();
            stmt->span = advance().span;
            expect(TokenKind::LBrace, "after 'unsafe'");
            stmt->block = parse_block();
            return stmt;
        }
        case TokenKind::LBrace: {
            auto stmt = std::make_unique<BlockStmt>();
            stmt->span = advance().span;
            stmt->block = parse_block();
            return stmt;
        }
        default:
            return parse_expr_or_assign();
    }
}

StmtPtr Parser::parse_let() {
    auto stmt = std::make_unique<LetStmt>();
    stmt->span = expect(TokenKind::KwLet, "statement").span;
    stmt->is_mut = match(TokenKind::KwMut);
    const Token& name = expect(TokenKind::Identifier, "after 'let'");
    stmt->name = name.text;
    if (match(TokenKind::Colon)) {
        stmt->declared_type = parse_type();
    }
    expect(TokenKind::Eq, "let initializer (mini-Rust requires initialization)");
    stmt->init = parse_expression();
    expect(TokenKind::Semicolon, "after let statement");
    return stmt;
}

StmtPtr Parser::parse_if() {
    auto stmt = std::make_unique<IfStmt>();
    stmt->span = expect(TokenKind::KwIf, "statement").span;
    stmt->condition = parse_expression();
    expect(TokenKind::LBrace, "to open if body");
    stmt->then_block = parse_block();
    if (match(TokenKind::KwElse)) {
        if (check(TokenKind::KwIf)) {
            // `else if` desugars to an else block containing a single if.
            const Nest nest(*this);
            Block else_block;
            else_block.statements.push_back(parse_if());
            stmt->else_block = std::move(else_block);
        } else {
            expect(TokenKind::LBrace, "to open else body");
            stmt->else_block = parse_block();
        }
    }
    return stmt;
}

StmtPtr Parser::parse_while() {
    auto stmt = std::make_unique<WhileStmt>();
    stmt->span = expect(TokenKind::KwWhile, "statement").span;
    stmt->condition = parse_expression();
    expect(TokenKind::LBrace, "to open while body");
    stmt->body = parse_block();
    return stmt;
}

StmtPtr Parser::parse_return() {
    auto stmt = std::make_unique<ReturnStmt>();
    stmt->span = expect(TokenKind::KwReturn, "statement").span;
    if (!check(TokenKind::Semicolon)) {
        stmt->value = parse_expression();
    }
    expect(TokenKind::Semicolon, "after return");
    return stmt;
}

StmtPtr Parser::parse_become() {
    auto stmt = std::make_unique<BecomeStmt>();
    stmt->span = expect(TokenKind::KwBecome, "statement").span;
    // The callee is a primary expression (identifier or parenthesized value),
    // followed by mandatory call arguments.
    auto callee = std::make_unique<VarRefExpr>();
    const Token& name = expect(TokenKind::Identifier, "after 'become'");
    callee->name = name.text;
    callee->span = name.span;
    stmt->callee = std::move(callee);
    expect(TokenKind::LParen, "to open become arguments");
    stmt->args = parse_call_args();
    expect(TokenKind::Semicolon, "after become");
    return stmt;
}

StmtPtr Parser::parse_expr_or_assign() {
    ExprPtr first = parse_expression();
    if (match(TokenKind::Eq)) {
        auto stmt = std::make_unique<AssignStmt>();
        stmt->span = first->span;
        stmt->place = std::move(first);
        stmt->value = parse_expression();
        expect(TokenKind::Semicolon, "after assignment");
        return stmt;
    }
    auto stmt = std::make_unique<ExprStmt>();
    stmt->span = first->span;
    stmt->expr = std::move(first);
    expect(TokenKind::Semicolon, "after expression statement");
    return stmt;
}

ExprPtr Parser::parse_expression() { return parse_binary(1); }

ExprPtr Parser::parse_binary(int min_precedence) {
    ExprPtr lhs = parse_cast();
    std::size_t height = height_;
    for (;;) {
        const auto info = binary_op_for(peek().kind);
        if (!info || info->precedence < min_precedence) {
            height_ = height;
            return lhs;
        }
        advance();
        ExprPtr rhs;
        {
            const Nest nest(*this);
            rhs = parse_binary(info->precedence + 1);
        }
        height = 1 + std::max(height, height_);
        check_nesting(depth_ + height);
        auto node = std::make_unique<BinaryExpr>();
        node->span = lhs->span.merge(rhs->span);
        node->op = info->op;
        node->lhs = std::move(lhs);
        node->rhs = std::move(rhs);
        lhs = std::move(node);
    }
}

ExprPtr Parser::parse_cast() {
    ExprPtr operand = parse_unary();
    std::size_t height = height_;
    while (match(TokenKind::KwAs)) {
        check_nesting(depth_ + ++height);
        auto node = std::make_unique<CastExpr>();
        node->span = operand->span;
        node->operand = std::move(operand);
        node->target = parse_type();
        operand = std::move(node);
    }
    height_ = height;
    return operand;
}

ExprPtr Parser::parse_unary() {
    const Token& token = peek();
    switch (token.kind) {
        case TokenKind::Minus: {
            advance();
            auto node = std::make_unique<UnaryExpr>();
            node->span = token.span;
            node->op = UnaryOp::Neg;
            node->operand = parse_unary_operand();
            return node;
        }
        case TokenKind::Bang: {
            advance();
            auto node = std::make_unique<UnaryExpr>();
            node->span = token.span;
            node->op = UnaryOp::Not;
            node->operand = parse_unary_operand();
            return node;
        }
        case TokenKind::Star: {
            advance();
            auto node = std::make_unique<UnaryExpr>();
            node->span = token.span;
            node->op = UnaryOp::Deref;
            node->operand = parse_unary_operand();
            return node;
        }
        case TokenKind::Amp: {
            advance();
            auto node = std::make_unique<UnaryExpr>();
            node->span = token.span;
            node->op = match(TokenKind::KwMut) ? UnaryOp::AddrOfMut : UnaryOp::AddrOf;
            node->operand = parse_unary_operand();
            return node;
        }
        default:
            return parse_postfix();
    }
}

ExprPtr Parser::parse_unary_operand() {
    const Nest nest(*this);
    ExprPtr operand = parse_unary();
    ++height_;
    return operand;
}

ExprPtr Parser::parse_postfix() {
    ExprPtr expr = parse_primary();
    std::size_t height = height_;
    for (;;) {
        if (check(TokenKind::LBracket)) {
            advance();
            auto node = std::make_unique<IndexExpr>();
            node->span = expr->span;
            node->base = std::move(expr);
            {
                const Nest nest(*this);
                node->index = parse_expression();
            }
            height = 1 + std::max(height, height_);
            check_nesting(depth_ + height);
            expect(TokenKind::RBracket, "to close index");
            expr = std::move(node);
        } else if (check(TokenKind::LParen) && expr->kind != ExprKind::VarRef) {
            // Indirect call through a computed fn-pointer value, e.g. (f)(1)
            // or p[0](x). Direct `name(args)` calls are handled in primary.
            advance();
            auto node = std::make_unique<CallPtrExpr>();
            node->span = expr->span;
            node->callee = std::move(expr);
            node->args = parse_call_args();
            height = 1 + std::max(height, height_);
            check_nesting(depth_ + height);
            expr = std::move(node);
        } else if (check(TokenKind::LParen) && expr->kind == ExprKind::VarRef) {
            // VarRef followed by parens only occurs via parenthesized primary
            // re-parse; plain identifiers take the Call path in parse_primary.
            advance();
            auto node = std::make_unique<CallPtrExpr>();
            node->span = expr->span;
            node->callee = std::move(expr);
            node->args = parse_call_args();
            height = 1 + std::max(height, height_);
            check_nesting(depth_ + height);
            expr = std::move(node);
        } else {
            height_ = height;
            return expr;
        }
    }
}

std::vector<ExprPtr> Parser::parse_call_args() {
    // Caller consumed '('. Leaves height_ at the tallest argument's.
    const Nest nest(*this);
    std::vector<ExprPtr> args;
    std::size_t height = 0;
    if (!check(TokenKind::RParen)) {
        do {
            args.push_back(parse_expression());
            height = std::max(height, height_);
        } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "to close call arguments");
    height_ = height;
    return args;
}

ExprPtr Parser::parse_primary() {
    const Token& token = peek();
    height_ = 0;
    switch (token.kind) {
        case TokenKind::IntLiteral: {
            advance();
            auto node = std::make_unique<IntLitExpr>();
            node->span = token.span;
            node->value = token.int_value;
            // Optional type suffix written as an adjacent identifier token is
            // not produced by our lexer (suffixes are part of the literal in
            // Rust); mini-Rust spells suffixed literals `5usize` which the
            // lexer splits into IntLiteral + Identifier only when the suffix
            // starts the next token — handle the common `as` pattern instead.
            return node;
        }
        case TokenKind::KwTrue:
        case TokenKind::KwFalse: {
            advance();
            auto node = std::make_unique<BoolLitExpr>();
            node->span = token.span;
            node->value = token.kind == TokenKind::KwTrue;
            return node;
        }
        case TokenKind::Identifier: {
            advance();
            if (check(TokenKind::LParen)) {
                advance();
                auto node = std::make_unique<CallExpr>();
                node->span = token.span;
                node->callee = token.text;
                node->args = parse_call_args();
                ++height_;
                return node;
            }
            auto node = std::make_unique<VarRefExpr>();
            node->span = token.span;
            node->name = token.text;
            return node;
        }
        case TokenKind::LParen: {
            advance();
            ExprPtr inner;
            {
                const Nest nest(*this);
                inner = parse_expression();
            }
            ++height_;
            expect(TokenKind::RParen, "to close parenthesized expression");
            return inner;
        }
        case TokenKind::LBracket: {
            advance();
            const Nest nest(*this);
            // Array literal `[a, b, c]` or repeat `[v; n]`.
            if (check(TokenKind::RBracket)) {
                advance();
                diagnostics_.error("empty array literals are not supported", token.span);
                auto node = std::make_unique<ArrayLitExpr>();
                node->span = token.span;
                return node;
            }
            ExprPtr first = parse_expression();
            std::size_t height = height_;
            if (match(TokenKind::Semicolon)) {
                const Token& count = expect(TokenKind::IntLiteral, "array repeat count");
                expect(TokenKind::RBracket, "to close array repeat");
                auto node = std::make_unique<ArrayRepeatExpr>();
                node->span = token.span;
                node->element = std::move(first);
                node->count = count.int_value;
                height_ = height + 1;
                return node;
            }
            auto node = std::make_unique<ArrayLitExpr>();
            node->span = token.span;
            node->elements.push_back(std::move(first));
            while (match(TokenKind::Comma)) {
                if (check(TokenKind::RBracket)) break;  // trailing comma
                node->elements.push_back(parse_expression());
                height = std::max(height, height_);
            }
            expect(TokenKind::RBracket, "to close array literal");
            height_ = height + 1;
            return node;
        }
        default: {
            diagnostics_.error(std::string("expected expression, found ") +
                                   token_kind_name(token.kind),
                               token.span);
            advance();
            auto node = std::make_unique<IntLitExpr>();
            node->span = token.span;
            return node;
        }
    }
}

Program parse_source(std::string_view source, support::DiagnosticEngine& diagnostics) {
    Lexer lexer(source, diagnostics);
    Parser parser(lexer.tokenize(), diagnostics);
    Program program = parser.parse_program();
    program.renumber();
    return program;
}

std::optional<Program> try_parse(std::string_view source, std::string* error) {
    support::DiagnosticEngine diagnostics;
    Program program = parse_source(source, diagnostics);
    if (diagnostics.has_errors()) {
        if (error != nullptr) {
            *error = diagnostics.summary();
        }
        return std::nullopt;
    }
    return program;
}

}  // namespace rustbrain::lang
