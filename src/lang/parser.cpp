#include "lang/parser.hpp"

#include <algorithm>
#include <string>
#include <utility>

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
        error("nesting exceeds " + std::to_string(kMaxNesting) + " levels",
              peek().span);
        throw TooDeep{};
    }
}

Parser::Parser(std::string_view source, support::DiagnosticEngine& diagnostics)
    : Parser(source, diagnostics, std::nullopt) {}

Parser::Parser(std::string_view source, support::DiagnosticEngine& lexical,
               std::optional<std::size_t> known_errors)
    : source_(source),
      diagnostics_(lexical),
      lexer_(source, lexical),
      known_errors_(known_errors) {
    window_[0] = lexer_.next();
    window_[1] = lexer_.next();
}

void Parser::advance() {
    // Past the end the lexer hands out EndOfFile again, so the window
    // rests on it.
    window_[head_] = lexer_.next();
    head_ ^= 1;
}

bool Parser::match(TokenKind kind) {
    if (check(kind)) {
        advance();
        return true;
    }
    return false;
}

void Parser::expect(TokenKind kind, std::string_view context) {
    if (check(kind)) {
        advance();
        return;
    }
    error("expected " + std::string(token_kind_name(kind)) + " " +
              std::string(context) + ", found " + token_kind_name(peek().kind),
          peek().span);
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

void Parser::error(std::string message, support::SourceSpan span) {
    parse_errors_.error(std::move(message), span);
}

std::size_t Parser::error_count() const {
    return known_errors_.value_or(diagnostics_.error_count()) +
           parse_errors_.error_count();
}

template <typename T>
void Parser::push(std::vector<T>& stack, T item) {
    // Grow by half, not double, so the stack of one huge block stays
    // smaller than the source that spelled it.
    if (stack.size() == stack.capacity()) {
        stack.reserve(stack.size() + stack.size() / 2 + 16);
    }
    stack.push_back(std::move(item));
}

template <typename T>
void Parser::take(std::vector<T>& stack, std::size_t base, ArenaVector<T>& out) {
    out.reserve(stack.size() - base);
    for (std::size_t i = base; i < stack.size(); ++i) {
        out.push_back(std::move(stack[i]));
    }
    stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(base), stack.end());
}

std::size_t arena_bytes_for(std::size_t source_bytes) {
    return std::clamp<std::size_t>(source_bytes * kArenaBytesPerSourceByte, 256,
                                   AstArena::kMaxBlockBytes);
}

Program Parser::parse_program() {
    const std::size_t errors_before = diagnostics_.error_count();
    Program program = parse_pass();
    const std::size_t lexed = diagnostics_.error_count();
    if (lexed > errors_before && lexed + parse_errors_.error_count() > kMaxParseErrors) {
        // The stop rule counts every lexical error of the source, and this
        // pass saw only those before its position: parse again, knowing
        // them all. Only an error storm takes this path.
        support::DiagnosticEngine relexed;
        Parser again(source_, relexed, lexed);
        program = again.parse_pass();
        parse_errors_ = std::move(again.parse_errors_);
    }
    for (const support::Diagnostic& diagnostic : parse_errors_.all()) {
        diagnostics_.error(diagnostic.message, diagnostic.span);
    }
    return program;
}

Parser::Stacks& Parser::thread_stacks() {
    thread_local Stacks stacks;
    return stacks;
}

void Parser::Stacks::clear() {
    constexpr std::size_t kKeep = 4096;
    stmts.clear();
    exprs.clear();
    fns.clear();
    if (stmts.capacity() > kKeep) std::vector<StmtPtr>().swap(stmts);
    if (exprs.capacity() > kKeep) std::vector<ExprPtr>().swap(exprs);
    if (fns.capacity() > kKeep) std::vector<FnItem>().swap(fns);
}

Program Parser::parse_pass() {
    Program program(arena_bytes_for(source_.size()));
    arena_ = &program.arena();
    {
        // Leave the stacks empty however the pass ends, an exception
        // included.
        struct Reset {
            Stacks& stacks;
            ~Reset() { stacks.clear(); }
        } const reset{stacks_};
        try {
            parse_items(program);
        } catch (const TooDeep&) {
            // The located error is recorded; the partial program is unusable.
        }
        program.functions.reserve(stacks_.fns.size());
        for (FnItem& fn : stacks_.fns) program.functions.push_back(std::move(fn));
    }
    // Drain the lexer, so every lexical error is reported.
    while (!check(TokenKind::EndOfFile)) advance();
    program.type_pool = std::move(types_);
    return program;
}

TypePool& Parser::types() {
    if (!types_) types_ = std::make_shared<TypePool>();
    return *types_;
}

void Parser::parse_items(Program& program) {
    while (!check(TokenKind::EndOfFile)) {
        if (error_count() > kMaxParseErrors) {
            break;  // avoid error storms on garbage input
        }
        if (check(TokenKind::KwStatic)) {
            program.statics.push_back(parse_static());
        } else if (check(TokenKind::KwFn)) {
            advance();
            stacks_.fns.push_back(parse_fn(/*is_unsafe=*/false));
        } else if (check(TokenKind::KwUnsafe) && peek(1).is(TokenKind::KwFn)) {
            advance();
            advance();
            stacks_.fns.push_back(parse_fn(/*is_unsafe=*/true));
        } else {
            error(std::string("expected item, found ") + token_kind_name(peek().kind),
                  peek().span);
            synchronize_to_item();
        }
    }
}

FnItem Parser::parse_fn(bool is_unsafe) {
    FnItem fn(*arena_);
    fn.is_unsafe = is_unsafe;
    fn.name = arena_->name(peek().text);
    fn.span = peek().span;
    expect(TokenKind::Identifier, "after 'fn'");

    expect(TokenKind::LParen, "to open parameter list");
    if (!check(TokenKind::RParen)) {
        do {
            Param param;
            param.name = arena_->name(peek().text);
            expect(TokenKind::Identifier, "parameter name");
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
    item.span = peek().span;
    expect(TokenKind::KwStatic, "item");
    item.is_mut = match(TokenKind::KwMut);
    item.name = arena_->name(peek().text);
    expect(TokenKind::Identifier, "static name");
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
            error("raw pointer type needs 'const' or 'mut'", peek().span);
        }
        return types().raw_ptr(parse_type(), is_mut);
    }
    // "&T" / "&mut T"
    if (match(TokenKind::Amp)) {
        const Nest nest(*this);
        const bool is_mut = match(TokenKind::KwMut);
        return types().reference(parse_type(), is_mut);
    }
    // "[T; N]"
    if (match(TokenKind::LBracket)) {
        const Nest nest(*this);
        Type element = parse_type();
        expect(TokenKind::Semicolon, "in array type");
        const std::uint64_t length = peek().int_value;
        expect(TokenKind::IntLiteral, "array length");
        expect(TokenKind::RBracket, "to close array type");
        return types().array(element, length);
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
        return types().fn_ptr(std::move(params), ret);
    }
    // "()"
    if (check(TokenKind::LParen) && peek(1).is(TokenKind::RParen)) {
        advance();
        advance();
        return Type::unit();
    }
    // scalar name
    if (check(TokenKind::Identifier)) {
        const Token name = peek();
        advance();
        ScalarKind kind;
        if (scalar_kind_from_name(name.text, kind)) {
            return Type::scalar(kind);
        }
        error("unknown type '" + std::string(name.text) + "'", name.span);
        return Type::unit();
    }
    error(std::string("expected type, found ") + token_kind_name(peek().kind),
          peek().span);
    advance();
    return Type::unit();
}

Block Parser::parse_block() {
    // Caller has already consumed the '{'.
    const Nest nest(*this);
    const std::size_t base = stacks_.stmts.size();
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        if (error_count() > kMaxParseErrors) break;
        push(stacks_.stmts, parse_statement());
    }
    expect(TokenKind::RBrace, "to close block");
    Block block(*arena_);
    take(stacks_.stmts, base, block.statements);
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
            auto stmt = arena_->make<UnsafeStmt>();
            stmt->span = peek().span;
            advance();
            expect(TokenKind::LBrace, "after 'unsafe'");
            stmt->block = parse_block();
            return stmt;
        }
        case TokenKind::LBrace: {
            auto stmt = arena_->make<BlockStmt>();
            stmt->span = peek().span;
            advance();
            stmt->block = parse_block();
            return stmt;
        }
        default:
            return parse_expr_or_assign();
    }
}

StmtPtr Parser::parse_let() {
    auto stmt = arena_->make<LetStmt>();
    stmt->span = peek().span;
    expect(TokenKind::KwLet, "statement");
    stmt->is_mut = match(TokenKind::KwMut);
    stmt->name = arena_->name(peek().text);
    expect(TokenKind::Identifier, "after 'let'");
    if (match(TokenKind::Colon)) {
        stmt->declared_type = parse_type();
    }
    expect(TokenKind::Eq, "let initializer (mini-Rust requires initialization)");
    stmt->init = parse_expression();
    expect(TokenKind::Semicolon, "after let statement");
    return stmt;
}

StmtPtr Parser::parse_if() {
    auto stmt = arena_->make<IfStmt>();
    stmt->span = peek().span;
    expect(TokenKind::KwIf, "statement");
    stmt->condition = parse_expression();
    expect(TokenKind::LBrace, "to open if body");
    stmt->then_block = parse_block();
    if (match(TokenKind::KwElse)) {
        if (check(TokenKind::KwIf)) {
            // `else if` desugars to an else block containing a single if.
            const Nest nest(*this);
            Block else_block(*arena_);
            else_block.statements.reserve(1);
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
    auto stmt = arena_->make<WhileStmt>();
    stmt->span = peek().span;
    expect(TokenKind::KwWhile, "statement");
    stmt->condition = parse_expression();
    expect(TokenKind::LBrace, "to open while body");
    stmt->body = parse_block();
    return stmt;
}

StmtPtr Parser::parse_return() {
    auto stmt = arena_->make<ReturnStmt>();
    stmt->span = peek().span;
    expect(TokenKind::KwReturn, "statement");
    if (!check(TokenKind::Semicolon)) {
        stmt->value = parse_expression();
    }
    expect(TokenKind::Semicolon, "after return");
    return stmt;
}

StmtPtr Parser::parse_become() {
    auto stmt = arena_->make<BecomeStmt>();
    stmt->span = peek().span;
    expect(TokenKind::KwBecome, "statement");
    // The callee is a primary expression (identifier or parenthesized value),
    // followed by mandatory call arguments.
    auto callee = arena_->make<VarRefExpr>();
    callee->name = arena_->name(peek().text);
    callee->span = peek().span;
    expect(TokenKind::Identifier, "after 'become'");
    stmt->callee = std::move(callee);
    expect(TokenKind::LParen, "to open become arguments");
    parse_call_args(stmt->args);
    expect(TokenKind::Semicolon, "after become");
    return stmt;
}

StmtPtr Parser::parse_expr_or_assign() {
    ExprPtr first = parse_expression();
    if (match(TokenKind::Eq)) {
        auto stmt = arena_->make<AssignStmt>();
        stmt->span = first->span;
        stmt->place = std::move(first);
        stmt->value = parse_expression();
        expect(TokenKind::Semicolon, "after assignment");
        return stmt;
    }
    auto stmt = arena_->make<ExprStmt>();
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
        auto node = arena_->make<BinaryExpr>();
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
        auto node = arena_->make<CastExpr>();
        node->span = operand->span;
        node->operand = std::move(operand);
        node->target = parse_type();
        operand = std::move(node);
    }
    height_ = height;
    return operand;
}

ExprPtr Parser::parse_unary() {
    const Token token = peek();
    switch (token.kind) {
        case TokenKind::Minus: {
            advance();
            auto node = arena_->make<UnaryExpr>();
            node->span = token.span;
            node->op = UnaryOp::Neg;
            node->operand = parse_unary_operand();
            return node;
        }
        case TokenKind::Bang: {
            advance();
            auto node = arena_->make<UnaryExpr>();
            node->span = token.span;
            node->op = UnaryOp::Not;
            node->operand = parse_unary_operand();
            return node;
        }
        case TokenKind::Star: {
            advance();
            auto node = arena_->make<UnaryExpr>();
            node->span = token.span;
            node->op = UnaryOp::Deref;
            node->operand = parse_unary_operand();
            return node;
        }
        case TokenKind::Amp: {
            advance();
            auto node = arena_->make<UnaryExpr>();
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
            auto node = arena_->make<IndexExpr>();
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
            auto node = arena_->make<CallPtrExpr>();
            node->span = expr->span;
            node->callee = std::move(expr);
            parse_call_args(node->args);
            height = 1 + std::max(height, height_);
            check_nesting(depth_ + height);
            expr = std::move(node);
        } else if (check(TokenKind::LParen) && expr->kind == ExprKind::VarRef) {
            // VarRef followed by parens only occurs via parenthesized primary
            // re-parse; plain identifiers take the Call path in parse_primary.
            advance();
            auto node = arena_->make<CallPtrExpr>();
            node->span = expr->span;
            node->callee = std::move(expr);
            parse_call_args(node->args);
            height = 1 + std::max(height, height_);
            check_nesting(depth_ + height);
            expr = std::move(node);
        } else {
            height_ = height;
            return expr;
        }
    }
}

void Parser::parse_call_args(ExprList& args) {
    // Caller consumed '('. Leaves height_ at the tallest argument's.
    const Nest nest(*this);
    const std::size_t base = stacks_.exprs.size();
    std::size_t height = 0;
    if (!check(TokenKind::RParen)) {
        do {
            push(stacks_.exprs, parse_expression());
            height = std::max(height, height_);
        } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "to close call arguments");
    take(stacks_.exprs, base, args);
    height_ = height;
}

ExprPtr Parser::parse_primary() {
    const Token token = peek();
    height_ = 0;
    switch (token.kind) {
        case TokenKind::IntLiteral: {
            advance();
            auto node = arena_->make<IntLitExpr>();
            node->span = token.span;
            node->value = token.int_value;
            return node;
        }
        case TokenKind::KwTrue:
        case TokenKind::KwFalse: {
            advance();
            auto node = arena_->make<BoolLitExpr>();
            node->span = token.span;
            node->value = token.kind == TokenKind::KwTrue;
            return node;
        }
        case TokenKind::Identifier: {
            advance();
            if (check(TokenKind::LParen)) {
                advance();
                auto node = arena_->make<CallExpr>();
                node->span = token.span;
                node->callee = arena_->name(token.text);
                parse_call_args(node->args);
                ++height_;
                return node;
            }
            auto node = arena_->make<VarRefExpr>();
            node->span = token.span;
            node->name = arena_->name(token.text);
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
                error("empty array literals are not supported", token.span);
                auto node = arena_->make<ArrayLitExpr>();
                node->span = token.span;
                return node;
            }
            ExprPtr first = parse_expression();
            std::size_t height = height_;
            if (match(TokenKind::Semicolon)) {
                const std::uint64_t count = peek().int_value;
                expect(TokenKind::IntLiteral, "array repeat count");
                expect(TokenKind::RBracket, "to close array repeat");
                auto node = arena_->make<ArrayRepeatExpr>();
                node->span = token.span;
                node->element = std::move(first);
                node->count = count;
                height_ = height + 1;
                return node;
            }
            const std::size_t base = stacks_.exprs.size();
            push(stacks_.exprs, std::move(first));
            while (match(TokenKind::Comma)) {
                if (check(TokenKind::RBracket)) break;  // trailing comma
                push(stacks_.exprs, parse_expression());
                height = std::max(height, height_);
            }
            expect(TokenKind::RBracket, "to close array literal");
            auto node = arena_->make<ArrayLitExpr>();
            node->span = token.span;
            take(stacks_.exprs, base, node->elements);
            height_ = height + 1;
            return node;
        }
        default: {
            error(std::string("expected expression, found ") +
                      token_kind_name(token.kind),
                  token.span);
            advance();
            auto node = arena_->make<IntLitExpr>();
            node->span = token.span;
            return node;
        }
    }
}

Program parse_source(std::string_view source, support::DiagnosticEngine& diagnostics) {
    Program program = Parser(source, diagnostics).parse_program();
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
