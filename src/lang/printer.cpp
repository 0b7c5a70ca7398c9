#include "lang/printer.hpp"

#include <charconv>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace rustbrain::lang {

namespace {

using detail::like_t;

/// Whether an emitter of nodes of type `Node` respans them: only a mutable
/// tree's spans are rewritten.
template <typename Node>
constexpr bool kRespan = !std::is_const_v<Node>;

/// The text being printed, and the span try_parse gives a token printed
/// next. Lines are counted from the last position asked for, so printing
/// a const tree, which asks for none, pays nothing for them.
class Out {
  public:
    explicit Out(std::string& text) : text_(text) {}

    Out& operator+=(std::string_view text) {
        text_ += text;
        return *this;
    }
    Out& operator+=(char c) {
        text_ += c;
        return *this;
    }
    void pad(int level) { text_.append(static_cast<std::size_t>(level) * 4, ' '); }

    /// The span of a `length`-byte token that starts at the next byte.
    support::SourceSpan token(std::size_t length) {
        const std::size_t at = text_.size();
        for (; scanned_ < at; ++scanned_) {
            if (text_[scanned_] == '\n') {
                ++line_;
                line_start_ = scanned_ + 1;
            }
        }
        support::SourceSpan span;
        span.begin = static_cast<std::uint32_t>(at);
        span.end = static_cast<std::uint32_t>(at + length);
        span.line = line_;
        span.column = static_cast<std::uint32_t>(at - line_start_ + 1);
        return span;
    }

  private:
    std::string& text_;
    std::size_t scanned_ = 0;
    std::size_t line_start_ = 0;
    std::uint32_t line_ = 1;
};

/// Gives a mutable node the span of the `length`-byte token printed next.
template <typename Node>
void mark(Out& out, Node& node, std::size_t length) {
    if constexpr (kRespan<Node>) node.span = out.token(length);
}

/// The node `slot` owns, const when `Owner` is.
template <typename Owner, typename T>
like_t<T, Owner>& deref(const NodePtr<T>& slot) {
    return *slot;
}

/// An unsigned value in decimal, as the lexer reads it back.
class Digits {
  public:
    explicit Digits(std::uint64_t value)
        : end_(std::to_chars(text_, text_ + sizeof(text_), value).ptr) {}
    [[nodiscard]] std::string_view view() const {
        return {text_, static_cast<std::size_t>(end_ - text_)};
    }

  private:
    char text_[20];
    const char* end_;
};

template <typename E>
void emit_expression(Out& out, E& expr);

/// Parenthesize children conservatively: we print parentheses around any
/// binary/cast child of a binary/unary/cast/index node, around a unary base
/// of an index (`(*p)[0]`, which `*p[0]` would re-parse as `*(p[0])`), and
/// around a reference taken of a reference (`&(&a)`, since `&&` lexes as
/// one token). The printed form is therefore not minimal but always
/// re-parses with identical structure.
bool needs_parens(const Expr& parent, const Expr& child) {
    if (child.kind == ExprKind::Binary || child.kind == ExprKind::Cast) return true;
    if (child.kind != ExprKind::Unary) return false;
    if (parent.kind == ExprKind::Index) return true;
    const UnaryOp op = static_cast<const UnaryExpr&>(child).op;
    return parent.kind == ExprKind::Unary &&
           static_cast<const UnaryExpr&>(parent).op == UnaryOp::AddrOf &&
           (op == UnaryOp::AddrOf || op == UnaryOp::AddrOfMut);
}

template <typename E>
void emit_child(Out& out, const Expr& parent, E& child) {
    if (needs_parens(parent, child)) {
        out += '(';
        emit_expression(out, child);
        out += ')';
        return;
    }
    emit_expression(out, child);
}

/// `a, b, c`, the items of a node of type `Owner`.
template <typename Owner>
void emit_list(Out& out, like_t<ExprList, Owner>& items) {
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += ", ";
        emit_expression(out, deref<Owner>(items[i]));
    }
}

// Each emitter prints one node, const or mutable, and respans a mutable
// one the way parser.cpp spans what it reads back (DESIGN.md §22): a
// literal, a variable, a direct call's callee and a unary operator take
// their token (`&` alone for `&mut`), an array its `[`; a binary node
// merges its operands' spans, and a cast, an index and an indirect call
// take the span of their operand, base or callee.
template <typename E>
void emit_expression(Out& out, E& expr) {
    switch (expr.kind) {
        case ExprKind::IntLit: {
            auto& node = static_cast<like_t<IntLitExpr, E>&>(expr);
            const Digits digits(node.value);
            mark(out, node, digits.view().size());
            out += digits.view();
            return;
        }
        case ExprKind::BoolLit: {
            auto& node = static_cast<like_t<BoolLitExpr, E>&>(expr);
            const std::string_view text = node.value ? "true" : "false";
            mark(out, node, text.size());
            out += text;
            return;
        }
        case ExprKind::VarRef: {
            auto& node = static_cast<like_t<VarRefExpr, E>&>(expr);
            mark(out, node, node.name.size());
            out += node.name;
            return;
        }
        case ExprKind::Unary: {
            auto& node = static_cast<like_t<UnaryExpr, E>&>(expr);
            mark(out, node, 1);
            out += unary_op_name(node.op);
            emit_child(out, node, deref<E>(node.operand));
            return;
        }
        case ExprKind::Binary: {
            auto& node = static_cast<like_t<BinaryExpr, E>&>(expr);
            emit_child(out, node, deref<E>(node.lhs));
            out += ' ';
            out += binary_op_name(node.op);
            out += ' ';
            emit_child(out, node, deref<E>(node.rhs));
            if constexpr (kRespan<E>) node.span = node.lhs->span.merge(node.rhs->span);
            return;
        }
        case ExprKind::Cast: {
            auto& node = static_cast<like_t<CastExpr, E>&>(expr);
            emit_child(out, node, deref<E>(node.operand));
            out += " as ";
            out += node.target.to_string();
            if constexpr (kRespan<E>) node.span = node.operand->span;
            return;
        }
        case ExprKind::Index: {
            auto& node = static_cast<like_t<IndexExpr, E>&>(expr);
            emit_child(out, node, deref<E>(node.base));
            out += '[';
            emit_expression(out, deref<E>(node.index));
            out += ']';
            if constexpr (kRespan<E>) node.span = node.base->span;
            return;
        }
        case ExprKind::Call: {
            auto& node = static_cast<like_t<CallExpr, E>&>(expr);
            mark(out, node, node.callee.size());
            out += node.callee;
            out += '(';
            emit_list<E>(out, node.args);
            out += ')';
            return;
        }
        case ExprKind::CallPtr: {
            auto& node = static_cast<like_t<CallPtrExpr, E>&>(expr);
            out += '(';
            emit_expression(out, deref<E>(node.callee));
            out += ")(";
            emit_list<E>(out, node.args);
            out += ')';
            if constexpr (kRespan<E>) node.span = node.callee->span;
            return;
        }
        case ExprKind::ArrayLit: {
            auto& node = static_cast<like_t<ArrayLitExpr, E>&>(expr);
            mark(out, node, 1);
            out += '[';
            emit_list<E>(out, node.elements);
            out += ']';
            return;
        }
        case ExprKind::ArrayRepeat: {
            auto& node = static_cast<like_t<ArrayRepeatExpr, E>&>(expr);
            mark(out, node, 1);
            out += '[';
            emit_expression(out, deref<E>(node.element));
            out += "; ";
            out += Digits(node.count).view();
            out += ']';
            return;
        }
    }
    out += "<?>";
}

template <typename B>
void emit_block(Out& out, B& block, int indent_level);

/// `{\n` body `}` around a block one level deeper.
template <typename B>
void emit_braced(Out& out, B& block, int indent_level) {
    out += "{\n";
    emit_block(out, block, indent_level + 1);
    out.pad(indent_level);
    out += '}';
}

// A statement opening with a keyword or `{` takes that token's span; an
// assignment or expression statement takes its first expression's.
template <typename S>
void emit_statement(Out& out, S& stmt, int indent_level) {
    out.pad(indent_level);
    switch (stmt.kind) {
        case StmtKind::Let: {
            auto& node = static_cast<like_t<LetStmt, S>&>(stmt);
            mark(out, node, 3);
            out += "let ";
            if (node.is_mut) out += "mut ";
            out += node.name;
            if (node.declared_type) {
                out += ": ";
                out += node.declared_type->to_string();
            }
            out += " = ";
            emit_expression(out, deref<S>(node.init));
            out += ";\n";
            return;
        }
        case StmtKind::Assign: {
            auto& node = static_cast<like_t<AssignStmt, S>&>(stmt);
            emit_expression(out, deref<S>(node.place));
            out += " = ";
            emit_expression(out, deref<S>(node.value));
            out += ";\n";
            if constexpr (kRespan<S>) node.span = node.place->span;
            return;
        }
        case StmtKind::Expr: {
            auto& node = static_cast<like_t<ExprStmt, S>&>(stmt);
            emit_expression(out, deref<S>(node.expr));
            out += ";\n";
            if constexpr (kRespan<S>) node.span = node.expr->span;
            return;
        }
        case StmtKind::If: {
            auto& node = static_cast<like_t<IfStmt, S>&>(stmt);
            mark(out, node, 2);
            out += "if ";
            emit_expression(out, deref<S>(node.condition));
            out += ' ';
            emit_braced(out, node.then_block, indent_level);
            if (node.else_block) {
                out += " else ";
                emit_braced(out, *node.else_block, indent_level);
            }
            out += '\n';
            return;
        }
        case StmtKind::While: {
            auto& node = static_cast<like_t<WhileStmt, S>&>(stmt);
            mark(out, node, 5);
            out += "while ";
            emit_expression(out, deref<S>(node.condition));
            out += ' ';
            emit_braced(out, node.body, indent_level);
            out += '\n';
            return;
        }
        case StmtKind::Return: {
            auto& node = static_cast<like_t<ReturnStmt, S>&>(stmt);
            mark(out, node, 6);
            if (node.value) {
                out += "return ";
                emit_expression(out, deref<S>(node.value));
                out += ";\n";
            } else {
                out += "return;\n";
            }
            return;
        }
        case StmtKind::Block: {
            auto& node = static_cast<like_t<BlockStmt, S>&>(stmt);
            mark(out, node, 1);
            emit_braced(out, node.block, indent_level);
            out += '\n';
            return;
        }
        case StmtKind::Unsafe: {
            auto& node = static_cast<like_t<UnsafeStmt, S>&>(stmt);
            mark(out, node, 6);
            out += "unsafe ";
            emit_braced(out, node.block, indent_level);
            out += '\n';
            return;
        }
        case StmtKind::Become: {
            auto& node = static_cast<like_t<BecomeStmt, S>&>(stmt);
            mark(out, node, 6);
            out += "become ";
            emit_expression(out, deref<S>(node.callee));
            out += '(';
            emit_list<S>(out, node.args);
            out += ");\n";
            return;
        }
    }
    out += "<?>;\n";
}

template <typename B>
void emit_block(Out& out, B& block, int indent_level) {
    for (auto& stmt : block.statements) {
        emit_statement(out, deref<B>(stmt), indent_level);
    }
}

/// A function takes the span of its name.
template <typename F>
void emit_function(Out& out, F& fn) {
    if (fn.is_unsafe) out += "unsafe ";
    out += "fn ";
    mark(out, fn, fn.name.size());
    out += fn.name;
    out += '(';
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (i != 0) out += ", ";
        out += fn.params[i].name;
        out += ": ";
        out += fn.params[i].type.to_string();
    }
    out += ')';
    if (!fn.return_type.is_unit()) {
        out += " -> ";
        out += fn.return_type.to_string();
    }
    out += ' ';
    emit_braced(out, fn.body, 0);
    out += '\n';
}

/// A static takes the span of its `static` keyword.
template <typename P>
void emit_program(Out& out, P& program) {
    for (auto& item : program.statics) {
        mark(out, item, 6);
        out += "static ";
        if (item.is_mut) out += "mut ";
        out += item.name;
        out += ": ";
        out += item.type.to_string();
        out += " = ";
        emit_expression(out, deref<P>(item.init));
        out += ";\n";
    }
    if (!program.statics.empty()) out += '\n';
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
        if (i != 0) out += '\n';
        emit_function(out, program.functions[i]);
    }
}

/// Emits into this thread's scratch buffer and returns an exact-size copy.
/// The buffer keeps its capacity from call to call, and text that callers
/// keep (forged corpus sources, cached model responses) carries no growth
/// slack.
template <typename Emit>
std::string print_with(const Emit& emit) {
    thread_local std::string scratch;
    scratch.clear();
    Out out(scratch);
    emit(out);
    return std::string(scratch);
}

}  // namespace

std::string print_program(const Program& program) {
    return print_with([&](Out& out) { emit_program(out, program); });
}

std::string print_respanned(Program& program) {
    return print_with([&](Out& out) { emit_program(out, program); });
}

}  // namespace rustbrain::lang
