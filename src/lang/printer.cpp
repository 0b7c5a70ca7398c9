#include "lang/printer.hpp"

#include <charconv>

namespace rustbrain::lang {

namespace {

// Every emit_* appends to `out`, so a whole program prints into one buffer.

void emit_pad(std::string& out, int level) {
    out.append(static_cast<std::size_t>(level) * 4, ' ');
}

void emit_uint(std::string& out, std::uint64_t value) {
    char digits[20];
    const auto result = std::to_chars(digits, digits + sizeof(digits), value);
    out.append(digits, result.ptr);
}

void emit_expression(std::string& out, const Expr& expr);

/// Parenthesize children conservatively: we print parentheses around any
/// binary/cast child of a binary/unary/cast/index node. The printed form is
/// therefore not minimal but always re-parses with identical structure.
bool needs_parens(const Expr& child) {
    return child.kind == ExprKind::Binary || child.kind == ExprKind::Cast;
}

void emit_child(std::string& out, const Expr& child) {
    if (needs_parens(child)) {
        out += '(';
        emit_expression(out, child);
        out += ')';
        return;
    }
    emit_expression(out, child);
}

/// `a, b, c`
void emit_list(std::string& out, const ExprList& items) {
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += ", ";
        emit_expression(out, *items[i]);
    }
}

void emit_expression(std::string& out, const Expr& expr) {
    switch (expr.kind) {
        case ExprKind::IntLit:
            emit_uint(out, static_cast<const IntLitExpr&>(expr).value);
            return;
        case ExprKind::BoolLit:
            out += static_cast<const BoolLitExpr&>(expr).value ? "true" : "false";
            return;
        case ExprKind::VarRef:
            out += static_cast<const VarRefExpr&>(expr).name;
            return;
        case ExprKind::Unary: {
            const auto& node = static_cast<const UnaryExpr&>(expr);
            out += unary_op_name(node.op);
            emit_child(out, *node.operand);
            return;
        }
        case ExprKind::Binary: {
            const auto& node = static_cast<const BinaryExpr&>(expr);
            emit_child(out, *node.lhs);
            out += ' ';
            out += binary_op_name(node.op);
            out += ' ';
            emit_child(out, *node.rhs);
            return;
        }
        case ExprKind::Cast: {
            const auto& node = static_cast<const CastExpr&>(expr);
            emit_child(out, *node.operand);
            out += " as ";
            out += node.target.to_string();
            return;
        }
        case ExprKind::Index: {
            const auto& node = static_cast<const IndexExpr&>(expr);
            emit_child(out, *node.base);
            out += '[';
            emit_expression(out, *node.index);
            out += ']';
            return;
        }
        case ExprKind::Call: {
            const auto& node = static_cast<const CallExpr&>(expr);
            out += node.callee;
            out += '(';
            emit_list(out, node.args);
            out += ')';
            return;
        }
        case ExprKind::CallPtr: {
            const auto& node = static_cast<const CallPtrExpr&>(expr);
            out += '(';
            emit_expression(out, *node.callee);
            out += ")(";
            emit_list(out, node.args);
            out += ')';
            return;
        }
        case ExprKind::ArrayLit:
            out += '[';
            emit_list(out, static_cast<const ArrayLitExpr&>(expr).elements);
            out += ']';
            return;
        case ExprKind::ArrayRepeat: {
            const auto& node = static_cast<const ArrayRepeatExpr&>(expr);
            out += '[';
            emit_expression(out, *node.element);
            out += "; ";
            emit_uint(out, node.count);
            out += ']';
            return;
        }
    }
    out += "<?>";
}

void emit_block(std::string& out, const Block& block, int indent_level);

/// `{\n` body `}` around a block one level deeper.
void emit_braced(std::string& out, const Block& block, int indent_level) {
    out += "{\n";
    emit_block(out, block, indent_level + 1);
    emit_pad(out, indent_level);
    out += '}';
}

void emit_statement(std::string& out, const Stmt& stmt, int indent_level) {
    emit_pad(out, indent_level);
    switch (stmt.kind) {
        case StmtKind::Let: {
            const auto& node = static_cast<const LetStmt&>(stmt);
            out += "let ";
            if (node.is_mut) out += "mut ";
            out += node.name;
            if (node.declared_type) {
                out += ": ";
                out += node.declared_type->to_string();
            }
            out += " = ";
            emit_expression(out, *node.init);
            out += ";\n";
            return;
        }
        case StmtKind::Assign: {
            const auto& node = static_cast<const AssignStmt&>(stmt);
            emit_expression(out, *node.place);
            out += " = ";
            emit_expression(out, *node.value);
            out += ";\n";
            return;
        }
        case StmtKind::Expr:
            emit_expression(out, *static_cast<const ExprStmt&>(stmt).expr);
            out += ";\n";
            return;
        case StmtKind::If: {
            const auto& node = static_cast<const IfStmt&>(stmt);
            out += "if ";
            emit_expression(out, *node.condition);
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
            const auto& node = static_cast<const WhileStmt&>(stmt);
            out += "while ";
            emit_expression(out, *node.condition);
            out += ' ';
            emit_braced(out, node.body, indent_level);
            out += '\n';
            return;
        }
        case StmtKind::Return: {
            const auto& node = static_cast<const ReturnStmt&>(stmt);
            if (node.value) {
                out += "return ";
                emit_expression(out, *node.value);
                out += ";\n";
            } else {
                out += "return;\n";
            }
            return;
        }
        case StmtKind::Block:
            emit_braced(out, static_cast<const BlockStmt&>(stmt).block, indent_level);
            out += '\n';
            return;
        case StmtKind::Unsafe:
            out += "unsafe ";
            emit_braced(out, static_cast<const UnsafeStmt&>(stmt).block, indent_level);
            out += '\n';
            return;
        case StmtKind::Become: {
            const auto& node = static_cast<const BecomeStmt&>(stmt);
            out += "become ";
            emit_expression(out, *node.callee);
            out += '(';
            emit_list(out, node.args);
            out += ");\n";
            return;
        }
    }
    out += "<?>;\n";
}

void emit_block(std::string& out, const Block& block, int indent_level) {
    for (const auto& stmt : block.statements) {
        emit_statement(out, *stmt, indent_level);
    }
}

void emit_function(std::string& out, const FnItem& fn) {
    if (fn.is_unsafe) out += "unsafe ";
    out += "fn ";
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

void emit_program(std::string& out, const Program& program) {
    for (const auto& item : program.statics) {
        out += "static ";
        if (item.is_mut) out += "mut ";
        out += item.name;
        out += ": ";
        out += item.type.to_string();
        out += " = ";
        emit_expression(out, *item.init);
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
    emit(scratch);
    return std::string(scratch);
}

}  // namespace

std::string print_expression(const Expr& expr) {
    return print_with([&](std::string& out) { emit_expression(out, expr); });
}

std::string print_statement(const Stmt& stmt, int indent_level) {
    return print_with(
        [&](std::string& out) { emit_statement(out, stmt, indent_level); });
}

std::string print_block(const Block& block, int indent_level) {
    return print_with([&](std::string& out) { emit_block(out, block, indent_level); });
}

std::string print_function(const FnItem& fn) {
    return print_with([&](std::string& out) { emit_function(out, fn); });
}

std::string print_program(const Program& program) {
    return print_with([&](std::string& out) { emit_program(out, program); });
}

}  // namespace rustbrain::lang
