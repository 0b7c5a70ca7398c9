#include "lang/ast.hpp"

namespace rustbrain::lang {

namespace {

/// A new node of `node`'s type in `arena` with its id and span, and its
/// type for an expression.
template <typename T>
NodePtr<T> clone_base(const T& node, AstArena& arena) {
    auto out = arena.make<T>();
    out->id = node.id;
    out->span = node.span;
    if constexpr (std::is_base_of_v<Expr, T>) out->type = node.type;
    return out;
}

ExprPtr clone_expr(const ExprPtr& expr, AstArena& arena) {
    return expr ? clone(*expr, arena) : nullptr;
}

void clone_exprs(const ExprList& exprs, ExprList& out, AstArena& arena) {
    out.reserve(exprs.size());
    for (const auto& expr : exprs) {
        out.push_back(clone(*expr, arena));
    }
}

}  // namespace

// --------------------------------------------------------------------------
// clone()
// --------------------------------------------------------------------------

ExprPtr clone(const Expr& expr, AstArena& arena) {
    switch (expr.kind) {
        case ExprKind::IntLit: {
            const auto& node = static_cast<const IntLitExpr&>(expr);
            auto out = clone_base(node, arena);
            out->value = node.value;
            return out;
        }
        case ExprKind::BoolLit: {
            const auto& node = static_cast<const BoolLitExpr&>(expr);
            auto out = clone_base(node, arena);
            out->value = node.value;
            return out;
        }
        case ExprKind::VarRef: {
            const auto& node = static_cast<const VarRefExpr&>(expr);
            auto out = clone_base(node, arena);
            out->name = arena.name(node.name);
            out->binding = node.binding;
            return out;
        }
        case ExprKind::Unary: {
            const auto& node = static_cast<const UnaryExpr&>(expr);
            auto out = clone_base(node, arena);
            out->op = node.op;
            out->operand = clone_expr(node.operand, arena);
            return out;
        }
        case ExprKind::Binary: {
            const auto& node = static_cast<const BinaryExpr&>(expr);
            auto out = clone_base(node, arena);
            out->op = node.op;
            out->lhs = clone_expr(node.lhs, arena);
            out->rhs = clone_expr(node.rhs, arena);
            return out;
        }
        case ExprKind::Cast: {
            const auto& node = static_cast<const CastExpr&>(expr);
            auto out = clone_base(node, arena);
            out->operand = clone_expr(node.operand, arena);
            out->target = node.target;
            return out;
        }
        case ExprKind::Index: {
            const auto& node = static_cast<const IndexExpr&>(expr);
            auto out = clone_base(node, arena);
            out->base = clone_expr(node.base, arena);
            out->index = clone_expr(node.index, arena);
            return out;
        }
        case ExprKind::Call: {
            const auto& node = static_cast<const CallExpr&>(expr);
            auto out = clone_base(node, arena);
            out->callee = arena.name(node.callee);
            clone_exprs(node.args, out->args, arena);
            out->binding = node.binding;
            return out;
        }
        case ExprKind::CallPtr: {
            const auto& node = static_cast<const CallPtrExpr&>(expr);
            auto out = clone_base(node, arena);
            out->callee = clone_expr(node.callee, arena);
            clone_exprs(node.args, out->args, arena);
            return out;
        }
        case ExprKind::ArrayLit: {
            const auto& node = static_cast<const ArrayLitExpr&>(expr);
            auto out = clone_base(node, arena);
            clone_exprs(node.elements, out->elements, arena);
            return out;
        }
        case ExprKind::ArrayRepeat: {
            const auto& node = static_cast<const ArrayRepeatExpr&>(expr);
            auto out = clone_base(node, arena);
            out->element = clone_expr(node.element, arena);
            out->count = node.count;
            return out;
        }
    }
    return nullptr;
}

Block Block::clone(AstArena& arena) const {
    Block out(arena);
    out.statements.reserve(statements.size());
    for (const auto& stmt : statements) {
        out.statements.push_back(lang::clone(*stmt, arena));
    }
    return out;
}

StmtPtr clone(const Stmt& stmt, AstArena& arena) {
    switch (stmt.kind) {
        case StmtKind::Let: {
            const auto& node = static_cast<const LetStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->name = arena.name(node.name);
            out->is_mut = node.is_mut;
            out->declared_type = node.declared_type;
            out->init = clone_expr(node.init, arena);
            out->slot = node.slot;
            return out;
        }
        case StmtKind::Assign: {
            const auto& node = static_cast<const AssignStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->place = clone_expr(node.place, arena);
            out->value = clone_expr(node.value, arena);
            return out;
        }
        case StmtKind::Expr: {
            const auto& node = static_cast<const ExprStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->expr = clone_expr(node.expr, arena);
            return out;
        }
        case StmtKind::If: {
            const auto& node = static_cast<const IfStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->condition = clone_expr(node.condition, arena);
            out->then_block = node.then_block.clone(arena);
            if (node.else_block) {
                out->else_block = node.else_block->clone(arena);
            }
            return out;
        }
        case StmtKind::While: {
            const auto& node = static_cast<const WhileStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->condition = clone_expr(node.condition, arena);
            out->body = node.body.clone(arena);
            return out;
        }
        case StmtKind::Return: {
            const auto& node = static_cast<const ReturnStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->value = clone_expr(node.value, arena);
            return out;
        }
        case StmtKind::Block: {
            const auto& node = static_cast<const BlockStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->block = node.block.clone(arena);
            return out;
        }
        case StmtKind::Unsafe: {
            const auto& node = static_cast<const UnsafeStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->block = node.block.clone(arena);
            return out;
        }
        case StmtKind::Become: {
            const auto& node = static_cast<const BecomeStmt&>(stmt);
            auto out = clone_base(node, arena);
            out->callee = clone_expr(node.callee, arena);
            clone_exprs(node.args, out->args, arena);
            return out;
        }
    }
    return nullptr;
}

FnItem FnItem::clone(AstArena& arena) const {
    FnItem out(arena);
    out.name = arena.name(name);
    out.is_unsafe = is_unsafe;
    out.params.reserve(params.size());
    for (const Param& param : params) {
        out.params.push_back(Param{arena.name(param.name), param.type});
    }
    out.return_type = return_type;
    out.body = body.clone(arena);
    out.id = id;
    out.span = span;
    out.slot_count = slot_count;
    return out;
}

namespace {

std::vector<Type> param_types(const FnItem& fn) {
    std::vector<Type> out;
    out.reserve(fn.params.size());
    for (const auto& param : fn.params) {
        out.push_back(param.type);
    }
    return out;
}

}  // namespace

Type FnItem::fn_type(TypePool& types) const {
    return types.fn_ptr(param_types(*this), return_type);
}

bool FnItem::has_fn_type(const Type& type) const {
    if (!type.is_fn_ptr() || !(type.fn_return() == return_type)) return false;
    const std::vector<Type>& want = type.fn_params();
    if (want.size() != params.size()) return false;
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (!(want[i] == params[i].type)) return false;
    }
    return true;
}

std::string FnItem::fn_type_spelling() const {
    return fn_ptr_spelling(param_types(*this), return_type);
}

StaticItem StaticItem::clone(AstArena& arena) const {
    StaticItem out;
    out.name = arena.name(name);
    out.is_mut = is_mut;
    out.type = type;
    out.init = clone_expr(init, arena);
    out.id = id;
    out.span = span;
    return out;
}

TypePool& Program::types() {
    if (!type_pool) type_pool = std::make_shared<TypePool>();
    return *type_pool;
}

namespace {

/// The first block of an arena made for no source in particular.
constexpr std::size_t kDefaultArenaBytes = 512;

}  // namespace

Program::Program() : Program(kDefaultArenaBytes) {}

Program::Program(std::size_t arena_bytes)
    : arena_(AstArena::create(arena_bytes)),
      functions(*arena_),
      statics(*arena_) {}

Program Program::clone() const {
    // The copy needs what the original used, less the growth of lists.
    Program out(arena_->bytes_used());
    AstArena& arena = out.arena();
    out.type_pool = type_pool;
    out.functions.reserve(functions.size());
    for (const auto& fn : functions) {
        out.functions.push_back(fn.clone(arena));
    }
    out.statics.reserve(statics.size());
    for (const auto& item : statics) {
        out.statics.push_back(item.clone(arena));
    }
    return out;
}

const FnItem* Program::find_function(std::string_view name) const {
    for (const auto& fn : functions) {
        if (fn.name == name) return &fn;
    }
    return nullptr;
}

FnItem* Program::find_function(std::string_view name) {
    for (auto& fn : functions) {
        if (fn.name == name) return &fn;
    }
    return nullptr;
}

const StaticItem* Program::find_static(std::string_view name) const {
    for (const auto& item : statics) {
        if (item.name == name) return &item;
    }
    return nullptr;
}

// --------------------------------------------------------------------------
// Renumbering / node counting
// --------------------------------------------------------------------------

namespace {

/// Gives each node under the visited one the next id, in pre-order.
struct Renumber {
    NodeId next;

    void operator()(Expr& expr) {
        expr.id = next++;
        for_each_child(expr, *this);
    }
    void operator()(ExprPtr& slot) { (*this)(*slot); }
    void operator()(Stmt& stmt) {
        stmt.id = next++;
        for_each_child(stmt, *this);
    }
    void operator()(Block& block) {
        for (auto& stmt : block.statements) (*this)(*stmt);
    }
};

/// Counts the nodes under the visited one, the visited one included.
struct Count {
    std::uint32_t nodes = 0;

    void operator()(const Expr& expr) {
        ++nodes;
        for_each_child(expr, *this);
    }
    void operator()(const Stmt& stmt) {
        ++nodes;
        for_each_child(stmt, *this);
    }
    void operator()(const Block& block) {
        for (const auto& stmt : block.statements) (*this)(*stmt);
    }
};

}  // namespace

std::uint32_t Program::renumber() {
    Renumber number{1};
    for (auto& item : statics) {
        item.id = number.next++;
        if (item.init) number(*item.init);
    }
    for (auto& fn : functions) {
        fn.id = number.next++;
        number(fn.body);
    }
    return number.next - 1;
}

std::uint32_t Program::node_count() const {
    Count count;
    count.nodes = static_cast<std::uint32_t>(statics.size() + functions.size());
    for (const auto& item : statics) {
        if (item.init) count(*item.init);
    }
    for (const auto& fn : functions) count(fn.body);
    return count.nodes;
}

// --------------------------------------------------------------------------
// Structural equality
// --------------------------------------------------------------------------

bool equals(const Block& a, const Block& b) {
    if (a.statements.size() != b.statements.size()) return false;
    for (std::size_t i = 0; i < a.statements.size(); ++i) {
        if (!equals(*a.statements[i], *b.statements[i])) return false;
    }
    return true;
}

bool equals(const Expr& a, const Expr& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
        case ExprKind::IntLit: {
            const auto& x = static_cast<const IntLitExpr&>(a);
            const auto& y = static_cast<const IntLitExpr&>(b);
            return x.value == y.value;
        }
        case ExprKind::BoolLit:
            return static_cast<const BoolLitExpr&>(a).value ==
                   static_cast<const BoolLitExpr&>(b).value;
        case ExprKind::VarRef:
            return static_cast<const VarRefExpr&>(a).name ==
                   static_cast<const VarRefExpr&>(b).name;
        case ExprKind::Unary: {
            const auto& x = static_cast<const UnaryExpr&>(a);
            const auto& y = static_cast<const UnaryExpr&>(b);
            return x.op == y.op && equals(*x.operand, *y.operand);
        }
        case ExprKind::Binary: {
            const auto& x = static_cast<const BinaryExpr&>(a);
            const auto& y = static_cast<const BinaryExpr&>(b);
            return x.op == y.op && equals(*x.lhs, *y.lhs) && equals(*x.rhs, *y.rhs);
        }
        case ExprKind::Cast: {
            const auto& x = static_cast<const CastExpr&>(a);
            const auto& y = static_cast<const CastExpr&>(b);
            return x.target == y.target && equals(*x.operand, *y.operand);
        }
        case ExprKind::Index: {
            const auto& x = static_cast<const IndexExpr&>(a);
            const auto& y = static_cast<const IndexExpr&>(b);
            return equals(*x.base, *y.base) && equals(*x.index, *y.index);
        }
        case ExprKind::Call: {
            const auto& x = static_cast<const CallExpr&>(a);
            const auto& y = static_cast<const CallExpr&>(b);
            if (x.callee != y.callee || x.args.size() != y.args.size()) return false;
            for (std::size_t i = 0; i < x.args.size(); ++i) {
                if (!equals(*x.args[i], *y.args[i])) return false;
            }
            return true;
        }
        case ExprKind::CallPtr: {
            const auto& x = static_cast<const CallPtrExpr&>(a);
            const auto& y = static_cast<const CallPtrExpr&>(b);
            if (!equals(*x.callee, *y.callee) || x.args.size() != y.args.size()) {
                return false;
            }
            for (std::size_t i = 0; i < x.args.size(); ++i) {
                if (!equals(*x.args[i], *y.args[i])) return false;
            }
            return true;
        }
        case ExprKind::ArrayLit: {
            const auto& x = static_cast<const ArrayLitExpr&>(a);
            const auto& y = static_cast<const ArrayLitExpr&>(b);
            if (x.elements.size() != y.elements.size()) return false;
            for (std::size_t i = 0; i < x.elements.size(); ++i) {
                if (!equals(*x.elements[i], *y.elements[i])) return false;
            }
            return true;
        }
        case ExprKind::ArrayRepeat: {
            const auto& x = static_cast<const ArrayRepeatExpr&>(a);
            const auto& y = static_cast<const ArrayRepeatExpr&>(b);
            return x.count == y.count && equals(*x.element, *y.element);
        }
    }
    return false;
}

bool equals(const Stmt& a, const Stmt& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
        case StmtKind::Let: {
            const auto& x = static_cast<const LetStmt&>(a);
            const auto& y = static_cast<const LetStmt&>(b);
            return x.name == y.name && x.is_mut == y.is_mut &&
                   x.declared_type == y.declared_type && equals(*x.init, *y.init);
        }
        case StmtKind::Assign: {
            const auto& x = static_cast<const AssignStmt&>(a);
            const auto& y = static_cast<const AssignStmt&>(b);
            return equals(*x.place, *y.place) && equals(*x.value, *y.value);
        }
        case StmtKind::Expr:
            return equals(*static_cast<const ExprStmt&>(a).expr,
                          *static_cast<const ExprStmt&>(b).expr);
        case StmtKind::If: {
            const auto& x = static_cast<const IfStmt&>(a);
            const auto& y = static_cast<const IfStmt&>(b);
            if (!equals(*x.condition, *y.condition)) return false;
            if (!equals(x.then_block, y.then_block)) return false;
            if (x.else_block.has_value() != y.else_block.has_value()) return false;
            return !x.else_block || equals(*x.else_block, *y.else_block);
        }
        case StmtKind::While: {
            const auto& x = static_cast<const WhileStmt&>(a);
            const auto& y = static_cast<const WhileStmt&>(b);
            return equals(*x.condition, *y.condition) && equals(x.body, y.body);
        }
        case StmtKind::Return: {
            const auto& x = static_cast<const ReturnStmt&>(a);
            const auto& y = static_cast<const ReturnStmt&>(b);
            if ((x.value == nullptr) != (y.value == nullptr)) return false;
            return !x.value || equals(*x.value, *y.value);
        }
        case StmtKind::Block:
            return equals(static_cast<const BlockStmt&>(a).block,
                          static_cast<const BlockStmt&>(b).block);
        case StmtKind::Unsafe:
            return equals(static_cast<const UnsafeStmt&>(a).block,
                          static_cast<const UnsafeStmt&>(b).block);
        case StmtKind::Become: {
            const auto& x = static_cast<const BecomeStmt&>(a);
            const auto& y = static_cast<const BecomeStmt&>(b);
            if (!equals(*x.callee, *y.callee) || x.args.size() != y.args.size()) {
                return false;
            }
            for (std::size_t i = 0; i < x.args.size(); ++i) {
                if (!equals(*x.args[i], *y.args[i])) return false;
            }
            return true;
        }
    }
    return false;
}

bool equals(const Program& a, const Program& b) {
    if (a.functions.size() != b.functions.size()) return false;
    if (a.statics.size() != b.statics.size()) return false;
    for (std::size_t i = 0; i < a.statics.size(); ++i) {
        const auto& x = a.statics[i];
        const auto& y = b.statics[i];
        if (x.name != y.name || x.is_mut != y.is_mut || !(x.type == y.type)) {
            return false;
        }
        if ((x.init == nullptr) != (y.init == nullptr)) return false;
        if (x.init && !equals(*x.init, *y.init)) return false;
    }
    for (std::size_t i = 0; i < a.functions.size(); ++i) {
        const auto& x = a.functions[i];
        const auto& y = b.functions[i];
        if (x.name != y.name || x.is_unsafe != y.is_unsafe) return false;
        if (x.params.size() != y.params.size()) return false;
        for (std::size_t j = 0; j < x.params.size(); ++j) {
            if (x.params[j].name != y.params[j].name ||
                !(x.params[j].type == y.params[j].type)) {
                return false;
            }
        }
        if (!(x.return_type == y.return_type)) return false;
        if (!equals(x.body, y.body)) return false;
    }
    return true;
}

// --------------------------------------------------------------------------
// Names
// --------------------------------------------------------------------------

const char* expr_kind_name(ExprKind kind) {
    switch (kind) {
        case ExprKind::IntLit: return "IntLit";
        case ExprKind::BoolLit: return "BoolLit";
        case ExprKind::VarRef: return "VarRef";
        case ExprKind::Unary: return "Unary";
        case ExprKind::Binary: return "Binary";
        case ExprKind::Cast: return "Cast";
        case ExprKind::Index: return "Index";
        case ExprKind::Call: return "Call";
        case ExprKind::CallPtr: return "CallPtr";
        case ExprKind::ArrayLit: return "ArrayLit";
        case ExprKind::ArrayRepeat: return "ArrayRepeat";
    }
    return "?";
}

const char* stmt_kind_name(StmtKind kind) {
    switch (kind) {
        case StmtKind::Let: return "Let";
        case StmtKind::Assign: return "Assign";
        case StmtKind::Expr: return "Expr";
        case StmtKind::If: return "If";
        case StmtKind::While: return "While";
        case StmtKind::Return: return "Return";
        case StmtKind::Block: return "Block";
        case StmtKind::Unsafe: return "Unsafe";
        case StmtKind::Become: return "Become";
    }
    return "?";
}

const char* unary_op_name(UnaryOp op) {
    switch (op) {
        case UnaryOp::Neg: return "-";
        case UnaryOp::Not: return "!";
        case UnaryOp::Deref: return "*";
        case UnaryOp::AddrOf: return "&";
        case UnaryOp::AddrOfMut: return "&mut ";
    }
    return "?";
}

const char* binary_op_name(BinaryOp op) {
    switch (op) {
        case BinaryOp::Add: return "+";
        case BinaryOp::Sub: return "-";
        case BinaryOp::Mul: return "*";
        case BinaryOp::Div: return "/";
        case BinaryOp::Rem: return "%";
        case BinaryOp::Eq: return "==";
        case BinaryOp::Ne: return "!=";
        case BinaryOp::Lt: return "<";
        case BinaryOp::Le: return "<=";
        case BinaryOp::Gt: return ">";
        case BinaryOp::Ge: return ">=";
        case BinaryOp::And: return "&&";
        case BinaryOp::Or: return "||";
        case BinaryOp::BitAnd: return "&";
        case BinaryOp::BitOr: return "|";
        case BinaryOp::BitXor: return "^";
        case BinaryOp::Shl: return "<<";
        case BinaryOp::Shr: return ">>";
    }
    return "?";
}

}  // namespace rustbrain::lang
