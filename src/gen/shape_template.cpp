#include "gen/shape_template.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "lang/lexer.hpp"
#include "lang/parser.hpp"

namespace rustbrain::gen {

namespace {

/// A name hole's stand-in is this prefix and the hole's digit.
constexpr std::string_view kNameHole = "__hole";
/// An integer hole's stand-in is this plus the hole's index: no template
/// writes a literal this large.
constexpr std::uint64_t kIntHole = 0xFFFF'FFFF'FFFF'FF00ULL;

/// The value filled into one hole.
struct Arg {
    std::string_view name;     // a name hole's identifier
    std::uint64_t value = 0;   // an integer hole's value
};

std::string shape_error(const dataset::Shape& shape, const std::string& what) {
    return "shape '" + std::string(shape.name) + "': " + what;
}

/// One walk over a program's holes. Checking (no `args`), it counts them
/// and throws on a stand-in that is not one of the shape's holes or sits
/// inside a longer name; filling, it writes each hole's argument and moves
/// every type into the program's own pool.
class HoleWalk {
  public:
    HoleWalk(lang::Program& program, const dataset::Shape& shape,
             const std::vector<Arg>* args)
        : program_(program), shape_(shape), args_(args) {}

    [[nodiscard]] std::size_t sites() const { return sites_; }

    void item(lang::StaticItem& item) {
        name(item.name);
        item.type = type(item.type);
        if (item.init) (*this)(item.init);
    }
    void item(lang::FnItem& fn) {
        name(fn.name);
        for (lang::Param& param : fn.params) {
            name(param.name);
            param.type = type(param.type);
        }
        fn.return_type = type(fn.return_type);
        (*this)(fn.body);
    }

    void operator()(lang::ExprPtr& slot) { (*this)(*slot); }
    void operator()(lang::Block& block) {
        for (auto& stmt : block.statements) (*this)(*stmt);
    }
    void operator()(lang::Expr& expr) {
        expr.type = type(expr.type);
        switch (expr.kind) {
            case lang::ExprKind::IntLit:
                integer(static_cast<lang::IntLitExpr&>(expr).value);
                break;
            case lang::ExprKind::VarRef:
                name(static_cast<lang::VarRefExpr&>(expr).name);
                break;
            case lang::ExprKind::Call:
                name(static_cast<lang::CallExpr&>(expr).callee);
                break;
            case lang::ExprKind::Cast: {
                auto& cast = static_cast<lang::CastExpr&>(expr);
                cast.target = type(cast.target);
                break;
            }
            case lang::ExprKind::ArrayRepeat:
                integer(static_cast<lang::ArrayRepeatExpr&>(expr).count);
                break;
            default:
                break;
        }
        lang::for_each_child(expr, *this);
    }
    void operator()(lang::Stmt& stmt) {
        if (stmt.kind == lang::StmtKind::Let) {
            auto& let = static_cast<lang::LetStmt&>(stmt);
            name(let.name);
            if (let.declared_type) let.declared_type = type(*let.declared_type);
        }
        lang::for_each_child(stmt, *this);
    }

  private:
    void name(lang::Name& name) {
        const std::string_view text = name;
        if (text.size() == kNameHole.size() + 1 && text.substr(0, kNameHole.size()) == kNameHole) {
            const std::size_t hole = static_cast<std::size_t>(text.back() - '0');
            if (args_ != nullptr) {
                name = program_.arena().name((*args_)[hole].name);
            } else if (hole >= shape_.holes.size() || shape_.holes[hole] != 'n') {
                throw std::logic_error(shape_error(shape_, "a template writes the name " +
                                                               std::string(text)));
            }
            ++sites_;
        } else if (args_ == nullptr && text.find(kNameHole) != std::string_view::npos) {
            throw std::logic_error(
                shape_error(shape_, "a template joins a hole to the name " + std::string(text)));
        }
    }

    void integer(std::uint64_t& value) {
        if (value < kIntHole) return;
        const std::size_t hole = static_cast<std::size_t>(value - kIntHole);
        if (args_ != nullptr) {
            value = (*args_)[hole].value;
        } else if (hole >= shape_.holes.size() || shape_.holes[hole] != 'i') {
            throw std::logic_error(shape_error(shape_, "a template writes the integer " +
                                                           std::to_string(value)));
        }
        ++sites_;
    }

    /// `type` with its array lengths' holes checked or filled; filling, it
    /// is interned in the program's pool, children first, as a parse does.
    lang::Type type(lang::Type type) {
        switch (type.kind()) {
            case lang::Type::Kind::Scalar:
                return type;
            case lang::Type::Kind::RawPtr:
            case lang::Type::Kind::Ref: {
                const lang::Type pointee = this->type(type.element());
                if (args_ == nullptr) return type;
                return type.is_raw_ptr() ? program_.types().raw_ptr(pointee, type.is_mut())
                                         : program_.types().reference(pointee, type.is_mut());
            }
            case lang::Type::Kind::Array: {
                const lang::Type element = this->type(type.element());
                std::uint64_t length = type.array_length();
                integer(length);
                return args_ == nullptr ? type : program_.types().array(element, length);
            }
            case lang::Type::Kind::FnPtr: {
                std::vector<lang::Type> params;
                params.reserve(type.fn_params().size());
                for (const lang::Type& param : type.fn_params()) {
                    params.push_back(this->type(param));
                }
                const lang::Type ret = this->type(type.fn_return());
                if (args_ == nullptr) return type;
                return program_.types().fn_ptr(std::move(params), ret);
            }
        }
        return type;
    }

    lang::Program& program_;
    const dataset::Shape& shape_;
    const std::vector<Arg>* args_;
    std::size_t sites_ = 0;
};

/// The `$i` placeholders of `templ` that name one of `holes` arguments:
/// the holes a template that builds holds, one site each.
std::size_t count_placeholders(std::string_view templ, std::size_t holes) {
    std::size_t count = 0;
    for (std::size_t at = templ.find('$'); at != std::string_view::npos;
         at = templ.find('$', at + 1)) {
        if (at + 1 < templ.size() && templ[at + 1] >= '0' &&
            static_cast<std::size_t>(templ[at + 1] - '0') < holes) {
            ++count;
        }
    }
    return count;
}

struct HoledShape {
    const dataset::Shape* shape;
    lang::Program buggy;
    lang::Program fix;
};

const HoledShape& holed(const dataset::Shape& shape) {
    static const std::vector<HoledShape> all = [] {
        std::vector<HoledShape> out;
        out.reserve(dataset::all_shapes().size());
        for (const dataset::Shape* record : dataset::all_shapes()) {
            out.push_back(
                {record, detail::parse_holed(*record, record->buggy),
                 detail::parse_holed(*record, record->fix)});
        }
        return out;
    }();
    for (const HoledShape& entry : all) {
        if (entry.shape == &shape) return entry;
    }
    throw std::logic_error(shape_error(shape, "not a record of dataset::all_shapes()"));
}

/// `text` as a u64 written in decimal digits, with no sign and no overflow.
bool parse_decimal(std::string_view text, std::uint64_t& value) {
    value = 0;
    for (const char c : text) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' || value > (~std::uint64_t{0} - digit) / 10) return false;
        value = value * 10 + digit;
    }
    return !text.empty();
}

std::vector<Arg> check_args(const dataset::Shape& shape, const std::vector<std::string>& args) {
    if (args.size() != shape.holes.size()) {
        throw std::logic_error(shape_error(shape, std::to_string(args.size()) +
                                                      " arguments for " +
                                                      std::to_string(shape.holes.size()) +
                                                      " holes"));
    }
    std::vector<Arg> out(args.size());
    for (std::size_t hole = 0; hole < args.size(); ++hole) {
        const std::string& arg = args[hole];
        const bool is_name = shape.holes[hole] == 'n';
        if (is_name ? !lang::is_identifier(arg) : !parse_decimal(arg, out[hole].value)) {
            throw std::logic_error(shape_error(
                shape, "argument $" + std::to_string(hole) + " '" + arg + "' is not " +
                           (is_name ? "a name" : "a non-negative integer")));
        }
        if (is_name) out[hole].name = arg;
    }
    return out;
}

/// A fresh program holding `holed` with every hole filled from `args`.
lang::Program fill(const lang::Program& holed, const dataset::Shape& shape,
                   const std::vector<Arg>& args) {
    // Room for the filled names and for the nodes a mutation plan adds.
    const std::size_t used = holed.arena().bytes_used();
    lang::Program out(used + used / 2);
    lang::AstArena& arena = out.arena();
    HoleWalk walk(out, shape, &args);
    out.statics.reserve(holed.statics.size());
    for (const lang::StaticItem& item : holed.statics) {
        out.statics.push_back(item.clone(arena));
        walk.item(out.statics[out.statics.size() - 1]);
    }
    out.functions.reserve(holed.functions.size());
    for (const lang::FnItem& fn : holed.functions) {
        out.functions.push_back(fn.clone(arena));
        walk.item(out.functions[out.functions.size() - 1]);
    }
    return out;
}

}  // namespace

ShapePrograms instantiate(const dataset::Shape& shape, const std::vector<std::string>& args) {
    const HoledShape& templates = holed(shape);
    const std::vector<Arg> checked = check_args(shape, args);
    return {fill(templates.buggy, shape, checked), fill(templates.fix, shape, checked)};
}

namespace detail {

lang::Program parse_holed(const dataset::Shape& shape, std::string_view templ) {
    if (shape.holes.size() > 10) {
        throw std::logic_error(shape_error(shape, "more than ten holes"));
    }
    std::vector<std::string> stand_ins;
    for (std::size_t hole = 0; hole < shape.holes.size(); ++hole) {
        switch (shape.holes[hole]) {
            case 'n':
                stand_ins.push_back(std::string(kNameHole) + static_cast<char>('0' + hole));
                break;
            case 'i':
                stand_ins.push_back(std::to_string(kIntHole + hole));
                break;
            default:
                throw std::logic_error(shape_error(shape, "hole kinds are 'n' and 'i'"));
        }
    }
    std::string error;
    std::optional<lang::Program> program =
        lang::try_parse(dataset::fill_template(templ, stand_ins), &error);
    if (!program) {
        throw std::logic_error(shape_error(shape, "a template does not parse: " + error));
    }
    HoleWalk check(*program, shape, nullptr);
    for (lang::StaticItem& item : program->statics) check.item(item);
    for (lang::FnItem& fn : program->functions) check.item(fn);
    if (check.sites() != count_placeholders(templ, shape.holes.size())) {
        throw std::logic_error(
            shape_error(shape, "a template holds a hole where no name or integer goes"));
    }
    return std::move(*program);
}

}  // namespace detail

}  // namespace rustbrain::gen
