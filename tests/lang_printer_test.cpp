#include "lang/printer.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "lang/parser.hpp"
#include "mutation.hpp"
#include "support/hashing.hpp"
#include "support/rng.hpp"
#include "tree_digest.hpp"

namespace rustbrain::lang {
namespace {

Program parse_ok(std::string_view source) {
    std::string error;
    auto program = try_parse(source, &error);
    EXPECT_TRUE(program.has_value()) << error;
    return program ? std::move(*program) : Program{};
}

void expect_round_trip(std::string_view source) {
    const Program original = parse_ok(source);
    const std::string printed = print_program(original);
    std::string error;
    auto reparsed = try_parse(printed, &error);
    ASSERT_TRUE(reparsed.has_value()) << "printed program failed to parse:\n"
                                      << printed << "\n"
                                      << error;
    EXPECT_TRUE(equals(original, *reparsed))
        << "round-trip changed structure:\n--- original source\n"
        << source << "\n--- printed\n"
        << printed;
}

TEST(PrinterTest, SimpleFunction) {
    const auto program = parse_ok("fn main() { let x = 1; }");
    const std::string printed = print_program(program);
    EXPECT_NE(printed.find("fn main() {"), std::string::npos);
    EXPECT_NE(printed.find("let x = 1;"), std::string::npos);
}

TEST(PrinterTest, PreservesUnsafeMarkers) {
    const auto program = parse_ok(
        "unsafe fn f() { } fn main() { unsafe { f(); } }");
    const std::string printed = print_program(program);
    EXPECT_NE(printed.find("unsafe fn f()"), std::string::npos);
    EXPECT_NE(printed.find("unsafe {"), std::string::npos);
}

// Round-trip property over representative programs, one per language area.
class PrinterRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(PrinterRoundTrip, ParsePrintParseIsIdentity) { expect_round_trip(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Programs, PrinterRoundTrip,
    ::testing::Values(
        "fn main() { }",
        "fn main() { let x = 1 + 2 * 3 - 4 / 5 % 6; }",
        "fn main() { let b = (1 + 2) * 3; }",
        "fn main() { let b = true && false || 1 < 2; }",
        "fn main() { let x = 1 & 2 | 3 ^ 4; let y = 1 << 2 >> 1; }",
        "fn main() { let mut x = 5; x = x + 1; }",
        "static mut G: i64 = 7; fn main() { unsafe { G = 1; } }",
        "static T: [i32; 4] = [1, 2, 3, 4]; fn main() { }",
        "fn main() { let a: [u8; 2] = [23, 7]; let n = a[0]; }",
        "fn main() { let a = [0; 16]; }",
        "fn main() { let x = 5; let p = &x as *const i32; unsafe { let y = *p; } }",
        "fn main() { let mut x = 5; let p = &mut x as *mut i32; unsafe { *p = 6; } }",
        "fn main() { let p = 4096 as *const i32; }",
        "fn main() { let x = 1 as i64 as i32 as u8; }",
        "fn f(a: i32, b: i32) -> i32 { return a + b; } fn main() { let s = f(1, 2); }",
        "fn f() { } fn main() { let g = f; (g)(); }",
        "fn f() { } fn main() { let h = spawn(f); join(h); }",
        "unsafe fn danger() -> i32 { return 1; } fn main() { unsafe { let x = danger(); } }",
        "fn main() { if true { print_int(1); } else { print_int(2); } }",
        "fn main() { let x = 2; if x == 1 { } else if x == 2 { print_int(2); } }",
        "fn main() { let mut i = 0; while i < 10 { i = i + 1; } }",
        "fn main() { { let inner = 1; } }",
        "fn loop_fn(n: i32) -> i32 { if n <= 0 { return 0; } become loop_fn(n - 1); } "
        "fn main() { let r = loop_fn(3); }",
        "fn main() { unsafe { let p = alloc(8, 8); dealloc(p, 8, 8); } }",
        "fn main() { unsafe { let p = alloc(16, 8); let q = offset(p, 8); "
        "dealloc(p, 16, 8); } }",
        "fn main() { let neg = -5; let not_b = !true; let not_i = !0; }",
        "fn main() { let a = [1, 2]; let p = &a; let y = (*p)[0]; let z = *p[0]; }",
        "fn main() { let mut x = 1; let r = &(&x); let m = &(&mut x); let n = &mut &x; }",
        "fn main() { print_int(input(0)); print_bool(true); assert(1 == 1); }"));

TEST(PrinterTest, DeepNestingRoundTrip) {
    expect_round_trip(R"(
fn main() {
    let mut total = 0;
    let mut i = 0;
    while i < 4 {
        if i % 2 == 0 {
            let mut j = 0;
            while j < i {
                total = total + (i * 10 + j);
                j = j + 1;
            }
        } else {
            unsafe {
                let p = &total as *const i32;
                total = *p + 1;
            }
        }
        i = i + 1;
    }
    print_int(total as i64);
})");
}

TEST(PrinterTest, PrintedCastsKeepStructure) {
    // Regression guard for parenthesization: (a + b) as i64 vs a + (b as i64).
    const auto sum_cast = parse_ok("fn main() { let x = (1 + 2) as i64; }");
    const auto cast_sum = parse_ok("fn main() { let x = 1 + (2 as i64 as i32); }");
    EXPECT_FALSE(equals(sum_cast, cast_sum));
    expect_round_trip("fn main() { let x = (1 + 2) as i64; }");
}

TEST(PrinterTest, ForgedCorpusPrintsTheGoldenBytes) {
    // FNV-1a over print_program of every buggy source and reference fix of
    // the 560-case, seed-42 forge (the sweep benchmark's corpus). The
    // golden was fingerprinted with the printer that built one temporary
    // string per node; printing into one buffer must emit the same bytes.
    gen::ForgeOptions options;
    options.seed = 42;
    options.count = 560;
    const dataset::Corpus corpus = gen::forge_corpus(options);
    ASSERT_EQ(corpus.size(), 560u);
    std::uint64_t digest = support::fnv1a64("");
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        for (const std::string* source : {&ub_case.buggy_source, &ub_case.reference_fix}) {
            digest = support::fnv1a64(print_program(parse_ok(*source)), digest);
        }
    }
    EXPECT_EQ(digest, 0x25DF564BF4CA8CE1ULL);
}

/// Zeroes every span of `program`, so respanning has to write each one.
struct WipeSpans {
    void operator()(ExprPtr& expr) {
        expr->span = {};
        for_each_child(*expr, *this);
    }
    void operator()(Block& block) {
        for (StmtPtr& stmt : block.statements) {
            stmt->span = {};
            for_each_child(*stmt, *this);
        }
    }
    void program(Program& program) {
        for (StaticItem& item : program.statics) {
            item.span = {};
            if (item.init) (*this)(item.init);
        }
        for (FnItem& fn : program.functions) {
            fn.span = {};
            (*this)(fn.body);
        }
    }
};

/// Parses `source`, wipes its spans, prints it respanned and checks that
/// the bytes are print_program's and that every node's kind, id and span
/// equal those of try_parse of the bytes. Returns false when `source` does
/// not parse.
bool check_respanned(const std::string& source) {
    std::optional<Program> program = try_parse(source);
    if (!program) return false;
    const std::string expected = print_program(*program);
    WipeSpans{}.program(*program);
    const std::string printed = print_respanned(*program);
    EXPECT_EQ(printed, expected);
    std::string error;
    const std::optional<Program> reparsed = try_parse(printed, &error);
    EXPECT_TRUE(reparsed.has_value()) << error << "\n" << printed;
    if (reparsed) {
        EXPECT_EQ(tree_digest(*program), tree_digest(*reparsed))
            << "--- source\n" << source << "\n--- printed\n" << printed;
    }
    return true;
}

TEST(PrinterTest, RespannedSpansMatchTheParser) {
    std::vector<std::string> sources = {
        kEveryNodeKind,
        // Forms the every-kind program leaves out: `unsafe fn`, `else if`
        // (an else block holding one `if`), `&` without `mut`, a hex
        // literal, chained and parenthesized casts, a call in an index, a
        // unary index base and a reference to a reference.
        "unsafe fn f(a: i64, b: bool) -> i64 { if b { return a; } else if a > 1 "
        "{ return 0x1F; } return -a; }\n"
        "fn main() { let x = 5; let p = &x as *const i64 as usize; "
        "let q = ((x + 1) as i32 as i64) * 2; let a = [1, 2]; "
        "let r = a[f(0, true) as usize % 2]; unsafe { print_int(f(r, false)); } "
        "let s = &a; let t = (*s)[0]; let u = &(&x); let v = &(&mut x); }",
    };
    const dataset::Corpus standard = dataset::Corpus::standard();
    for (const dataset::UbCase& ub_case : standard.cases()) {
        sources.push_back(ub_case.buggy_source);
        sources.push_back(ub_case.reference_fix);
    }
    for (const std::string& source : sources) {
        ASSERT_TRUE(check_respanned(source)) << source;
    }

    // Mutants of those sources that still parse: odd spacing, comments,
    // spliced statements and hostile literals move every token.
    support::Rng rng(support::derive_seed(3, "printer-respan"));
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < 40000 && parsed < 2000; ++i) {
        const std::string& seed = sources[(i * 7919) % sources.size()];
        parsed += check_respanned(mutation::mutate(seed, sources, rng)) ? 1 : 0;
    }
    EXPECT_GE(parsed, 2000u);
}

}  // namespace
}  // namespace rustbrain::lang
