#include "support/strings.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/hashing.hpp"
#include "support/sim_clock.hpp"

namespace rustbrain::support {
namespace {

TEST(StringsTest, SplitBasic) {
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitEmptySegments) {
    const auto parts = split(",a,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "a");
    EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, TrimWhitespace) {
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, JoinRoundTrip) {
    EXPECT_EQ(join({"x", "y", "z"}, ", "), "x, y, z");
    EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, StartsEndsContains) {
    EXPECT_TRUE(starts_with("unsafe fn", "unsafe"));
    EXPECT_FALSE(starts_with("fn", "unsafe"));
    EXPECT_TRUE(ends_with("main.rs", ".rs"));
    EXPECT_FALSE(ends_with("rs", "main.rs"));
    EXPECT_TRUE(contains("let p = &x;", "&x"));
}

TEST(StringsTest, ReplaceAll) {
    EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
    EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
    EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

TEST(StringsTest, IndentSkipsEmptyLines) {
    EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");
}

TEST(StringsTest, FormatDouble) {
    EXPECT_EQ(format_double(3.14159, 2), "3.14");
    EXPECT_EQ(format_double(94.3, 1), "94.3");
}

TEST(HashingTest, Fnv1aStable) {
    // Known FNV-1a 64-bit value for "a".
    EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
    EXPECT_NE(fnv1a64("alloc"), fnv1a64("dealloc"));
}

TEST(HashingTest, U64HashDiffers) {
    EXPECT_NE(fnv1a64_u64(1), fnv1a64_u64(2));
    EXPECT_EQ(fnv1a64_u64(77), fnv1a64_u64(77));
}

TEST(HashingTest, KeyHashSeesEverySingleBitFlip) {
    // Every length from empty through four full 16-byte steps, every bit.
    for (std::size_t length = 0; length <= 64; ++length) {
        std::string text(length, '\0');
        for (std::size_t i = 0; i < length; ++i) {
            text[i] = static_cast<char>(i * 37 + 11);
        }
        const std::uint64_t base = key_hash(text);
        for (std::size_t bit = 0; bit < length * 8; ++bit) {
            std::string flipped = text;
            flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
            EXPECT_NE(key_hash(flipped), base) << "length " << length << " bit " << bit;
        }
        // Appending a zero byte is a different key too.
        EXPECT_NE(key_hash(text + '\0'), base) << "length " << length;
    }
}

TEST(HashingTest, KeyHashDependsOnTheSeed) {
    for (const char* text : {"", "a", "fn main() { }\n", "0123456789abcdef0"}) {
        EXPECT_NE(key_hash(text), key_hash(text, 1)) << text;
        EXPECT_NE(key_hash(text, 1), key_hash(text, 2)) << text;
        EXPECT_EQ(key_hash(text, 5), key_hash(text, 5)) << text;
    }
}

TEST(SimClockTest, ChargesAccumulate) {
    SimClock clock;
    clock.charge("llm", 100.0);
    clock.charge("miri", 20.0);
    clock.charge("llm", 30.0);
    EXPECT_DOUBLE_EQ(clock.now_ms(), 150.0);
    EXPECT_DOUBLE_EQ(clock.total_for("llm"), 130.0);
    EXPECT_DOUBLE_EQ(clock.total_for("kb"), 0.0);
}

TEST(SimClockTest, RejectsNegative) {
    SimClock clock;
    EXPECT_THROW(clock.charge("x", -1.0), std::invalid_argument);
}

TEST(SimClockTest, ResetClears) {
    SimClock clock;
    clock.charge("llm", 5.0);
    clock.reset();
    EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
    EXPECT_TRUE(clock.breakdown().empty());
}

TEST(SimClockTest, PhaseMeasuresElapsed) {
    SimClock clock;
    ClockPhase phase(clock, "fast");
    clock.charge("llm", 12.0);
    EXPECT_DOUBLE_EQ(phase.elapsed_ms(), 12.0);
}

}  // namespace
}  // namespace rustbrain::support
