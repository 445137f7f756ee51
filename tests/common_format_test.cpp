// Unit tests for formatting helpers and the stopwatch.
#include "common/format.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stopwatch.hpp"

namespace mcs {
namespace {

TEST(Format, FixedPrecision) {
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_fixed(2.0, 0), "2");
    EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
    // As printf("%.*f"): the sign of a value that rounds to zero stays,
    // decimal ties that are not binary ties round by their binary value,
    // and every integer digit of the largest magnitudes is printed.
    EXPECT_EQ(format_fixed(-0.0, 3), "-0.000");
    EXPECT_EQ(format_fixed(-1e-9, 3), "-0.000");
    EXPECT_EQ(format_fixed(0.0005, 3), "0.001");
    EXPECT_EQ(format_fixed(0.0015, 3), "0.002");
    EXPECT_EQ(format_fixed(0.0625, 3), "0.062");
    EXPECT_EQ(format_fixed(2.5e15, 4), "2500000000000000.0000");
    EXPECT_EQ(format_fixed(-1e308, 3).size(), 314u);
    EXPECT_EQ(format_fixed(std::numeric_limits<double>::quiet_NaN(), 3),
              "nan");
    EXPECT_EQ(format_fixed(-std::numeric_limits<double>::infinity(), 4),
              "-inf");
    EXPECT_EQ(format_fixed(1.0 / 3.0, -1), "0.333333");
}

TEST(Format, Percent) {
    EXPECT_EQ(format_percent(0.954), "95.4%");
    EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Format, Padding) {
    EXPECT_EQ(pad_left("ab", 4), "  ab");
    EXPECT_EQ(pad_right("ab", 4), "ab  ");
    EXPECT_EQ(pad_left("abcd", 2), "abcd");
    EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Format, Join) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Format, Split) {
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Format, SplitNoDelimiter) {
    const auto parts = split("plain", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "plain");
}

TEST(Format, ParseDouble) {
    EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
    EXPECT_DOUBLE_EQ(parse_double("-2e3"), -2000.0);
    EXPECT_THROW(parse_double("abc"), Error);
    EXPECT_THROW(parse_double("1.5x"), Error);
    EXPECT_THROW(parse_double(""), Error);
}

TEST(Format, ParseLong) {
    EXPECT_EQ(parse_long("42"), 42);
    EXPECT_EQ(parse_long("-7"), -7);
    EXPECT_THROW(parse_long("4.2"), Error);
    EXPECT_THROW(parse_long(""), Error);
}

TEST(Stopwatch, MeasuresElapsedTime) {
    Stopwatch sw;
    // Busy-wait a short, measurable interval.
    volatile double sink = 0.0;
    while (sw.elapsed_ms() < 5.0) {
        sink += 1.0;
    }
    EXPECT_GE(sw.elapsed_seconds(), 0.005);
    sw.restart();
    EXPECT_LT(sw.elapsed_ms(), 5.0);
}

TEST(Format, EditDistance) {
    EXPECT_EQ(edit_distance("", ""), 0u);
    EXPECT_EQ(edit_distance("abc", ""), 3u);
    EXPECT_EQ(edit_distance("", "abc"), 3u);
    EXPECT_EQ(edit_distance("collude", "collude"), 0u);
    EXPECT_EQ(edit_distance("colude", "collude"), 1u);   // insertion
    EXPECT_EQ(edit_distance("colludee", "collude"), 1u); // deletion
    EXPECT_EQ(edit_distance("collide", "collude"), 1u);  // substitution
    EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

TEST(Format, NearestCandidatePicksWithinThreshold) {
    const std::vector<std::string> keys = {"collude", "outage", "replay",
                                           "seed"};
    EXPECT_EQ(nearest_candidate("colude", keys), "collude");
    EXPECT_EQ(nearest_candidate("outge", keys), "outage");
    EXPECT_EQ(nearest_candidate("sede", keys), "seed");
    // Too far from everything: no suggestion rather than a wild guess.
    EXPECT_EQ(nearest_candidate("zzzzzzzz", keys), "");
    EXPECT_EQ(nearest_candidate("x", {}), "");
}

}  // namespace
}  // namespace mcs
