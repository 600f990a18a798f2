#include <cstdint>

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace apots {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(ToLowerTest, Lowercases) {
  EXPECT_EQ(ToLower("QuIcK"), "quick");
  EXPECT_EQ(ToLower("already"), "already");
}

TEST(StartsWithTest, PrefixChecks) {
  EXPECT_TRUE(StartsWith("speed_0", "speed_"));
  EXPECT_FALSE(StartsWith("speed", "speed_"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ParseDoubleTest, AcceptsValidRejectsJunk) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &value));
  EXPECT_DOUBLE_EQ(value, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("1.5x", &value));
  EXPECT_FALSE(ParseDouble("", &value));
}

TEST(ParseInt64Test, AcceptsValidRejectsJunk) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-17", &value));
  EXPECT_EQ(value, -17);
  EXPECT_FALSE(ParseInt64("4.2", &value));
  EXPECT_FALSE(ParseInt64("x", &value));
}

// Out of range is an error, not the nearest int64; both ends fit exactly.
TEST(ParseInt64Test, RejectsOutOfRangeAcceptsTheLimits) {
  int64_t value = 0;
  EXPECT_FALSE(ParseInt64("99999999999999999999", &value));
  EXPECT_FALSE(ParseInt64("-99999999999999999999", &value));
  EXPECT_TRUE(ParseInt64("9223372036854775807", &value));
  EXPECT_EQ(value, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &value));
  EXPECT_EQ(value, INT64_MIN);
}

}  // namespace
}  // namespace apots
