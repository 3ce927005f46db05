#include "src/common/string_util.h"

#include <gtest/gtest.h>

namespace forklift {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitWhitespaceTest, BlankYieldsNothing) {
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ":"), "x:y:z");
  EXPECT_EQ(Split(Join(parts, ":"), ':'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(PrefixSuffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("forklift", "fork"));
  EXPECT_FALSE(StartsWith("fork", "forklift"));
  EXPECT_TRUE(EndsWith("fig1.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "fig1.csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  abc\t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(ParseNumberTest, AcceptsOnlyTheWholeValue) {
  unsigned long n = 7;
  EXPECT_TRUE(ParseNumber("42", &n));
  EXPECT_EQ(n, 42u);
  EXPECT_FALSE(ParseNumber("", &n));
  EXPECT_FALSE(ParseNumber("x", &n));
  EXPECT_FALSE(ParseNumber("4x", &n));
  EXPECT_FALSE(ParseNumber(" 4", &n));
  EXPECT_FALSE(ParseNumber("-1", &n));
  EXPECT_FALSE(ParseNumber("99999999999999999999999", &n));
  EXPECT_EQ(n, 42u);  // untouched by every failure

  unsigned mode = 0;
  EXPECT_TRUE(ParseNumber("022", &mode, 8));
  EXPECT_EQ(mode, 022u);
  EXPECT_FALSE(ParseNumber("9", &mode, 8));

  double seconds = 0;
  EXPECT_TRUE(ParseNumber("0.25", &seconds));
  EXPECT_DOUBLE_EQ(seconds, 0.25);
  EXPECT_TRUE(ParseNumber("1e-3", &seconds));
  EXPECT_DOUBLE_EQ(seconds, 1e-3);
  EXPECT_FALSE(ParseNumber("abc", &seconds));
  EXPECT_FALSE(ParseNumber("1.5s", &seconds));
}

TEST(HumanBytesTest, UnitsAndRounding) {
  EXPECT_EQ(HumanBytes(0), "0B");
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(1024), "1KiB");
  EXPECT_EQ(HumanBytes(1536), "1.5KiB");
  EXPECT_EQ(HumanBytes(4ull << 20), "4MiB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3GiB");
}

TEST(HumanNanosTest, UnitSelection) {
  EXPECT_EQ(HumanNanos(500), "500ns");
  EXPECT_EQ(HumanNanos(1500), "1.50us");
  EXPECT_EQ(HumanNanos(2.5e6), "2.50ms");
  EXPECT_EQ(HumanNanos(3.2e9), "3.20s");
}

}  // namespace
}  // namespace forklift
