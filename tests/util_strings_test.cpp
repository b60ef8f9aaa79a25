#include "util/strings.h"

#include <gtest/gtest.h>

namespace cs::util {
namespace {

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a..b", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitNonemptyDropsEmpties) {
  const auto parts = split_nonempty(".a..b.", '.');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"only"}, ", "), "only");
}

TEST(Strings, ToLowerAsciiOnly) {
  EXPECT_EQ(to_lower("WwW.ExAmPle.COM"), "www.example.com");
  EXPECT_EQ(to_lower("123-_"), "123-_");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nval\n"), "val");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("HTTP", "http"));
  EXPECT_FALSE(iequals("http", "https"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(istarts_with("Content-Type: text/html", "content-type"));
  EXPECT_FALSE(istarts_with("abc", "abcd"));
  EXPECT_TRUE(iends_with("www.ELB.amazonaws.com", ".elb.amazonaws.com"));
  EXPECT_FALSE(iends_with("amazonaws.com", "xamazonaws.com"));
}

TEST(Strings, Contains) {
  EXPECT_TRUE(icontains("proxy.HEROKU.com", "heroku"));
  EXPECT_FALSE(icontains("example.com", "heroku"));
  EXPECT_TRUE(icontains("abc", ""));
  EXPECT_FALSE(icontains("ab", "abc"));
}

}  // namespace
}  // namespace cs::util
