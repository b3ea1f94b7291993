// The CLI flag parser's numeric getters. Every integer flag is a count,
// index, port or seed, so GetInt takes only a whole non-negative base-10
// integer and GetDouble only one whole finite number; anything else exits 2
// naming the flag, instead of parsing a prefix ("2e5" as 2) or wrapping a
// negative count into a huge one.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/flags.h"

namespace ldpjs::tools {
namespace {

Flags ParsedWith(const std::string& flag, const std::string& value) {
  Flags flags;
  flags.Define("rows", "1000000", "rows per table");
  flags.Define("alpha", "1.1", "zipf skew");
  std::vector<std::string> args = {"ldpjs_cli", "--" + flag, value};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  return flags;
}

TEST(ToolsFlagsTest, WholeNumbersParse) {
  EXPECT_EQ(ParsedWith("rows", "200000").GetInt("rows"), 200000);
  EXPECT_EQ(ParsedWith("rows", "0").GetInt("rows"), 0);
  EXPECT_EQ(ParsedWith("alpha", "2.5e-1").GetDouble("alpha"), 0.25);
  EXPECT_EQ(ParsedWith("alpha", "-3").GetDouble("alpha"), -3.0);
  // Defaults go through the same checks.
  EXPECT_EQ(ParsedWith("rows", "7").GetDouble("alpha"), 1.1);
  EXPECT_EQ(ParsedWith("alpha", "2").GetInt("rows"), 1000000);
}

TEST(ToolsFlagsDeathTest, MalformedIntegerExitsTwoNamingTheFlag) {
  for (const char* value :
       {"2e5", "200k", "-1", "", " 5", "+5", "99999999999999999999"}) {
    EXPECT_EXIT(ParsedWith("rows", value).GetInt("rows"),
                testing::ExitedWithCode(2), "rows")
        << "value '" << value << "'";
  }
}

TEST(ToolsFlagsDeathTest, MalformedDoubleExitsTwoNamingTheFlag) {
  for (const char* value : {"1.1x", "", " 1", "inf", "nan", "1e999"}) {
    EXPECT_EXIT(ParsedWith("alpha", value).GetDouble("alpha"),
                testing::ExitedWithCode(2), "alpha")
        << "value '" << value << "'";
  }
}

TEST(ToolsFlagsTest, RangedGettersAcceptTheirRange) {
  EXPECT_EQ(ParsedWith("rows", "1").GetIntIn("rows", 1), 1);
  EXPECT_EQ(ParsedWith("rows", "65535").GetIntIn("rows", 1, 65535), 65535);
  EXPECT_EQ(ParsedWith("rows", "1024").GetPowerOfTwoIn("rows", 2, 1 << 30),
            1024);
  EXPECT_EQ(ParsedWith("rows", "2").GetPowerOfTwoIn("rows", 2, 1 << 30), 2);
  EXPECT_EQ(ParsedWith("alpha", "0.5").GetDoubleIn("alpha", 0.0, 1.0), 0.5);
  EXPECT_EQ(ParsedWith("alpha", "4").GetDoubleIn("alpha", 0.0), 4.0);
}

TEST(ToolsFlagsDeathTest, OutOfRangeIntegerExitsTwoNamingFlagAndRange) {
  EXPECT_EXIT(ParsedWith("rows", "0").GetIntIn("rows", 1),
              testing::ExitedWithCode(2), "--rows: '0' is not an integer >= 1");
  EXPECT_EXIT(ParsedWith("rows", "65536").GetIntIn("rows", 1, 65535),
              testing::ExitedWithCode(2), "rows.*\\[1, 65535\\]");
  // Malformed still wins over the range check.
  EXPECT_EXIT(ParsedWith("rows", "-3").GetIntIn("rows", 1),
              testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(ToolsFlagsDeathTest, NonPowerOfTwoExitsTwoNamingFlagAndRange) {
  for (const char* value : {"1000", "0", "1", "2147483648"}) {
    EXPECT_EXIT(ParsedWith("rows", value).GetPowerOfTwoIn("rows", 2, 1 << 30),
                testing::ExitedWithCode(2), "rows.*power of two")
        << "value '" << value << "'";
  }
}

TEST(ToolsFlagsDeathTest, OutOfRangeDoubleExitsTwoNamingFlagAndRange) {
  for (const char* value : {"0", "-1", "1", "1.5"}) {
    EXPECT_EXIT(ParsedWith("alpha", value).GetDoubleIn("alpha", 0.0, 1.0),
                testing::ExitedWithCode(2), "alpha.*\\(0, 1\\)")
        << "value '" << value << "'";
  }
  EXPECT_EXIT(ParsedWith("alpha", "0").GetDoubleIn("alpha", 0.0),
              testing::ExitedWithCode(2), "alpha.*\\(0, inf\\)");
}

}  // namespace
}  // namespace ldpjs::tools
