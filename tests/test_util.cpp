// Unit tests for src/util: formatting, tables, CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/harness.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace rlslb {
namespace {

TEST(FormatSig, BasicRounding) {
  EXPECT_EQ(formatSig(3.14159, 3), "3.14");
  EXPECT_EQ(formatSig(3.14159, 4), "3.142");
  EXPECT_EQ(formatSig(12000.0, 4), "12000");
}

TEST(FormatSig, NegativeValues) { EXPECT_EQ(formatSig(-2.5, 2), "-2.5"); }

TEST(FormatSig, Zero) { EXPECT_EQ(formatSig(0.0, 3), "0"); }

TEST(FormatSig, SubUnitKeepsSignificantDigits) {
  EXPECT_EQ(formatSig(0.25, 2), "0.25");
  EXPECT_EQ(formatSig(0.034, 3), "0.034");
  EXPECT_EQ(formatSig(0.0345, 2), "0.035");
}

TEST(FormatSig, NanAndInf) {
  EXPECT_EQ(formatSig(std::nan(""), 3), "nan");
  EXPECT_EQ(formatSig(std::numeric_limits<double>::infinity(), 3), "inf");
  EXPECT_EQ(formatSig(-std::numeric_limits<double>::infinity(), 3), "-inf");
}

TEST(FormatFixed, Basic) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(1.0, 3), "1.000");
}

TEST(FormatCount, GroupsThousands) {
  EXPECT_EQ(formatCount(0), "0");
  EXPECT_EQ(formatCount(999), "999");
  EXPECT_EQ(formatCount(1000), "1,000");
  EXPECT_EQ(formatCount(1234567), "1,234,567");
}

TEST(FormatCount, Negative) { EXPECT_EQ(formatCount(-1234567), "-1,234,567"); }

TEST(FormatHuman, Magnitudes) {
  EXPECT_EQ(formatHuman(1500.0), "1.5k");
  EXPECT_EQ(formatHuman(2500000.0), "2.5M");
  EXPECT_EQ(formatHuman(3200000000.0), "3.2G");
  EXPECT_EQ(formatHuman(42.0), "42");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");  // no truncation
}

TEST(Table, AlignsColumns) {
  Table t({"n", "time"});
  t.row().cell(std::int64_t{100}).cell(1.5);
  t.row().cell(std::int64_t{100000}).cell(12.25);
  const std::string s = t.toString();
  EXPECT_NE(s.find("n"), std::string::npos);
  EXPECT_NE(s.find("100,000"), std::string::npos);
  // Every line has equal... at least check row count: header + underline + 2.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "b"});
  t.row().cell("x").cell("y");
  const std::string md = t.toMarkdown();
  EXPECT_EQ(md.front(), '|');
  EXPECT_EQ(std::count(md.begin(), md.end(), '\n'), 3);
}

TEST(Table, CsvEscaping) {
  Table t({"name", "value"});
  t.row().cell("has,comma").cell("has\"quote");
  const std::string csv = t.toCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, AtAccessor) {
  Table t({"a"});
  t.row().cell(std::int64_t{7});
  EXPECT_EQ(t.at(0, 0), "7");
  EXPECT_EQ(t.numRows(), 1u);
  EXPECT_EQ(t.numCols(), 1u);
}

TEST(Table, PrintWithTitle) {
  Table t({"a"});
  t.row().cell("v");
  std::ostringstream os;
  t.print(os, "TITLE");
  EXPECT_EQ(os.str().rfind("TITLE\n", 0), 0u);
}

TEST(Cli, ParsesKeyValue) {
  const char* argv[] = {"prog", "--n=100", "--label=abc"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.getInt("n", 0), 100);
  EXPECT_EQ(args.getString("label", ""), "abc");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.getInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.getDouble("x", 2.5), 2.5);
  EXPECT_EQ(args.getString("s", "d"), "d");
  EXPECT_FALSE(args.getBool("flag", false));
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.getBool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Cli, BoolSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.getBool("a", false));
  EXPECT_FALSE(args.getBool("b", true));
  EXPECT_TRUE(args.getBool("c", false));
  EXPECT_FALSE(args.getBool("d", true));
}

TEST(Cli, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, argv);
  (void)args.getInt("used", 0);
  const auto unused = args.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, NegativeNumbers) {
  const char* argv[] = {"prog", "--x=-5", "--y=-2.5"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.getInt("x", 0), -5);
  EXPECT_DOUBLE_EQ(args.getDouble("y", 0.0), -2.5);
}

// Bad arguments and values are usage errors the drivers turn into exit 2,
// never assertions; each message names the flag.
TEST(Cli, BadArgumentsAndValuesThrowUsageErrors) {
  const auto error = [](std::vector<const char*> argv, auto&& read) {
    argv.insert(argv.begin(), "prog");
    try {
      const CliArgs args(static_cast<int>(argv.size()), argv.data());
      read(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto readInt = [](const CliArgs& a) { (void)a.getInt("seed", 1); };
  EXPECT_EQ(error({"--seed=abc"}, readInt), "parameter --seed=abc: not an integer");
  EXPECT_EQ(error({"--seed=12x"}, readInt), "parameter --seed=12x: not an integer");
  EXPECT_EQ(error({"--seed="}, readInt), "parameter --seed=: not an integer");
  EXPECT_EQ(error({"--seed=99999999999999999999999"}, readInt),
            "parameter --seed=99999999999999999999999: out of int64 range");
  EXPECT_EQ(error({"--seed=-99999999999999999999999"}, readInt),
            "parameter --seed=-99999999999999999999999: out of int64 range");
  EXPECT_EQ(error({"--x=1.5e"}, [](const CliArgs& a) { (void)a.getDouble("x", 0.0); }),
            "parameter --x=1.5e: not a number");
  EXPECT_EQ(error({"--csv=maybe"}, [](const CliArgs& a) { (void)a.getBool("csv", false); }),
            "parameter --csv=maybe: not a boolean (true/1/yes/on or false/0/no/off)");
  EXPECT_EQ(error({"--n=abc"}, [](const CliArgs& a) { (void)a.getInt("n", 0); }),
            "parameter --n=abc: not an integer");
  EXPECT_EQ(error({"positional"}, readInt),
            "argument positional: arguments are --key or --key=value");
  const auto readThreads = [](const CliArgs& a) { (void)a.getThreads(); };
  EXPECT_EQ(error({"--threads=-3"}, readThreads),
            "--threads=-3 must be in [0, 4096] (0 = hardware)");
  EXPECT_EQ(error({"--threads=4097"}, readThreads),
            "--threads=4097 must be in [0, 4096] (0 = hardware)");
  EXPECT_EQ(error({"--threads=4096"}, readThreads), "accepted");
  EXPECT_EQ(error({"--threads=0"}, readThreads), "accepted");
  EXPECT_EQ(error({"--seed=9223372036854775807"}, readInt), "accepted");
  // The scenario drivers' --reps: 0 picks each scenario's default.
  const auto readContext = [](const CliArgs& a) { (void)scenario::contextFromArgs(a); };
  EXPECT_EQ(error({"--reps=-1"}, readContext),
            "--reps=-1 must be >= 0 (0 = the scenario's default)");
  EXPECT_EQ(error({"--reps=0"}, readContext), "accepted");
}

TEST(Timer, MeasuresNonNegative) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.millis(), 0.0);
}

using UtilDeathTest = ::testing::Test;

TEST(UtilDeathTest, TableRejectsOverfullRow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table t({"only"});
  t.row().cell("a");
  EXPECT_DEATH(t.cell("b"), "too many cells");
}

TEST(UtilDeathTest, TableRejectsIncompleteRowOnNewRow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table t({"a", "b"});
  t.row().cell("x");
  EXPECT_DEATH(t.row(), "incomplete");
}

TEST(UtilDeathTest, TableCellBeforeRow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table t({"a"});
  EXPECT_DEATH(t.cell("x"), "call row");
}

}  // namespace
}  // namespace rlslb
