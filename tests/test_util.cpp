// Unit tests for src/util: formatting, tables, key=value parsing and domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/harness.hpp"
#include "util/format.hpp"
#include "util/params.hpp"
#include "util/parse.hpp"
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
  util::Params args(3, argv);
  EXPECT_EQ(args.getInt("n", 0), 100);
  EXPECT_EQ(args.getString("label", ""), "abc");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  util::Params args(1, argv);
  EXPECT_EQ(args.getInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.getDouble("x", 2.5), 2.5);
  EXPECT_EQ(args.getString("s", "d"), "d");
  EXPECT_FALSE(args.getBool("flag", false));
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  util::Params args(2, argv);
  EXPECT_TRUE(args.getBool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Cli, BoolSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  util::Params args(5, argv);
  EXPECT_TRUE(args.getBool("a", false));
  EXPECT_FALSE(args.getBool("b", true));
  EXPECT_TRUE(args.getBool("c", false));
  EXPECT_FALSE(args.getBool("d", true));
}

TEST(Cli, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  util::Params args(3, argv);
  (void)args.getInt("used", 0);
  const auto unused = args.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, NegativeNumbers) {
  const char* argv[] = {"prog", "--x=-5", "--y=-2.5"};
  util::Params args(3, argv);
  EXPECT_EQ(args.getInt("x", 0), -5);
  EXPECT_DOUBLE_EQ(args.getDouble("y", 0.0), -2.5);
}

// Bad arguments and values are usage errors the drivers turn into exit 2,
// never assertions; each message names the flag.
TEST(Cli, BadArgumentsAndValuesThrowUsageErrors) {
  const auto error = [](std::vector<const char*> argv, auto&& read) {
    argv.insert(argv.begin(), "prog");
    try {
      const util::Params args(static_cast<int>(argv.size()), argv.data());
      read(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto readInt = [](const util::Params& a) { (void)a.getInt("seed", 1); };
  EXPECT_EQ(error({"--seed=abc"}, readInt), "parameter --seed=abc: not an integer");
  EXPECT_EQ(error({"--seed=12x"}, readInt), "parameter --seed=12x: not an integer");
  EXPECT_EQ(error({"--seed="}, readInt), "parameter --seed=: not an integer");
  EXPECT_EQ(error({"--seed=99999999999999999999999"}, readInt),
            "parameter --seed=99999999999999999999999: out of int64 range");
  EXPECT_EQ(error({"--seed=-99999999999999999999999"}, readInt),
            "parameter --seed=-99999999999999999999999: out of int64 range");
  EXPECT_EQ(error({"--x=1.5e"}, [](const util::Params& a) { (void)a.getDouble("x", 0.0); }),
            "parameter --x=1.5e: not a number");
  EXPECT_EQ(error({"--csv=maybe"}, [](const util::Params& a) { (void)a.getBool("csv", false); }),
            "parameter --csv=maybe: not a boolean (true/1/yes/on or false/0/no/off)");
  EXPECT_EQ(error({"--n=abc"}, [](const util::Params& a) { (void)a.getInt("n", 0); }),
            "parameter --n=abc: not an integer");
  EXPECT_EQ(error({"positional"}, readInt),
            "argument positional: arguments are --key or --key=value");
  EXPECT_EQ(error({"--seed=9223372036854775807"}, readInt), "accepted");
  // The scenario drivers' flags, checked against their declared domains
  // (scenario/harness.cpp): --threads, --reps (0 picks each scenario's
  // default), --scale and --conformance.
  const auto readContext = [](const util::Params& a) { (void)scenario::contextFromArgs(a); };
  EXPECT_EQ(error({"--threads=-3"}, readContext), "--threads=-3 must be in [0, 4096]");
  EXPECT_EQ(error({"--threads=4097"}, readContext), "--threads=4097 must be in [0, 4096]");
  EXPECT_EQ(error({"--threads=4096"}, readContext), "accepted");
  EXPECT_EQ(error({"--threads=0"}, readContext), "accepted");
  EXPECT_EQ(error({"--reps=-1"}, readContext), "--reps=-1 must be >= 0");
  EXPECT_EQ(error({"--reps=0"}, readContext), "accepted");
  EXPECT_EQ(error({"--scale=bogus"}, readContext),
            "--scale=bogus must be one of small|default|full");
  EXPECT_EQ(error({"--conformance=maybe"}, readContext),
            "--conformance=maybe must be one of on|off|strict");
  EXPECT_EQ(error({"--conformance=strict", "--scale=full"}, readContext), "accepted");
  EXPECT_EQ(error({"--seed=abc"}, readContext), "parameter --seed=abc: not an integer");
  // A repeated flag used to keep its last value, so an earlier bad one was
  // never checked.
  EXPECT_EQ(error({"--scale=bogus", "--threads=1", "--scale=small"}, readContext),
            "--scale given twice (bogus, then small)");
  EXPECT_EQ(error({"--csv", "--csv=0"}, readContext), "--csv given twice (true, then 0)");
}

TEST(Cli, UnknownFlagsAreUsageErrors) {
  const char* argv[] = {"prog", "--used=1", "--typo=2", "--other"};
  const util::Params args(4, argv);
  (void)args.getInt("used", 0);
  try {
    args.rejectUnused(" (hint)");
    FAIL() << "unread flags were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --other (hint)\nunknown flag --typo (hint)");
  }
  (void)args.has("other");
  (void)args.getString("typo", "");
  EXPECT_NO_THROW(args.rejectUnused());
}

// A domain check parses by type and compares against the declared range;
// it is not a read.
TEST(ParamDomains, CheckNamesOwnerKeyValueAndRange) {
  const std::vector<util::ParamSpec> specs = {
      {"n", "int", "1", "", {.intMin = 1, .intMax = 64}},
      {"lo", "int", "0", "", {.intMin = -1}},
      {"rate", "double", "1", "", {.min = 0.0}},
      {"dt", "double", "1", "", {.min = 0.0, .minExclusive = true}},
      {"p", "double", "1", "", {.min = 0.0, .max = 1.0, .minExclusive = true}},
      {"horizon", "double", "1", "", {.min = 0.0, .finite = true}},
      {"shape", "string", "a", "", {.choices = "a|bb|c"}},
      {"label", "string", "", ""},
      {"flag", "bool", "0", ""},
  };
  const auto error = [&specs](const std::vector<std::string>& tokens) {
    util::Params p;
    std::string parseError;
    EXPECT_TRUE(util::Params::fromTokens(tokens, &p, &parseError)) << parseError;
    try {
      util::checkParams(p, specs, "owner");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    EXPECT_EQ(p.unusedKeys().size(), tokens.size()) << "a check is not a read";
    return std::string("accepted");
  };
  EXPECT_EQ(error({"n=1", "lo=-1", "rate=0", "dt=1e-300", "p=1", "horizon=0", "shape=bb",
                   "label=x", "flag=on", "undeclared=whatever"}),
            "accepted");
  EXPECT_EQ(error({"n=0"}), "owner: n=0 must be in [1, 64]");
  EXPECT_EQ(error({"n=65"}), "owner: n=65 must be in [1, 64]");
  EXPECT_EQ(error({"lo=-2"}), "owner: lo=-2 must be >= -1");
  EXPECT_EQ(error({"rate=-1e-300"}), "owner: rate=-1e-300 must be >= 0");
  EXPECT_EQ(error({"rate=nan"}), "owner: rate=nan must be >= 0");
  EXPECT_EQ(error({"rate=inf"}), "accepted");
  EXPECT_EQ(error({"dt=0"}), "owner: dt=0 must be > 0");
  EXPECT_EQ(error({"p=0"}), "owner: p=0 must be in (0, 1]");
  EXPECT_EQ(error({"p=1.0000001"}), "owner: p=1.0000001 must be in (0, 1]");
  EXPECT_EQ(error({"horizon=inf"}), "owner: horizon=inf must be finite >= 0");
  EXPECT_EQ(error({"horizon=-1"}), "owner: horizon=-1 must be finite >= 0");
  EXPECT_EQ(error({"shape=b"}), "owner: shape=b must be one of a|bb|c");
  EXPECT_EQ(error({"shape="}), "owner: shape= must be one of a|bb|c");
  EXPECT_EQ(error({"n=abc"}), "parameter n=abc: not an integer");
  EXPECT_EQ(error({"flag=maybe"}),
            "parameter flag=maybe: not a boolean (true/1/yes/on or false/0/no/off)");
  EXPECT_EQ(util::rangeText(specs[0]), "[1, 64]");
  EXPECT_EQ(util::rangeText(specs[7]), "-");
}

// One splitter for every list-valued param: an empty entry names the key.
TEST(ParamLists, EmptyEntriesAreUsageErrors) {
  EXPECT_EQ(util::splitEntries("k", "a,b", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(util::splitEntries("k", "a;b,c", ';'), (std::vector<std::string>{"a", "b,c"}));
  for (const char* bad : {"", ",", "a,,b", "a,", ",a"}) {
    try {
      (void)util::splitEntries("n_list", bad, ',');
      ADD_FAILURE() << "'" << bad << "' was split";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("parameter n_list=") + bad + ": empty list entry");
    }
  }
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
