#include "common/cli.hpp"

#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace lrb {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, ParsesEqualsForm) {
  const auto args = make({"prog", "--iters=1000", "--name=table1"});
  EXPECT_EQ(args.get_u64("iters", 0), 1000u);
  EXPECT_EQ(args.get_string("name", ""), "table1");
}

TEST(CliArgs, ParsesSpaceForm) {
  const auto args = make({"prog", "--iters", "42"});
  EXPECT_EQ(args.get_u64("iters", 0), 42u);
}

TEST(CliArgs, BareFlagIsTrue) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
}

TEST(CliArgs, ExplicitBooleans) {
  const auto args = make({"prog", "--a=true", "--b=0", "--c=no", "--d=on"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
  EXPECT_THROW((void)make({"p", "--x=maybe"}).get_bool("x", false),
               InvalidArgumentError);
}

TEST(CliArgs, Defaults) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get_u64("iters", 7), 7u);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 1.5), 1.5);
  EXPECT_EQ(args.get_string("name", "x"), "x");
}

TEST(CliArgs, Positionals) {
  const auto args = make({"prog", "file1", "--k=2", "file2"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "file1");
  EXPECT_EQ(args.positionals()[1], "file2");
}

TEST(CliArgs, EnvFallback) {
  ::setenv("LRB_TEST_ITERS", "123", 1);
  const auto args = make({"prog"});
  EXPECT_EQ(args.get_u64("iters", 0, "LRB_TEST_ITERS"), 123u);
  // Explicit option beats env.
  const auto args2 = make({"prog", "--iters=5"});
  EXPECT_EQ(args2.get_u64("iters", 0, "LRB_TEST_ITERS"), 5u);
  ::unsetenv("LRB_TEST_ITERS");
}

TEST(CliArgs, ParseU64ScientificShorthand) {
  EXPECT_EQ(CliArgs::parse_u64("1e9"), 1000000000u);
  EXPECT_EQ(CliArgs::parse_u64("2.5e6"), 2500000u);
  EXPECT_EQ(CliArgs::parse_u64("1_000_000"), 1000000u);
  EXPECT_EQ(CliArgs::parse_u64("1,000"), 1000u);
  EXPECT_EQ(CliArgs::parse_u64("0"), 0u);
}

TEST(CliArgs, ParseU64RejectsGarbage) {
  EXPECT_THROW(CliArgs::parse_u64("abc"), InvalidArgumentError);
  EXPECT_THROW(CliArgs::parse_u64(""), InvalidArgumentError);
  EXPECT_THROW(CliArgs::parse_u64("1.5"), InvalidArgumentError);  // not integral
  EXPECT_THROW(CliArgs::parse_u64("12x"), InvalidArgumentError);
  // Signs, blanks, hex, overflow and 2^64 itself are rejected, never
  // wrapped or cast.
  for (const char* bad : {"-1", "+5", "99999999999999999999",
                          "18446744073709551616", "1.8446744073709552e19",
                          " 5", "0x1.8p3"}) {
    try {
      (void)CliArgs::parse_u64(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << "error must name the text: " << e.what();
    }
  }
  EXPECT_EQ(CliArgs::parse_u64("18446744073709551615"),
            std::uint64_t{18446744073709551615u});
  EXPECT_EQ(CliArgs::parse_u64("1e+3"), 1000u);
}

TEST(CliArgs, ParseDoubleReadsWholeFiniteTokens) {
  EXPECT_EQ(CliArgs::parse_double("2.5"), 2.5);
  EXPECT_EQ(CliArgs::parse_double("-3"), -3.0);  // sign is the caller's check
  EXPECT_EQ(CliArgs::parse_double("0"), 0.0);
  EXPECT_EQ(CliArgs::parse_double("1e-310"), 1e-310);  // subnormal
  EXPECT_GT(CliArgs::parse_double("4.9e-324"), 0.0);   // smallest subnormal
  EXPECT_EQ(CliArgs::parse_double("1.7976931348623157e308"),
            std::numeric_limits<double>::max());
}

TEST(CliArgs, ParseDoubleRejectsAndQuotesTheToken) {
  for (const char* bad : {"1e400", "-1e400", "abc", "1x", "nan", "inf", "-inf",
                          "", "1e-400", "2.5 "}) {
    try {
      (void)CliArgs::parse_double(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"),
                std::string::npos)
          << "error must quote the token: " << e.what();
    }
  }
}

TEST(CliArgs, GetDoubleParses) {
  const auto args = make({"prog", "--rho=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.25);
  EXPECT_THROW((void)make({"p", "--x=nanx!"}).get_double("x", 0), InvalidArgumentError);
  // Same finite parser as parse_double: no NaN, infinity or overflow.
  for (const char* bad : {"nan", "inf", "1e400"}) {
    const std::string opt = std::string("--x=") + bad;
    EXPECT_THROW((void)make({"p", opt.c_str()}).get_double("x", 0),
                 InvalidArgumentError)
        << bad;
  }
}

}  // namespace
}  // namespace lrb
