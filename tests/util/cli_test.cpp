#include "mel/util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mel::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesSpaceSeparatedValues) {
  const auto cli = make({"prog", "--scale", "16", "--name", "rgg"});
  EXPECT_EQ(cli.get_int("scale", 0), 16);
  EXPECT_EQ(cli.get("name", ""), "rgg");
}

TEST(Cli, ParsesEqualsValues) {
  const auto cli = make({"prog", "--scale=18", "--ratio=0.5"});
  EXPECT_EQ(cli.get_int("scale", 0), 18);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
}

TEST(Cli, BooleanFlags) {
  const auto cli = make({"prog", "--verbose", "--csv=false"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("csv", true));
  EXPECT_TRUE(cli.get_bool("absent", true));
  EXPECT_FALSE(cli.get_bool("absent", false));
}

TEST(Cli, Fallbacks) {
  const auto cli = make({"prog"});
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, Positional) {
  const auto cli = make({"prog", "input.graph", "--p", "8", "out.csv"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.graph");
  EXPECT_EQ(cli.positional()[1], "out.csv");
}

TEST(Cli, ParseIntList) {
  const auto cli = make({"prog", "--ranks", "1,2,3", "--p", "64"});
  EXPECT_EQ(cli.get_int_list("ranks", ""),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(cli.get_int_list("p", ""), (std::vector<std::int64_t>{64}));
  EXPECT_TRUE(cli.get_int_list("absent", "").empty());
}

/// The message of the std::invalid_argument `read` throws, or "" if none.
template <class Read>
std::string rejection(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Each value used to be read up to its first bad character, so a typo ran
// a different configuration instead of failing.
TEST(Cli, RejectsMalformedNumbers) {
  const auto cli = make({"prog", "--fault-loss", "0,05", "--edges", "1e4",
                         "--verts", "abc", "--ranks=", "--seed", "7 ",
                         "--big", "99999999999999999999", "--jitter", "nan"});
  EXPECT_EQ(rejection([&] { cli.get_double("fault-loss", 0.0); }),
            "--fault-loss: expected a number, got \"0,05\"");
  EXPECT_EQ(rejection([&] { cli.get_int("edges", 0); }),
            "--edges: expected an integer, got \"1e4\"");
  EXPECT_NE(rejection([&] { cli.get_int("verts", 0); }), "");
  EXPECT_NE(rejection([&] { cli.get_int("ranks", 64); }), "");
  EXPECT_NE(rejection([&] { cli.get_double("ranks", 1.0); }), "");
  EXPECT_NE(rejection([&] { cli.get_int("seed", 1); }), "");
  EXPECT_NE(rejection([&] { cli.get_int("big", 0); }), "");
  EXPECT_NE(rejection([&] { cli.get_double("jitter", 0.0); }), "");
  // 1e4 is a number, just not an integer.
  EXPECT_DOUBLE_EQ(cli.get_double("edges", 0.0), 1e4);
}

TEST(Cli, RejectsMalformedIntLists) {
  const auto cli = make({"prog", "--ranks", "16,x", "--trailing", "16,",
                         "--empty="});
  EXPECT_EQ(rejection([&] { cli.get_int_list("ranks", "1"); }),
            "--ranks: expected a comma-separated list of integers, got "
            "\"16,x\"");
  EXPECT_NE(rejection([&] { cli.get_int_list("trailing", "1"); }), "");
  EXPECT_NE(rejection([&] { cli.get_int_list("empty", "1"); }), "");
}

TEST(Cli, ParsesWholeNumbers) {
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_FALSE(parse_int(""));
  EXPECT_FALSE(parse_int("12abc"));
  EXPECT_DOUBLE_EQ(parse_double("0.05").value(), 0.05);
  EXPECT_DOUBLE_EQ(parse_double("-2").value(), -2.0);
  EXPECT_FALSE(parse_double("inf"));
  EXPECT_FALSE(parse_double("0.5x"));
}

}  // namespace
}  // namespace mel::util
