#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/types.hpp"

namespace gaia::util {
namespace {

Cli make_cli() {
  Cli cli("prog", "test program");
  cli.add_option("size", "10GB", "problem size");
  cli.add_option("iterations", "100", "iteration count");
  cli.add_option("factor", "1.5", "scale factor");
  cli.add_flag("verbose", "chatty output");
  return cli;
}

TEST(Cli, DefaultsApplyWithoutArguments) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get("size"), "10GB");
  EXPECT_EQ(cli.get_int("iterations"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("factor"), 1.5);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, ParsesSeparateAndInlineValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--size", "30GB", "--iterations=50",
                        "--verbose"};
  EXPECT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get("size"), "30GB");
  EXPECT_EQ(cli.get_int("iterations"), 50);
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, GetSizeParsesHumanUnits) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--size", "2MB"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_size("size"), 2 * kMiB);
}

TEST(Cli, UnknownOptionThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, MissingValueThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--size"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(Cli, FlagWithValueThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose=true"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(Cli, NonNumericIntThrows) {
  // A value counts only when it parses whole: "1e3" must not run 1
  // iteration, nor "10x" run 10.
  for (const char* value : {"many", "1e3", "10x", "2.5"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--iterations", value};
    EXPECT_TRUE(cli.parse(3, argv));
    EXPECT_THROW((void)cli.get_int("iterations"), Error) << value;
  }
  for (const char* value : {"1.5x", "x"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--factor", value};
    EXPECT_TRUE(cli.parse(3, argv));
    EXPECT_THROW((void)cli.get_double("factor"), Error) << value;
  }
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--factor", "1e3"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("factor"), 1000.0);
}

TEST(Cli, HelpReturnsFalseAndListsOptions) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(cli.parse(2, argv));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--size"), std::string::npos);
  EXPECT_NE(out.find("--verbose"), std::string::npos);
}

TEST(Cli, DuplicateDeclarationThrows) {
  Cli cli("p", "d");
  cli.add_option("x", "1", "h");
  EXPECT_THROW(cli.add_option("x", "2", "h"), Error);
  EXPECT_THROW(cli.add_flag("x", "h"), Error);
}

TEST(Cli, UndeclaredGetThrows) {
  Cli cli("p", "d");
  EXPECT_THROW(cli.get("nope"), Error);
}

}  // namespace
}  // namespace gaia::util
