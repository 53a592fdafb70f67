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
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--iterations", "many"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_THROW((void)cli.get_int("iterations"), Error);
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

// get_or_env precedence contract (--precision/GAIA_PRECISION): flag >
// env > default, and `source` names where the value actually came from
// so a validation error can point at the true origin of a bad token.
TEST(Cli, GetOrEnvFlagWinsOverEnvironment) {
  Cli cli("p", "d");
  cli.add_option("precision", "fp64", "h");
  ::setenv("GAIA_TEST_PRECISION", "bf16s", 1);
  const char* argv[] = {"prog", "--precision", "fp32"};
  EXPECT_TRUE(cli.parse(3, argv));
  std::string source;
  EXPECT_EQ(cli.get_or_env("precision", "GAIA_TEST_PRECISION", &source),
            "fp32");
  EXPECT_EQ(source, "--precision");
  ::unsetenv("GAIA_TEST_PRECISION");
}

TEST(Cli, GetOrEnvEnvironmentWinsOverDefault) {
  Cli cli("p", "d");
  cli.add_option("precision", "fp64", "h");
  ::setenv("GAIA_TEST_PRECISION", "bf16s", 1);
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  std::string source;
  EXPECT_EQ(cli.get_or_env("precision", "GAIA_TEST_PRECISION", &source),
            "bf16s");
  EXPECT_EQ(source, "GAIA_TEST_PRECISION");
  ::unsetenv("GAIA_TEST_PRECISION");
}

TEST(Cli, GetOrEnvEmptyEnvironmentFallsThroughToDefault) {
  Cli cli("p", "d");
  cli.add_option("precision", "fp64", "h");
  ::setenv("GAIA_TEST_PRECISION", "", 1);
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  std::string source;
  EXPECT_EQ(cli.get_or_env("precision", "GAIA_TEST_PRECISION", &source),
            "fp64");
  EXPECT_EQ(source, "default");
  ::unsetenv("GAIA_TEST_PRECISION");
}

}  // namespace
}  // namespace gaia::util
