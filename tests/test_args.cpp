// Flag-parser tests for the commscope CLI.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "support/args.hpp"

namespace cs = commscope::support;

TEST(ArgParser, PositionalAndFlagsInterleave) {
  const cs::ArgParser args({"run", "--threads=4", "fft", "--scale", "large"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "fft");
  EXPECT_EQ(args.get("threads"), "4");
  EXPECT_EQ(args.get("scale"), "large");
}

TEST(ArgParser, EqualsAndSpaceFormsEquivalent) {
  const cs::ArgParser a({"--slots=1024"});
  const cs::ArgParser b({"--slots", "1024"});
  EXPECT_EQ(a.get_int("slots", 0), 1024);
  EXPECT_EQ(b.get_int("slots", 0), 1024);
}

TEST(ArgParser, BareBooleanFlag) {
  const cs::ArgParser args({"--classify", "--sparse", "run"},
                           {"classify", "sparse"});
  EXPECT_TRUE(args.has("classify"));
  EXPECT_TRUE(args.has("sparse"));
  EXPECT_EQ(args.get("classify"), "");
  // Declared booleans never consume the following token.
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "run");
}

TEST(ArgParser, UndeclaredFlagConsumesValueToken) {
  const cs::ArgParser args({"--sparse", "run"});
  EXPECT_EQ(args.get("sparse"), "run");  // documented space-form greediness
  EXPECT_TRUE(args.positional().empty());
}

TEST(ArgParser, MissingFlagsFallBack) {
  const cs::ArgParser args({"run"});
  EXPECT_FALSE(args.has("threads"));
  EXPECT_EQ(args.get("threads", "8"), "8");
  EXPECT_EQ(args.get_int("threads", 8), 8);
  EXPECT_DOUBLE_EQ(args.get_double("fp-rate", 0.001), 0.001);
}

TEST(ArgParser, NumericParsingRejectsGarbage) {
  const cs::ArgParser args({"--slots=banana", "--fp-rate=0.5x"});
  EXPECT_EQ(args.get_int("slots", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("fp-rate", 0.25), 0.25);
}

TEST(ArgParser, NegativeAndFloatValues) {
  const cs::ArgParser args({"--offset=-12", "--rate=0.001"});
  EXPECT_EQ(args.get_int("offset", 0), -12);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.001);
}

TEST(ArgParser, IntAsRejectsValuesTheTargetCannotHold) {
  const cs::ArgParser args({"--threads=4294967300", "--batch=-1",
                            "--ring=4294967295", "--depth=-12", "--n=abc"});
  EXPECT_THROW((void)args.get_int_as<int>("threads", 8), std::invalid_argument);
  EXPECT_THROW((void)args.get_int_as<std::uint32_t>("batch", 0),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int_as<std::uint64_t>("batch", 0),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int_as<std::int32_t>("ring", 0),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int_as<int>("n", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int_as<std::uint32_t>("ring", 0), 4294967295u);
  EXPECT_EQ(args.get_int_as<int>("depth", 0), -12);
  EXPECT_EQ(args.get_int_as<std::uint64_t>("threads", 0), 4294967300u);
  EXPECT_EQ(args.get_int_as<std::uint32_t>("absent", 7), 7u);
  try {
    (void)args.get_int_as<std::uint32_t>("batch", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--batch: expected an integer in [0, 4294967295], got '-1'");
  }
}

TEST(ArgParser, UnknownFlagDetection) {
  const cs::ArgParser args({"--threads=4", "--bogus=1"});
  const auto unknown = args.unknown_flags({"threads"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bogus");
  EXPECT_TRUE(args.unknown_flags({"threads", "bogus"}).empty());
}

TEST(ArgParser, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"commscope", "list", "--threads=2"};
  const cs::ArgParser args(3, argv);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "list");
  EXPECT_EQ(args.get_int("threads", 0), 2);
}

TEST(ArgParser, LastOccurrenceWins) {
  const cs::ArgParser args({"--threads=2", "--threads=16"});
  EXPECT_EQ(args.get_int("threads", 0), 16);
}
