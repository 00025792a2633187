#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace eclat {
namespace {

Flags parse(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags flags = parse({"--name=value", "--count=42"});
  EXPECT_EQ(flags.get("name", ""), "value");
  EXPECT_EQ(flags.get_int("count", 0), 42);
}

TEST(Flags, SpaceSyntax) {
  const Flags flags = parse({"--name", "value"});
  EXPECT_EQ(flags.get("name", ""), "value");
}

TEST(Flags, BareFlagIsTrue) {
  const Flags flags = parse({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.has("verbose"));
  EXPECT_FALSE(flags.has("quiet"));
}

TEST(Flags, BoolFalseSpellings) {
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
}

TEST(Flags, Doubles) {
  const Flags flags = parse({"--support=0.001"});
  EXPECT_DOUBLE_EQ(flags.get_double("support", 1.0), 0.001);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 2.5), 2.5);
}

TEST(Flags, PositionalArguments) {
  const Flags flags = parse({"input.txt", "--out=x", "second"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(Flags, FallbacksWhenMissing) {
  const Flags flags = parse({});
  EXPECT_EQ(flags.get("a", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("b", -7), -7);
  EXPECT_FALSE(flags.get_bool("c", false));
}

TEST(Flags, FlagFollowedByFlagIsBoolean) {
  const Flags flags = parse({"--verbose", "--out=x"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get("out", ""), "x");
}

TEST(Flags, IntegersAreReadWhole) {
  EXPECT_EQ(parse({"--n=-7"}).get_int("n", 0), -7);
  EXPECT_EQ(parse({"--n=7"}).get_uint("n", 0), 7u);
  for (const std::string bad : {"+2", " 2", "2x", "", "0x10"}) {
    const Flags flags = parse({"--n=" + bad});
    EXPECT_THROW((void)flags.get_int("n", 0), std::invalid_argument) << bad;
    EXPECT_THROW((void)flags.get_uint("n", 0), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)parse({"--n=-1"}).get_uint("n", 0),
               std::invalid_argument);
}

TEST(Flags, UnsignedIntegersStayInTheirWidth) {
  // Past u64 the value is rejected, not clamped.
  const Flags huge = parse({"--n=99999999999999999999"});
  EXPECT_THROW((void)huge.get_uint("n", 0), std::invalid_argument);
  EXPECT_THROW((void)huge.get_int("n", 0), std::invalid_argument);
  // 2^32 is a u64 but no u32: it does not wrap to 0.
  const Flags wide = parse({"--n=4294967296"});
  EXPECT_EQ(wide.get_uint("n", 0), 4294967296u);
  EXPECT_THROW((void)wide.get_uint<std::uint32_t>("n", 2),
               std::invalid_argument);
  EXPECT_EQ(parse({"--n=4294967295"}).get_uint<std::uint32_t>("n", 2),
            UINT32_MAX);
  EXPECT_EQ(parse({}).get_uint<std::uint32_t>("n", 2), 2u);
}

TEST(Flags, ChoiceAcceptsListedValues) {
  constexpr std::string_view kKernels[] = {"merge", "gallop", "auto"};
  EXPECT_EQ(parse({"--kernel=gallop"}).get_choice("kernel", kKernels, "merge"),
            "gallop");
  EXPECT_EQ(parse({}).get_choice("kernel", kKernels, "merge"), "merge");
}

TEST(Flags, ChoiceRejectsUnknownValue) {
  constexpr std::string_view kKernels[] = {"merge", "gallop"};
  EXPECT_THROW(parse({"--kernel=simd"}).get_choice("kernel", kKernels,
                                                   "merge"),
               std::invalid_argument);
}

TEST(Clock, MonotonicWallClock) {
  const std::int64_t a = wall_ns();
  const std::int64_t b = wall_ns();
  EXPECT_GE(b, a);
}

TEST(Clock, ThreadCpuAdvancesUnderWork) {
  CpuStopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + 1.0;
  EXPECT_GT(watch.elapsed_ns(), 0);
}

TEST(Clock, WallStopwatchSeconds) {
  WallStopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
  EXPECT_LT(watch.elapsed_seconds(), 10.0);
}

}  // namespace
}  // namespace eclat
