// Tests for the CLI flag parser and the logging facility.
#include <gtest/gtest.h>

#include "common/args.h"
#include "common/log.h"

namespace sword {
namespace {

ArgParser Parse(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, PositionalAndFlags) {
  ArgParser args = Parse({"input.dir", "--threads", "8", "--json"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.dir");
  EXPECT_EQ(args.GetInt("threads", 1), 8);
  EXPECT_TRUE(args.GetBool("json"));
  EXPECT_FALSE(args.GetBool("stats"));
}

TEST(Args, EqualsSyntax) {
  ArgParser args = Parse({"--engine=ilp", "--size=1024"});
  EXPECT_EQ(args.GetString("engine"), "ilp");
  EXPECT_EQ(args.GetInt("size", 0), 1024);
}

TEST(Args, BareFlagBeforeFlagIsBoolean) {
  // "--json --stats": --json must not swallow "--stats" as its value.
  ArgParser args = Parse({"--json", "--stats"});
  EXPECT_TRUE(args.GetBool("json"));
  EXPECT_TRUE(args.GetBool("stats"));
}

TEST(Args, DefaultsWhenAbsent) {
  ArgParser args = Parse({});
  EXPECT_EQ(args.GetString("name", "fallback"), "fallback");
  EXPECT_EQ(args.GetInt("n", -3), -3);
  EXPECT_TRUE(args.GetBool("on", true));
}

TEST(Args, UnknownFlagDetection) {
  ArgParser args = Parse({"--known", "1", "--typo", "2"});
  (void)args.GetInt("known", 0);
  const auto unknown = args.UnknownFlags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(Args, IntegersAreWholeAndInRange) {
  ArgParser args = Parse({"--a", "abc", "--b", "5x", "--c", "12", "--d", "99",
                          "--e", "-3", "--f"});
  EXPECT_EQ(args.GetInt("a", 7), 7);  // not a number: the default, plus an error
  EXPECT_EQ(args.GetInt("b", 7), 7);  // a parsable prefix is not a number
  EXPECT_EQ(args.GetInt("c", 7, 0, 20), 12);
  EXPECT_EQ(args.GetInt("d", 7, 0, 20), 7);  // out of range
  EXPECT_EQ(args.GetInt("e", 7), -3);
  EXPECT_EQ(args.GetInt("f", 7), 7);  // bare flag: no value
  EXPECT_EQ(args.GetInt("absent", 7, 0, 5), 7);  // absent is not an error
  const auto& errors = args.errors();
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_NE(errors[0].find("--a must be an integer in ["), std::string::npos);
  EXPECT_NE(errors[1].find("got '5x'"), std::string::npos);
  EXPECT_NE(errors[2].find("--d must be an integer in [0, 20], got '99'"),
            std::string::npos);
  EXPECT_NE(errors[3].find("--f must be an integer"), std::string::npos);
  EXPECT_TRUE(args.UnknownFlags().empty());
}

TEST(Args, BoolValueForms) {
  ArgParser args = Parse({"--a=true", "--b=1", "--c=false"});
  EXPECT_TRUE(args.GetBool("a"));
  EXPECT_TRUE(args.GetBool("b"));
  EXPECT_FALSE(args.GetBool("c"));
}

TEST(Log, LevelsGate) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must compile and be cheap no-ops below the level.
  SWORD_DEBUG() << "invisible " << 42;
  SWORD_INFO() << "invisible";
  SetLogLevel(LogLevel::kOff);
  SWORD_ERROR() << "also invisible";
  SetLogLevel(original);
}

}  // namespace
}  // namespace sword
