#include <gtest/gtest.h>

#include "util/args.hpp"

namespace ckv {
namespace {

ArgParser make_parser() {
  ArgParser args("test tool");
  args.add_option("budget", "512", "kv budget");
  args.add_option("rate", "0.5", "a rate");
  args.add_option("name", "clusterkv", "method name");
  args.add_switch("csv", "csv output");
  return args;
}

TEST(ArgParser, DefaultsApply) {
  auto args = make_parser();
  const char* argv[] = {"tool"};
  args.parse(1, argv);
  EXPECT_EQ(args.get_index("budget"), 512);
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.5);
  EXPECT_EQ(args.get_string("name"), "clusterkv");
  EXPECT_FALSE(args.get_switch("csv"));
}

TEST(ArgParser, ParsesValuesAndSwitches) {
  auto args = make_parser();
  const char* argv[] = {"tool", "--budget", "2048", "--csv", "--name", "quest"};
  args.parse(6, argv);
  EXPECT_EQ(args.get_index("budget"), 2048);
  EXPECT_TRUE(args.get_switch("csv"));
  EXPECT_EQ(args.get_string("name"), "quest");
}

TEST(ArgParser, CollectsPositionals) {
  auto args = make_parser();
  const char* argv[] = {"tool", "sub", "--budget", "64", "extra"};
  args.parse(5, argv);
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "sub");
  EXPECT_EQ(args.positionals()[1], "extra");
}

TEST(ArgParser, UnknownFlagRejected) {
  auto args = make_parser();
  const char* argv[] = {"tool", "--bogus", "1"};
  EXPECT_THROW(args.parse(3, argv), std::invalid_argument);
}

TEST(ArgParser, MissingValueRejected) {
  auto args = make_parser();
  const char* argv[] = {"tool", "--budget"};
  EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, TypeErrorsRejected) {
  auto args = make_parser();
  const char* argv[] = {"tool", "--budget", "abc", "--rate", "x.y"};
  args.parse(5, argv);
  EXPECT_THROW((void)args.get_index("budget"), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("rate"), std::invalid_argument);

  // stod reads these, but no flag means them; a range check alone would
  // let NaN through, since every comparison with it is false.
  for (const char* text : {"nan", "inf", "-inf"}) {
    auto non_finite = make_parser();
    const char* argv_nf[] = {"tool", "--rate", text};
    non_finite.parse(3, argv_nf);
    EXPECT_THROW((void)non_finite.get_double("rate"), std::invalid_argument) << text;
    EXPECT_THROW((void)non_finite.get_double_in("rate", -1.0, 1.0),
                 std::invalid_argument)
        << text;
  }
}

TEST(ArgParser, DuplicateRegistrationRejected) {
  auto args = make_parser();
  EXPECT_THROW(args.add_option("budget", "1", "dup"), std::invalid_argument);
  EXPECT_THROW(args.add_switch("csv", "dup"), std::invalid_argument);
}

TEST(ArgParser, UnregisteredAccessRejected) {
  auto args = make_parser();
  EXPECT_THROW((void)args.get_string("nope"), std::invalid_argument);
  EXPECT_THROW((void)args.get_switch("nope"), std::invalid_argument);
}

TEST(ArgParser, HelpMentionsEveryOption) {
  const auto args = make_parser();
  const auto text = args.help();
  EXPECT_NE(text.find("--budget"), std::string::npos);
  EXPECT_NE(text.find("--csv"), std::string::npos);
  EXPECT_NE(text.find("kv budget"), std::string::npos);
}

}  // namespace
}  // namespace ckv
