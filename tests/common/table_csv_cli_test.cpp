#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/expect.hpp"
#include "common/scratch_dir.hpp"
#include "common/table.hpp"

namespace chronosync {
namespace {

TEST(AsciiTable, RendersHeaderAndRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"latency", "4.29"});
  const std::string s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("latency"), std::string::npos);
  EXPECT_NE(s.find("4.29"), std::string::npos);
}

TEST(AsciiTable, RejectsWidthMismatch) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiTable, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(4.288, 2), "4.29");
  EXPECT_EQ(AsciiTable::sci(0.00098, 2), "9.80e-04");
}

TEST(ScratchDir, UniquePerInstanceAndRemovedWithContents) {
  std::string first;
  {
    const ScratchDir a(testing::TempDir());
    const ScratchDir b(testing::TempDir());
    first = a.path();
    EXPECT_NE(a.path(), b.path());
    EXPECT_TRUE(std::filesystem::is_directory(a.path()));
    std::ofstream(a.file("spill.bin")) << "x";
    EXPECT_TRUE(std::filesystem::exists(a.file("spill.bin")));
  }
  EXPECT_FALSE(std::filesystem::exists(first));
}

TEST(ScratchDir, MissingParentThrows) {
  EXPECT_THROW(ScratchDir("/nonexistent-parent-dir/sub"), std::system_error);
}

TEST(CsvWriter, WritesRows) {
  const std::string path = testing::TempDir() + "/cs_test.csv";
  {
    CsvWriter w(path, {"t", "dev"});
    w.add_row({1.0, 2.5});
    w.add_row(std::vector<std::string>{"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,dev");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatch) {
  const std::string path = testing::TempDir() + "/cs_test2.csv";
  CsvWriter w(path, {"a"});
  EXPECT_THROW(w.add_row({1.0, 2.0}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--seed", "7", "--runtime=300", "input.txt", "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_EQ(cli.get_int("runtime", 0), 300);
  EXPECT_TRUE(cli.has("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(Cli, OptionConsumesFollowingValue) {
  // `--flag token` treats the token as the flag's value; a bare token is
  // positional only when not preceded by a valueless option.
  const char* argv[] = {"prog", "--verbose", "input.txt"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get("verbose", ""), "input.txt");
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cli.get_seed(42), 42u);
}

// Regression: a tool used to ignore any option it did not know, so a
// misspelled or retired flag looked as if it took effect.
TEST(Cli, UnknownOptionsAreNamed) {
  const char* argv[] = {"prog", "--seed", "7", "--emit-batch=3", "in.v2", "--strict", "--zz"};
  Cli cli(7, argv);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(cli.reject_unknown("prog", {"seed", "strict"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "prog: unknown option --emit-batch --zz\n");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(cli.reject_unknown("prog", {"seed", "strict", "emit-batch", "zz"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Cli, SeedOption) {
  const char* argv[] = {"prog", "--seed=99"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_seed(), 99u);
}

// Regression: get_int used to atoll() the value, so "--reps=abc" silently
// became 0 and "--reps=10x" became 10.  Both must be rejected now.
TEST(Cli, GetIntRejectsNonNumeric) {
  const char* argv[] = {"prog", "--reps=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("reps", 1), std::invalid_argument);
}

TEST(Cli, GetIntRejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--reps=10x"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("reps", 1), std::invalid_argument);
}

TEST(Cli, GetDoubleRejectsNonNumeric) {
  const char* argv[] = {"prog", "--gap=fast", "--tol=1.5e"};
  Cli cli(3, argv);
  EXPECT_THROW(cli.get_double("gap", 1.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("tol", 1.0), std::invalid_argument);
}

TEST(Cli, GetIntRejectsEmptyValue) {
  const char* argv[] = {"prog", "--reps="};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("reps", 1), std::invalid_argument);
}

TEST(Cli, NegativeValuesParse) {
  // "--offset -3" (separate token) and "--offset=-3" must both yield -3,
  // not treat the value as a stray positional.
  const char* argv[] = {"prog", "--offset", "-3", "--scale=-2.5"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("offset", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0.0), -2.5);
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, GetIntRejectsOutOfRange) {
  const char* argv[] = {"prog", "--big=99999999999999999999999"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("big", 0), std::invalid_argument);
}

TEST(Cli, GetIntListParsesCommaSeparatedSweeps) {
  const char* argv[] = {"prog", "--ranks=8,64,256", "--events", "100000"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int_list("ranks", {}), (std::vector<std::int64_t>{8, 64, 256}));
  // A single integer is a one-element sweep; an absent option yields the
  // fallback untouched.
  EXPECT_EQ(cli.get_int_list("events", {}), (std::vector<std::int64_t>{100000}));
  EXPECT_EQ(cli.get_int_list("threads", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(Cli, GetIntListRejectsMalformedElements) {
  const char* argv[] = {"prog", "--a=1,x,3", "--b=1,,3", "--c=1,2,"};
  Cli cli(4, argv);
  EXPECT_THROW(cli.get_int_list("a", {}), std::invalid_argument);
  EXPECT_THROW(cli.get_int_list("b", {}), std::invalid_argument);
  EXPECT_THROW(cli.get_int_list("c", {}), std::invalid_argument);
}

TEST(Cli, GetIntListRejectsEmptyValueAndLoneComma) {
  // `--a=` and `--b=,` both decay to empty elements, never to an empty list:
  // a present-but-valueless sweep option is a user error, not "use defaults".
  const char* argv[] = {"prog", "--a=", "--b=,"};
  Cli cli(3, argv);
  EXPECT_THROW(cli.get_int_list("a", {1}), std::invalid_argument);
  EXPECT_THROW(cli.get_int_list("b", {1}), std::invalid_argument);
}

TEST(Cli, GetIntListKeepsDuplicatesAndOrder) {
  // Duplicates are legitimate sweep points (repeat a config to measure
  // variance); the parser must not dedupe or sort.
  const char* argv[] = {"prog", "--ranks=8,8,4,8"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_int_list("ranks", {}), (std::vector<std::int64_t>{8, 8, 4, 8}));
}

TEST(Cli, GetIntListParsesNegativeAndInt64Extremes) {
  const char* argv[] = {"prog",
                        "--a=-3,0,5",
                        "--b=9223372036854775807,-9223372036854775808"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int_list("a", {}), (std::vector<std::int64_t>{-3, 0, 5}));
  EXPECT_EQ(cli.get_int_list("b", {}),
            (std::vector<std::int64_t>{INT64_MAX, INT64_MIN}));
}

TEST(Cli, GetIntListRejectsOverflowingElements) {
  // One element past INT64_MAX/MIN must fail the whole list loudly, not
  // saturate silently.
  const char* argv[] = {"prog", "--a=1,9223372036854775808",
                        "--b=-9223372036854775809"};
  Cli cli(3, argv);
  EXPECT_THROW(cli.get_int_list("a", {}), std::invalid_argument);
  EXPECT_THROW(cli.get_int_list("b", {}), std::invalid_argument);
}

TEST(Cli, GetIntListRejectsLeadingCommaToleratesSpaceAfterComma) {
  const char* argv[] = {"prog", "--a=,1,2", "--b=1, 2", "--c=1,2 "};
  Cli cli(4, argv);
  EXPECT_THROW(cli.get_int_list("a", {}), std::invalid_argument);
  // strtoll skips leading whitespace, so a space after the comma is accepted
  // (shell-quoted "1, 2" works); trailing junk after the digits is not.
  EXPECT_EQ(cli.get_int_list("b", {}), (std::vector<std::int64_t>{1, 2}));
  EXPECT_THROW(cli.get_int_list("c", {}), std::invalid_argument);
}

TEST(Expect, RequireThrowsInvalidArgument) {
  EXPECT_THROW(CS_REQUIRE(false, "msg"), std::invalid_argument);
  EXPECT_NO_THROW(CS_REQUIRE(true, "msg"));
}

TEST(Expect, EnsureThrowsLogicError) {
  EXPECT_THROW(CS_ENSURE(false, "msg"), std::logic_error);
}

}  // namespace
}  // namespace chronosync
