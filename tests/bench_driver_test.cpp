// Coverage for the bench-driver skeleton (bench/driver.hpp): the flag table
// parses valid argv into its targets, rejects every malformed argument with
// the usage exit code 2, and finish() maps a finished report onto the
// drivers' exit codes (0 / 1 / 3 / 130).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "driver.hpp"

namespace icoil::bench {
namespace {

/// The declared targets of one test flag table.
struct Targets {
  int count = 5;
  double tol = 0.5;
  std::uint64_t seed = 1000;
  std::string path;
  std::vector<int> levels = {8};
  std::vector<double> densities = {1.0};
  bool quick = false;
  int difficulty = 1;
  std::string suite;
  int listed = 0;
};

Flags make_flags(Targets* t) {
  Flags flags("driver_test", "[a|b] [options]");
  flags.positional(&t->suite, {"a", "b"})
      .value("--count", &t->count, "N", "exclusive lower bound 0", above(0))
      .value("--tol", &t->tol, "X", "inclusive lower bound 0", at_least(0))
      .value("--seed", &t->seed, "S", "unsigned 64-bit")
      .value("--path", &t->path, "PATH", "any string")
      .list("--levels", &t->levels, "N[,N...]", "ints >= 1", at_least(1))
      .list("--densities", &t->densities, "LIST", "doubles > 0", above(0))
      .flag("--quick", &t->quick, "a switch")
      .choice("--difficulty", &t->difficulty, "a choice",
              {{"easy", 0}, {"normal", 1}, {"hard", 2}})
      .action("--list", "an action", [t] { ++t->listed; });
  return flags;
}

int parse(Targets* t, std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("driver_test")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return make_flags(t).parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchDriverFlagsTest, ValidArgumentsReachTheirTargets) {
  Targets t;
  EXPECT_EQ(parse(&t, {"b", "--count", "3", "--tol", "0", "--seed",
                       "18446744073709551615", "--path", "out.json",
                       "--levels", "10,1,4", "--densities", "0.5,2",
                       "--quick", "--difficulty", "hard"}),
            Flags::kRun);
  EXPECT_EQ(t.suite, "b");
  EXPECT_EQ(t.count, 3);
  EXPECT_EQ(t.tol, 0.0);
  EXPECT_EQ(t.seed, 18446744073709551615ull);
  EXPECT_EQ(t.path, "out.json");
  EXPECT_EQ(t.levels, (std::vector<int>{10, 1, 4}));
  EXPECT_EQ(t.densities, (std::vector<double>{0.5, 2.0}));
  EXPECT_TRUE(t.quick);
  EXPECT_EQ(t.difficulty, 2);

  // No arguments leave every default in place.
  Targets defaults;
  EXPECT_EQ(parse(&defaults, {}), Flags::kRun);
  EXPECT_EQ(defaults.count, 5);
  EXPECT_EQ(defaults.levels, (std::vector<int>{8}));
  EXPECT_TRUE(defaults.suite.empty());
}

TEST(BenchDriverFlagsTest, ActionRunsAndExitsZero) {
  Targets t;
  EXPECT_EQ(parse(&t, {"--list", "--count", "0"}), 0);
  EXPECT_EQ(t.listed, 1);
}

TEST(BenchDriverFlagsTest, UnknownFlagExitsTwo) {
  Targets t;
  EXPECT_EQ(parse(&t, {"--bogus"}), 2);
  EXPECT_EQ(parse(&t, {"c"}), 2);       // not one of the positional words
  EXPECT_EQ(parse(&t, {"a", "b"}), 2);  // positional given twice
}

TEST(BenchDriverFlagsTest, MissingValueExitsTwo) {
  for (const char* flag : {"--count", "--tol", "--seed", "--path", "--levels",
                           "--densities", "--difficulty"}) {
    Targets t;
    EXPECT_EQ(parse(&t, {flag}), 2) << flag;
  }
}

TEST(BenchDriverFlagsTest, ValueAtOrPastALowerBoundExitsTwo) {
  Targets t;
  EXPECT_EQ(parse(&t, {"--count", "0"}), 2);    // exclusive bound itself
  EXPECT_EQ(parse(&t, {"--count", "-4"}), 2);
  EXPECT_EQ(parse(&t, {"--tol", "-0.01"}), 2);  // past an inclusive bound
  EXPECT_EQ(parse(&t, {"--levels", "0"}), 2);
  EXPECT_EQ(parse(&t, {"--densities", "2,0"}), 2);
  EXPECT_EQ(t.count, 5);  // a rejected value never lands
  EXPECT_EQ(parse(&t, {"--count", "2x"}), 2);
  EXPECT_EQ(parse(&t, {"--tol", "nan"}), 2);
  EXPECT_EQ(parse(&t, {"--difficulty", "medium"}), 2);
}

TEST(BenchDriverFlagsTest, EmptyOrMalformedListItemExitsTwo) {
  for (const char* bad : {"", ",", "1,,4", "1,", ",1", "1,x", "1.5", "1 ,2"}) {
    Targets t;
    EXPECT_EQ(parse(&t, {"--levels", bad}), 2) << "\"" << bad << "\"";
    EXPECT_EQ(t.levels, (std::vector<int>{8})) << bad;
  }
  Targets t;
  EXPECT_EQ(parse(&t, {"--densities", "1,,4"}), 2);
  EXPECT_EQ(parse(&t, {"--densities", "inf"}), 2);
}

TEST(BenchDriverFlagsTest, SignedOrMalformedU64ExitsTwo) {
  for (const char* bad : {"-1", "+5", "-0", " 5", "5 ", "12x", "0x10", "",
                          "18446744073709551616"}) {
    Targets t;
    EXPECT_EQ(parse(&t, {"--seed", bad}), 2) << "\"" << bad << "\"";
    EXPECT_EQ(t.seed, 1000u) << bad;
  }
}

TEST(BenchDriverFlagsTest, UsageListsEveryDeclaredFlag) {
  Targets t;
  const std::string usage = make_flags(&t).usage();
  EXPECT_EQ(usage.rfind("usage: driver_test [a|b] [options]\n", 0), 0u);
  for (const char* line :
       {"--count N", "--tol X", "--seed S", "--path PATH", "--levels N[,N...]",
        "--densities LIST", "--quick", "--difficulty easy|normal|hard",
        "--list", "an action"})
    EXPECT_NE(usage.find(line), std::string::npos) << line;
}

// ------------------------------------------------------------------ finish

class BenchDriverFinishTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::create_directories(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string file(const char* name) const { return (dir_ / name).string(); }

  /// A one-cell report whose success ratio is `ratio`.
  static sim::RunReport report(double ratio) {
    sim::RunReport r;
    sim::CellRecord cell;
    cell.label = "cell";
    cell.method = "m";
    cell.episodes = 2;
    cell.success_ratio = ratio;
    r.cells.push_back(cell);
    return r;
  }

  std::filesystem::path dir_ =
      std::filesystem::temp_directory_path() /
      (std::string("icoil_driver_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
};

TEST_F(BenchDriverFinishTest, ExitCodes) {
  ReportOptions options;
  EXPECT_EQ(finish("t", report(1.0), options), 0);
  EXPECT_EQ(finish("t", report(1.0), options, /*gates_ok=*/false), 1);

  // An unwritable report path is an I/O error.
  options.path = file("missing_dir/report.json");
  EXPECT_EQ(finish("t", report(1.0), options), 3);

  // The report is written, then the baseline gates it.
  options.path = file("report.json");
  options.baseline_path = file("baseline.json");
  EXPECT_EQ(finish("t", report(1.0), options), 3);  // no baseline yet
  ASSERT_TRUE(report(1.0).save(options.baseline_path));
  EXPECT_EQ(finish("t", report(1.0), options), 0);
  EXPECT_EQ(finish("t", report(0.5), options), 1);  // regression
  EXPECT_EQ(finish("t", report(1.0), options, false), 1);
  sim::RunReport written;
  ASSERT_TRUE(sim::RunReport::load(options.path, &written));
  EXPECT_EQ(written.cells.at(0).success_ratio, 1.0);
}

TEST_F(BenchDriverFinishTest, AbortedRunWritesPartialReportAndExits130) {
  ReportOptions options;
  options.path = file("partial.json");
  options.baseline_path = file("absent_baseline.json");  // never read
  sim::RunReport partial = report(0.0);
  partial.meta.aborted = true;
  EXPECT_EQ(finish("t", partial, options), 130);
  sim::RunReport written;
  ASSERT_TRUE(sim::RunReport::load(options.path, &written));
  EXPECT_TRUE(written.meta.aborted);
}

}  // namespace
}  // namespace icoil::bench
