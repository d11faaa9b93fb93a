#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace specdag {
namespace {

// ---------------------------------------------------------------- stats ----

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_NEAR(stddev_of(v), std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean_of(empty), std::invalid_argument);
  EXPECT_THROW(summarize(empty), std::invalid_argument);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> sorted = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_THROW(quantile_sorted(sorted, 1.5), std::invalid_argument);
}

TEST(Stats, QuantileSingleElement) {
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.3), 42.0);
}

TEST(Stats, SummaryFiveNumbers) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_DOUBLE_EQ(s.mean, 51.0);
}

TEST(Stats, SummaryUnsortedInput) {
  const std::vector<double> v = {3.0, 1.0, 2.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

// ------------------------------------------------------------------ csv ----

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() / "specdag_csv_test.csv").string();

  void TearDown() override { std::remove(path_.c_str()); }

  std::string slurp() {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"round", "accuracy"});
    csv.row(std::vector<std::string>{"1", "0.5"});
    csv.row(std::vector<double>{2, 0.75});
  }
  EXPECT_EQ(slurp(), "round,accuracy\n1,0.5\n2,0.75\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"a"});
    csv.row(std::vector<std::string>{"va,l\"ue"});
  }
  EXPECT_EQ(slurp(), "a\n\"va,l\"\"ue\"\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), std::invalid_argument);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST(Csv, EscapeIdentityForPlainCells) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with space"), "with space");
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PassesIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for(10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  auto fut = pool.submit([&] { ran = true; });
  fut.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  // thread_pool.hpp: 0 = one worker per hardware thread, at least one.
  EXPECT_EQ(pool.size(), std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::atomic<int> counter{0};
  pool.parallel_for(5, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ThreadPool, RejectsWorkerCountAboveCapWithoutStartingThreads) {
  // The check runs before the first worker starts, so this test never asks
  // the system for more than the cap.
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(ThreadPool(std::numeric_limits<std::size_t>::max()), std::invalid_argument);
}

// ---------------------------------------------------------------- parse ----

TEST(ParseUint, AcceptsWholeDecimalTokensWithinRange) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("1024", 1024), 1024u);
}

TEST(ParseUint, RejectsMalformedAndOutOfRangeTokens) {
  // Each of these once parsed silently: "x" as 0, "-1" as 2^64 - 1, "4x"
  // as 4, and an overflowing value saturated to 2^64 - 1.
  for (const char* bad : {"", "x", "-1", "+1", " 1", "1 ", "4x", "1.5", "0x10", "1e3",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_uint(bad).has_value()) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_uint("1025", 1024).has_value());
  EXPECT_FALSE(parse_uint(std::to_string(ThreadPool::kMaxThreads + 1), ThreadPool::kMaxThreads)
                   .has_value());
}

// -------------------------------------------------------------- logging ----

TEST(Logging, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(before);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST(Logging, BelowThresholdIsCheap) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  // Should not crash or emit; mostly exercising the disabled path.
  SPECDAG_LOG(Debug) << "invisible " << 42;
  set_log_level(before);
}

// ---------------------------------------------------------------- timer ----

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace specdag
