#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace extscc {
namespace {

// ---------------- Status ------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  util::Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const util::Status status = util::Status::IoError("disk on fire");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  EXPECT_EQ(status.message(), "disk on fire");
  EXPECT_EQ(status.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 7; ++code) {
    EXPECT_STRNE(util::StatusCodeName(static_cast<util::StatusCode>(code)),
                 "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  util::Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  util::Result<int> result(util::Status::NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  util::Result<std::string> result(std::string(1000, 'x'));
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken.size(), 1000u);
}

// ---------------- Rng ---------------------------------------------------

TEST(RngTest, Deterministic) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformRespectsBound) {
  util::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  util::Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  util::Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.UniformRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  util::Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  util::Rng rng(9);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  util::Rng rng(10);
  std::uint64_t low_half = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    const auto v = rng.Zipf(1000, 0.8);
    ASSERT_LT(v, 1000u);
    if (v < 500) ++low_half;
  }
  // Heavy skew towards small ranks.
  EXPECT_GT(low_half, trials * 0.7);
}

TEST(RngTest, ShuffleIsAPermutation) {
  util::Rng rng(11);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto shuffled = items;
  rng.Shuffle(&shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(RngTest, ShuffleDeterministicPerSeed) {
  std::vector<int> a{1, 2, 3, 4, 5, 6, 7, 8};
  auto b = a;
  util::Rng rng_a(5), rng_b(5);
  rng_a.Shuffle(&a);
  rng_b.Shuffle(&b);
  EXPECT_EQ(a, b);
}

TEST(RngTest, ShuffleActuallyShuffles) {
  // 32 elements: identity survives with probability 1/32! — if this
  // fires, the shuffle is broken, not unlucky.
  std::vector<int> items(32);
  for (int i = 0; i < 32; ++i) items[i] = i;
  const auto original = items;
  util::Rng rng(3);
  rng.Shuffle(&items);
  EXPECT_NE(items, original);
}

TEST(RngTest, ShuffleHandlesDegenerateSizes) {
  util::Rng rng(4);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

// ---------------- Timer -------------------------------------------------

TEST(TimerTest, MonotoneAndRestartable) {
  util::Timer timer;
  const auto a = timer.ElapsedMicros();
  const auto b = timer.ElapsedMicros();
  EXPECT_GE(b, a);
  timer.Restart();
  EXPECT_GE(timer.ElapsedMicros(), 0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

// ---------------- Table / formatting -------------------------------------

TEST(TableTest, CsvRendering) {
  util::Table table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"x", "y"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\nx,y\n");
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, AlignedRenderingContainsCells) {
  util::Table table({"col", "another"});
  table.AddRow({"value", "4"});
  const std::string out = table.ToAligned();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, WriteCsvFile) {
  util::Table table({"h"});
  table.AddRow({"v"});
  const testing::ScopedTempPath path("table.csv");
  ASSERT_TRUE(table.WriteCsvFile(path.path()));
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(util::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(util::FormatDouble(2.0, 0), "2");
}

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(util::FormatCount(0), "0");
  EXPECT_EQ(util::FormatCount(999), "999");
  EXPECT_EQ(util::FormatCount(1000), "1,000");
  EXPECT_EQ(util::FormatCount(1234567), "1,234,567");
}

}  // namespace
}  // namespace extscc
