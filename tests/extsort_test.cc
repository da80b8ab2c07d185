#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "extsort/external_sorter.h"
#include "graph/graph_types.h"
#include "io/record_stream.h"
#include "test_util.h"
#include "util/random.h"

namespace extscc {
namespace {

using testing::MakeMemTestContext;
using testing::MakeTestContext;

struct U64Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

std::vector<std::uint64_t> RandomValues(std::size_t n, std::uint64_t seed,
                                        std::uint64_t bound) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.Uniform(bound);
  return out;
}

TEST(ExternalSortTest, MatchesStdSortSingleRun) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/1 << 20);
  auto values = RandomValues(1000, 42, 1 << 30);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  EXPECT_EQ(info.num_records, 1000u);
  EXPECT_EQ(info.num_runs, 1u);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
}

TEST(ExternalSortTest, MatchesStdSortManyRuns) {
  // Budget of 16 KB over 8-byte records -> 2K-record runs; 100K records
  // force a multi-run merge (and, with 4K blocks, a modest fan-in).
  // The suite's designated Posix round trip: the rest of the suite runs
  // on MemDevice scratch.
  auto ctx = MakeTestContext(/*memory_bytes=*/16 << 10);
  auto values = RandomValues(100'000, 7, 1u << 31);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  EXPECT_GT(info.num_runs, 1u);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
}

TEST(ExternalSortTest, TinyBudgetMultiPassMerge) {
  // M = 2 blocks of 4K: binary merges, multiple passes.
  auto ctx = MakeMemTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/4096);
  auto values = RandomValues(50'000, 11, 1000);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  EXPECT_GT(info.merge_passes, 1u) << "tiny budget must force multiple passes";
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
}

TEST(ExternalSortTest, EmptyInput) {
  auto ctx = MakeMemTestContext();
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords<std::uint64_t>(ctx.get(), in, {});
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  EXPECT_EQ(info.num_records, 0u);
  EXPECT_TRUE(io::ReadAllRecords<std::uint64_t>(ctx.get(), out).empty());
}

TEST(ExternalSortTest, TornInputIsCorruptionNotAbort) {
  // 3 u32s = 12 bytes: not a whole number of u64 records. The sort sizes
  // its run buffer from the input reader, which reports kCorruption and
  // reads nothing, so the sort returns that status (no CHECK-abort) and
  // its sink receives nothing.
  auto ctx = MakeMemTestContext();
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords<std::uint32_t>(ctx.get(), in, {3, 1, 2});
  std::size_t received = 0;
  auto sink = extsort::MakeCallbackSink<std::uint64_t>(
      [&](std::uint64_t) { ++received; });
  const auto info =
      extsort::SortInto<std::uint64_t>(ctx.get(), in, sink, U64Less());
  EXPECT_EQ(info.status.code(), util::StatusCode::kCorruption)
      << info.status.ToString();
  EXPECT_EQ(received, 0u);
}

TEST(ExternalSortTest, DedupCollapsesEqualRecords) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/16 << 10);
  std::vector<std::uint64_t> values;
  for (int rep = 0; rep < 50; ++rep) {
    for (std::uint64_t v = 0; v < 200; ++v) values.push_back(v);
  }
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less(),
                                            /*dedup=*/true);
  const auto result = io::ReadAllRecords<std::uint64_t>(ctx.get(), out);
  ASSERT_EQ(result.size(), 200u);
  for (std::uint64_t v = 0; v < 200; ++v) EXPECT_EQ(result[v], v);
}

TEST(ExternalSortTest, DedupOnSingleRun) {
  auto ctx = MakeMemTestContext();
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords<std::uint64_t>(ctx.get(), in, {5, 1, 5, 1, 5});
  extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less(),
                                            /*dedup=*/true);
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out),
            (std::vector<std::uint64_t>{1, 5}));
}

TEST(ExternalSortTest, EdgeComparators) {
  auto ctx = MakeMemTestContext();
  const std::vector<graph::Edge> edges{{3, 1}, {1, 2}, {2, 1}, {1, 1}};
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords(ctx.get(), in, edges);

  const std::string by_src = ctx->NewTempPath("bysrc");
  extsort::SortFile<graph::Edge, graph::EdgeBySrc>(ctx.get(), in, by_src,
                                                   graph::EdgeBySrc());
  const auto src_sorted = io::ReadAllRecords<graph::Edge>(ctx.get(), by_src);
  EXPECT_EQ(src_sorted, (std::vector<graph::Edge>{
                            {1, 1}, {1, 2}, {2, 1}, {3, 1}}));

  const std::string by_dst = ctx->NewTempPath("bydst");
  extsort::SortFile<graph::Edge, graph::EdgeByDst>(ctx.get(), in, by_dst,
                                                   graph::EdgeByDst());
  const auto dst_sorted = io::ReadAllRecords<graph::Edge>(ctx.get(), by_dst);
  EXPECT_EQ(dst_sorted, (std::vector<graph::Edge>{
                            {1, 1}, {2, 1}, {3, 1}, {1, 2}}));
}

TEST(SortingWriterTest, AccumulateAndSort) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/16 << 10);
  extsort::SortingWriter<std::uint64_t, U64Less> writer(ctx.get(), U64Less(),
                                                        /*dedup=*/true);
  util::Rng rng(3);
  for (int i = 0; i < 20'000; ++i) writer.Append(rng.Uniform(500));
  const std::string out = ctx->NewTempPath("out");
  writer.FinishInto(out);
  const auto result = io::ReadAllRecords<std::uint64_t>(ctx.get(), out);
  EXPECT_EQ(result.size(), 500u);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
}

TEST(IsFileSortedTest, DetectsOrderAndStrictness) {
  auto ctx = MakeMemTestContext();
  const std::string sorted = ctx->NewTempPath("s");
  io::WriteAllRecords<std::uint64_t>(ctx.get(), sorted, {1, 2, 2, 3});
  EXPECT_TRUE((extsort::IsFileSorted<std::uint64_t, U64Less>(
      ctx.get(), sorted, U64Less())));
  EXPECT_FALSE((extsort::IsFileSorted<std::uint64_t, U64Less>(
      ctx.get(), sorted, U64Less(), /*strictly=*/true)));
  const std::string unsorted = ctx->NewTempPath("u");
  io::WriteAllRecords<std::uint64_t>(ctx.get(), unsorted, {2, 1});
  EXPECT_FALSE((extsort::IsFileSorted<std::uint64_t, U64Less>(
      ctx.get(), unsorted, U64Less())));
}

TEST(ExternalSortTest, AllEqualRecordsDedupAcrossMultiplePasses) {
  // M = 2 blocks of 4K: binary merges, several passes. Dedup must apply
  // inside every run and every pass, so all-equal input collapses early
  // instead of carrying 60K duplicates through each merge level.
  auto ctx = MakeMemTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/4096);
  std::vector<std::uint64_t> values(60'000, 42);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto before = ctx->stats();
  const auto info = extsort::SortFile<std::uint64_t, U64Less>(
      ctx.get(), in, out, U64Less(), /*dedup=*/true);
  const auto delta = ctx->stats() - before;
  EXPECT_GT(info.num_runs, 1u);
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out),
            (std::vector<std::uint64_t>{42}));
  // Each run dedups to one record before it is spilled, so the sort
  // writes far less than it reads (the old final-pass-only dedup wrote
  // the full input at least twice).
  EXPECT_LT(delta.bytes_written, delta.bytes_read / 4) << delta.ToString();
}

TEST(ExternalSortTest, DedupShrinksIntermediateRuns) {
  // Heavy duplication (200 distinct keys in 100K records): with per-run
  // dedup every spilled run holds <= 200 records, so written bytes stay
  // a small fraction of the input.
  auto ctx = MakeMemTestContext(/*memory_bytes=*/16 << 10, /*block_size=*/4096);
  auto values = RandomValues(100'000, 13, 200);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto before = ctx->stats();
  extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less(),
                                            /*dedup=*/true);
  const auto delta = ctx->stats() - before;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
  EXPECT_LT(delta.bytes_written, 100'000 * sizeof(std::uint64_t) / 2)
      << delta.ToString();
}

TEST(ExternalSortTest, FanInExactlyTwo) {
  // M = 2 blocks: MergeFanIn floors at a binary merge; many runs force
  // ceil(log2(runs)) passes through the 2-leaf loser tree.
  auto ctx = MakeMemTestContext(/*memory_bytes=*/2 << 10, /*block_size=*/1024);
  ASSERT_EQ(ctx->memory().MergeFanIn(ctx->block_size()), 2u);
  auto values = RandomValues(20'000, 17, 1u << 30);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  EXPECT_GT(info.num_runs, 16u);
  // Binary merging halves the run count per pass.
  std::uint64_t expected_passes = 0;
  for (std::uint64_t r = info.num_runs; r > 1; r = (r + 1) / 2) {
    ++expected_passes;
  }
  EXPECT_EQ(info.merge_passes, expected_passes);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
}

// 12-byte records never divide a 1024-byte block evenly, so records
// straddle every block boundary in runs, merges, and the output.
struct Triple {
  std::uint32_t key = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  friend bool operator==(const Triple&, const Triple&) = default;
};
static_assert(sizeof(Triple) == 12);

struct TripleByKey {
  bool operator()(const Triple& x, const Triple& y) const {
    return x.key < y.key;
  }
};

TEST(ExternalSortTest, RecordsStraddlingBlockBoundaries) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/4 << 10, /*block_size=*/1024);
  util::Rng rng(23);
  std::vector<Triple> values(30'000);
  for (auto& t : values) {
    t.key = static_cast<std::uint32_t>(rng.Uniform(1u << 20));
    t.a = t.key * 2;
    t.b = t.key ^ 0xdeadbeef;
  }
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto info = extsort::SortFile<Triple, TripleByKey>(
      ctx.get(), in, out, TripleByKey());
  EXPECT_GT(info.num_runs, 1u);
  auto result = io::ReadAllRecords<Triple>(ctx.get(), out);
  ASSERT_EQ(result.size(), values.size());
  std::stable_sort(values.begin(), values.end(), TripleByKey());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(result[i].key, values[i].key) << i;
    // Payloads must travel intact with their keys across boundaries.
    ASSERT_EQ(result[i].a, result[i].key * 2) << i;
    ASSERT_EQ(result[i].b, result[i].key ^ 0xdeadbeef) << i;
  }
}

TEST(ExternalSortTest, SingleRunWritesOutputDirectly) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/1 << 20, /*block_size=*/4096);
  auto values = RandomValues(10'000, 29, 1u << 30);  // 80 KB: one run
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto before = ctx->stats();
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  const auto delta = ctx->stats() - before;
  EXPECT_EQ(info.num_runs, 1u);
  EXPECT_EQ(info.merge_passes, 0u);
  // One scan in (the run formation read), one scan out (the in-memory
  // run written straight to the output — no run file, no rename).
  const std::uint64_t file_blocks =
      (values.size() * sizeof(std::uint64_t) + 4095) / 4096;
  EXPECT_EQ(delta.total_reads(), file_blocks);
  EXPECT_EQ(delta.total_writes(), file_blocks);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
}

TEST(ExternalSortTest, RandomizedPropertyVsStdSort) {
  // Randomized geometry sweep: every (budget, block, size, range) draw
  // must agree with std::sort and satisfy IsFileSorted; dedup draws must
  // agree with sort+unique and be strictly sorted.
  util::Rng rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t block = 512u << rng.Uniform(3);        // 512..2K
    const std::uint64_t memory = (2 + rng.Uniform(30)) * block;
    const std::size_t count = 500 + rng.Uniform(40'000);
    const std::uint64_t range = 1 + rng.Uniform(1u << 16);
    const bool dedup = rng.Uniform(2) == 1;
    auto ctx = MakeMemTestContext(memory, block);
    auto values = RandomValues(count, rng.Next(), range);
    const std::string in = ctx->NewTempPath("in");
    const std::string out = ctx->NewTempPath("out");
    io::WriteAllRecords(ctx.get(), in, values);
    extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less(),
                                              dedup);
    EXPECT_TRUE((extsort::IsFileSorted<std::uint64_t, U64Less>(
        ctx.get(), out, U64Less(), /*strictly=*/dedup)))
        << "trial " << trial << " block=" << block << " mem=" << memory
        << " count=" << count << " dedup=" << dedup;
    std::sort(values.begin(), values.end());
    if (dedup) {
      values.erase(std::unique(values.begin(), values.end()), values.end());
    }
    EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values)
        << "trial " << trial;
  }
}

// Parameterized sweep: sort correctness across budget/block combinations.
struct SortSweepParam {
  std::uint64_t memory;
  std::size_t block;
  std::size_t count;
};

class ExternalSortSweep : public ::testing::TestWithParam<SortSweepParam> {};

TEST_P(ExternalSortSweep, SortedAndPermutationPreserved) {
  const auto param = GetParam();
  auto ctx = MakeMemTestContext(param.memory, param.block);
  auto values = RandomValues(param.count, param.memory ^ param.count, 1000);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  auto result = io::ReadAllRecords<std::uint64_t>(ctx.get(), out);
  ASSERT_EQ(result.size(), values.size());
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
  std::sort(values.begin(), values.end());
  EXPECT_EQ(result, values);
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndBlocks, ExternalSortSweep,
    ::testing::Values(SortSweepParam{8 << 10, 4096, 10'000},
                      SortSweepParam{16 << 10, 4096, 30'000},
                      SortSweepParam{64 << 10, 4096, 30'000},
                      SortSweepParam{8 << 10, 1024, 5'000},
                      SortSweepParam{1 << 20, 16384, 100'000},
                      SortSweepParam{2 << 10, 1024, 2'000}));

}  // namespace
}  // namespace extscc
