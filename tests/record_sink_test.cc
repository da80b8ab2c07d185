// Fused sort→consumer pipelines: sink-vs-file equivalence oracle, the
// single-run and empty-input fast paths, the staging-free SortingWriter,
// the membership-split sink, and the block-I/O guarantee that a fused
// pipeline never costs more than materialize-then-scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/membership_split.h"
#include "extsort/external_sorter.h"
#include "extsort/record_sink.h"
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

// ---- sink-vs-file equivalence oracle ---------------------------------
// For every (geometry, dedup) draw, SortInto through a callback sink
// must deliver exactly the records SortFile materializes, in the same
// order.
TEST(SortIntoTest, SinkMatchesFileAcrossGeometries) {
  util::Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t block = 512u << rng.Uniform(3);  // 512..2K
    const std::uint64_t memory = (2 + rng.Uniform(24)) * block;
    const std::size_t count = 200 + rng.Uniform(30'000);
    const std::uint64_t range = 1 + rng.Uniform(1u << 14);
    const bool dedup = rng.Uniform(2) == 1;
    auto ctx = MakeMemTestContext(memory, block);
    const auto values = RandomValues(count, rng.Next(), range);
    const std::string in = ctx->NewTempPath("in");
    io::WriteAllRecords(ctx.get(), in, values);

    const std::string file_out = ctx->NewTempPath("file");
    const auto file_info = extsort::SortFile<std::uint64_t, U64Less>(
        ctx.get(), in, file_out, U64Less(), dedup);
    const auto expected =
        io::ReadAllRecords<std::uint64_t>(ctx.get(), file_out);

    std::vector<std::uint64_t> streamed;
    auto sink = extsort::MakeCallbackSink<std::uint64_t>(
        [&](std::uint64_t v) { streamed.push_back(v); });
    const auto sink_info = extsort::SortInto<std::uint64_t>(
        ctx.get(), in, sink, U64Less(), dedup);

    EXPECT_EQ(streamed, expected)
        << "trial " << trial << " block=" << block << " mem=" << memory
        << " count=" << count << " dedup=" << dedup;
    EXPECT_EQ(sink_info.num_records, file_info.num_records);
  }
}

// ---- single-run promote into a callback sink -------------------------
// An input that fits the run buffer reaches the sink straight from
// memory: the only I/O is the input scan itself — zero writes.
TEST(SortIntoTest, SingleRunStreamsFromMemoryWithZeroWrites) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/1 << 20, /*block_size=*/4096);
  auto values = RandomValues(10'000, 29, 1u << 30);  // 80 KB: one run
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords(ctx.get(), in, values);
  const auto before = ctx->stats();
  std::vector<std::uint64_t> streamed;
  auto sink = extsort::MakeCallbackSink<std::uint64_t>(
      [&](std::uint64_t v) { streamed.push_back(v); });
  const auto info =
      extsort::SortInto<std::uint64_t>(ctx.get(), in, sink, U64Less());
  const auto delta = ctx->stats() - before;
  EXPECT_EQ(info.num_runs, 1u);
  EXPECT_EQ(info.merge_passes, 0u);
  const std::uint64_t file_blocks =
      (values.size() * sizeof(std::uint64_t) + 4095) / 4096;
  EXPECT_EQ(delta.total_reads(), file_blocks);
  EXPECT_EQ(delta.total_writes(), 0u)
      << "a fused in-memory sort must not touch the disk on the way out";
  std::sort(values.begin(), values.end());
  EXPECT_EQ(streamed, values);
}

TEST(SortIntoTest, EmptyInputDeliversNothing) {
  auto ctx = MakeMemTestContext();
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords<std::uint64_t>(ctx.get(), in, {});
  std::size_t received = 0;
  auto sink = extsort::MakeCallbackSink<std::uint64_t>(
      [&](std::uint64_t) { ++received; });
  const auto info =
      extsort::SortInto<std::uint64_t>(ctx.get(), in, sink, U64Less());
  EXPECT_EQ(info.num_records, 0u);
  EXPECT_EQ(received, 0u);
}

// ---- the fused path never exceeds the materializing path -------------
// Multi-run input, identical geometry: block I/Os of SortInto must stay
// strictly below SortFile + one full scan of its output (the fused
// stage deletes that write+read).
TEST(SortIntoTest, FusedNeverExceedsMaterializeThenScan) {
  const auto values = RandomValues(60'000, 41, 1u << 31);
  auto measure = [&](bool fused) {
    auto ctx = MakeMemTestContext(/*memory_bytes=*/16 << 10,
                               /*block_size=*/4096);
    const std::string in = ctx->NewTempPath("in");
    io::WriteAllRecords(ctx.get(), in, values);
    const auto before = ctx->stats();
    std::uint64_t checksum = 0;
    if (fused) {
      auto sink = extsort::MakeCallbackSink<std::uint64_t>(
          [&](std::uint64_t v) { checksum += v; });
      extsort::SortInto<std::uint64_t>(ctx.get(), in, sink, U64Less());
    } else {
      const std::string out = ctx->NewTempPath("out");
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out,
                                                U64Less());
      io::RecordReader<std::uint64_t> reader(ctx.get(), out);
      std::uint64_t v;
      while (reader.Next(&v)) checksum += v;
    }
    return std::pair<std::uint64_t, std::uint64_t>(
        (ctx->stats() - before).total_ios(), checksum);
  };
  const auto [fused_ios, fused_sum] = measure(true);
  const auto [file_ios, file_sum] = measure(false);
  EXPECT_EQ(fused_sum, file_sum);
  EXPECT_LT(fused_ios, file_ios)
      << "fusing must delete the output write+read";
  // The saving is exactly the sorted file's write plus its read-back
  // (modulo the one rounding block per direction).
  const std::uint64_t out_blocks =
      (values.size() * sizeof(std::uint64_t) + 4095) / 4096;
  EXPECT_LE(fused_ios + 2 * out_blocks, file_ios + 2u);
}

// ---- SortingWriter without a staging file ----------------------------
TEST(SortingWriterTest, BufferedInputReachesSinkWithZeroIo) {
  auto ctx = MakeMemTestContext(/*memory_bytes=*/1 << 20);
  extsort::SortingWriter<std::uint64_t, U64Less> writer(ctx.get(), U64Less(),
                                                        /*dedup=*/true);
  util::Rng rng(3);
  for (int i = 0; i < 5'000; ++i) writer.Append(rng.Uniform(700));
  const auto before = ctx->stats();
  std::vector<std::uint64_t> streamed;
  auto sink = extsort::MakeCallbackSink<std::uint64_t>(
      [&](std::uint64_t v) { streamed.push_back(v); });
  const auto info = writer.FinishInto(sink);
  const auto delta = ctx->stats() - before;
  EXPECT_EQ(delta.total_ios(), 0u)
      << "an in-budget accumulate→sort→consume stage must be pure memory";
  EXPECT_EQ(info.num_records, 5'000u);
  EXPECT_EQ(info.num_runs, 1u);
  EXPECT_EQ(streamed.size(), 700u);
  EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end()));
}

TEST(SortingWriterTest, SpillingPathMatchesSortFileOracle) {
  // Budget of 16 KB forces several spilled runs; the sink stream must
  // agree with materializing the same adds through a file.
  auto values = RandomValues(40'000, 15, 1u << 20);
  auto ctx = MakeMemTestContext(/*memory_bytes=*/16 << 10);
  extsort::SortingWriter<std::uint64_t, U64Less> writer(ctx.get(), U64Less());
  for (const auto v : values) writer.Append(v);
  std::vector<std::uint64_t> streamed;
  auto sink = extsort::MakeCallbackSink<std::uint64_t>(
      [&](std::uint64_t v) { streamed.push_back(v); });
  const auto info = writer.FinishInto(sink);
  EXPECT_GT(info.num_runs, 1u);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(streamed, values);
}

TEST(SortingWriterTest, FileFinishIsSugarOverRecordWriter) {
  // FinishInto(path) must be exactly FinishInto over a RecordWriter on
  // that path: same records, same block I/Os.
  auto values = RandomValues(20'000, 57, 1u << 18);
  const auto finish = [&](bool by_path) {
    auto ctx = MakeMemTestContext(/*memory_bytes=*/16 << 10);
    extsort::SortingWriter<std::uint64_t, U64Less> writer(
        ctx.get(), U64Less(), /*dedup=*/true);
    for (const auto v : values) writer.Append(v);
    const std::string out = ctx->NewTempPath("out");
    if (by_path) {
      writer.FinishInto(out);
    } else {
      io::RecordWriter<std::uint64_t> file(ctx.get(), out);
      writer.FinishInto(file);
      file.Finish();
    }
    return std::pair(io::ReadAllRecords<std::uint64_t>(ctx.get(), out),
                     ctx->stats().total_ios());
  };
  const auto [path_records, path_ios] = finish(true);
  const auto [writer_records, writer_ios] = finish(false);
  EXPECT_EQ(path_records, writer_records);
  EXPECT_EQ(path_ios, writer_ios);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  EXPECT_EQ(path_records, values);
}

TEST(SortingWriterTest, EmptyFinishIntoFileWritesEmptyFile) {
  auto ctx = MakeMemTestContext();
  extsort::SortingWriter<std::uint64_t, U64Less> writer(ctx.get(), U64Less());
  const std::string out = ctx->NewTempPath("out");
  const auto info = writer.FinishInto(out);
  EXPECT_EQ(info.num_records, 0u);
  EXPECT_EQ(info.num_runs, 0u);
  EXPECT_TRUE(io::ReadAllRecords<std::uint64_t>(ctx.get(), out).empty());
}

// ---- io::RecordWriter as the materializing sink ---------------------
TEST(RecordSinkTest, RecordWriterSinkRoundTrips) {
  // The suite's designated Posix round trip: the rest of the suite runs
  // on MemDevice scratch.
  static_assert(extsort::BatchRecordSinkFor<io::RecordWriter<std::uint64_t>,
                                            std::uint64_t>);
  auto ctx = MakeTestContext();
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords<std::uint64_t>(ctx.get(), in, {9, 1, 8, 7, 1});
  const std::string out = ctx->NewTempPath("out");
  io::RecordWriter<std::uint64_t> writer(ctx.get(), out);
  const auto info = extsort::SortInto<std::uint64_t>(ctx.get(), in, writer,
                                                     U64Less(),
                                                     /*dedup=*/true);
  writer.Finish();
  EXPECT_TRUE(info.status.ok()) << info.status.ToString();
  EXPECT_TRUE(writer.status().ok()) << writer.status().ToString();
  EXPECT_EQ(writer.count(), 4u);
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out),
            (std::vector<std::uint64_t>{1, 7, 8, 9}));
}

// ---- membership-split sink vs the pull form --------------------------
TEST(MembershipSplitSinkTest, PushMatchesPullSplit) {
  auto ctx = MakeMemTestContext();
  util::Rng rng(21);
  std::vector<graph::Edge> edges(4'000);
  for (auto& e : edges) {
    e.src = static_cast<graph::NodeId>(rng.Uniform(300));
    e.dst = static_cast<graph::NodeId>(rng.Uniform(300));
  }
  std::sort(edges.begin(), edges.end(), graph::EdgeBySrc());
  std::vector<graph::NodeId> cover;
  for (graph::NodeId v = 0; v < 300; v += 1 + rng.Uniform(4)) {
    cover.push_back(v);
  }
  const std::string edge_path = ctx->NewTempPath("edges");
  const std::string cover_path = ctx->NewTempPath("cover");
  io::WriteAllRecords(ctx.get(), edge_path, edges);
  io::WriteAllRecords(ctx.get(), cover_path, cover);

  std::vector<graph::Edge> pull_member, pull_removed;
  core::SplitByMembership(
      ctx.get(), edge_path, cover_path,
      [](const graph::Edge& e) { return e.src; },
      [&](const graph::Edge& e) { pull_member.push_back(e); },
      [&](const graph::Edge& e) { pull_removed.push_back(e); });

  std::vector<graph::Edge> push_member, push_removed;
  core::MembershipSplitSink split(
      ctx.get(), cover_path, [](const graph::Edge& e) { return e.src; },
      [&](const graph::Edge& e) { push_member.push_back(e); },
      [&](const graph::Edge& e) { push_removed.push_back(e); });
  for (const auto& e : edges) split.Append(e);

  EXPECT_EQ(push_member, pull_member);
  EXPECT_EQ(push_removed, pull_removed);
  EXPECT_EQ(push_member.size() + push_removed.size(), edges.size());
}

}  // namespace
}  // namespace extscc
