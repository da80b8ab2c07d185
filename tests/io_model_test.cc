// I/O-model assertions: the costs the paper states for the primitives
// must hold on the counters, machine-checked rather than proved-on-paper:
//   scan(m) = ceil(m·rec / B) sequential block reads,
//   sort(m) = O((m·rec / B) · log_{M/B}(m·rec / M)) block I/Os,
//   Get-V / Get-E / Expansion = O(sort(|E|) + sort(|V|)) per level
//   (Theorems 5.1, 5.2, 6.1), and Ext-SCC generates (almost) no random
//   I/O while DFS-SCC is random-dominated.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/contraction.h"
#include "core/expansion.h"
#include "core/ext_scc.h"
#include "core/vertex_cover.h"
#include "extsort/external_sorter.h"
#include "gen/classic_graphs.h"
#include "graph/edge_file.h"
#include "graph/disk_graph.h"
#include "io/record_stream.h"
#include "test_util.h"

namespace extscc {
namespace {

using graph::Edge;
using testing::MakeTestContext;

struct U64Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

TEST(IoModelTest, ScanCostsExactlyFileBlocks) {
  auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20, /*block_size=*/4096);
  const std::string path = ctx->NewTempPath("data");
  constexpr std::uint64_t kCount = 10'000;  // 80'000 bytes -> 20 blocks
  {
    io::RecordWriter<std::uint64_t> writer(ctx.get(), path);
    for (std::uint64_t i = 0; i < kCount; ++i) writer.Append(i);
  }
  const auto before = ctx->stats();
  io::RecordReader<std::uint64_t> reader(ctx.get(), path);
  std::uint64_t value;
  while (reader.Next(&value)) {
  }
  const auto delta = ctx->stats() - before;
  const std::uint64_t expected_blocks =
      (kCount * sizeof(std::uint64_t) + 4095) / 4096;
  // One extra read attempt returns 0 bytes at EOF without counting.
  EXPECT_EQ(delta.total_reads(), expected_blocks);
  EXPECT_EQ(delta.random_reads, 1u) << "only the first block is a seek";
}

TEST(IoModelTest, SortIoScalesNearLinearlyAtFixedFanIn) {
  // With M and B fixed, doubling n at the same number of merge passes
  // should roughly double the I/O count. The sizes keep both sorts at one
  // merge pass.
  struct Sorted {
    std::uint64_t ios;
    std::uint64_t merge_passes;
  };
  auto run = [](std::uint64_t n) {
    auto ctx = MakeTestContext(/*memory_bytes=*/64 << 10,
                               /*block_size=*/4096);
    const std::string in = ctx->NewTempPath("in");
    {
      util::Rng rng(n);
      io::RecordWriter<std::uint64_t> writer(ctx.get(), in);
      for (std::uint64_t i = 0; i < n; ++i) writer.Append(rng.Next());
    }
    const auto before = ctx->stats();
    const std::string out = ctx->NewTempPath("out");
    const auto info = extsort::SortFile<std::uint64_t, U64Less>(
        ctx.get(), in, out, U64Less());
    return Sorted{(ctx->stats() - before).total_ios(), info.merge_passes};
  };
  const Sorted small = run(30'000);
  const Sorted big = run(60'000);
  ASSERT_EQ(big.merge_passes, small.merge_passes)
      << "the premise: the same number of merge passes";
  EXPECT_GT(big.ios, small.ios);
  EXPECT_LT(static_cast<double>(big.ios), 3.0 * static_cast<double>(small.ios))
      << "sort I/O must not blow up superlinearly at fixed geometry";
}

TEST(IoModelTest, SortUsesOnlyBoundedMemory) {
  // The sorter must spill: with M = 16 KB and 800 KB of input, at least
  // 50 runs are formed (the in-memory fast path would be 1 run).
  auto ctx = MakeTestContext(/*memory_bytes=*/16 << 10, /*block_size=*/4096);
  const std::string in = ctx->NewTempPath("in");
  {
    util::Rng rng(3);
    io::RecordWriter<std::uint64_t> writer(ctx.get(), in);
    for (int i = 0; i < 100'000; ++i) writer.Append(rng.Next());
  }
  const std::string out = ctx->NewTempPath("out");
  const auto info =
      extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out,
                                                U64Less());
  EXPECT_GE(info.num_runs, 40u);
  EXPECT_GE(info.merge_passes, 1u);
}

// One contraction level's I/O must be within a constant multiple of the
// cost of sorting the level's edges — Theorems 5.1 + 5.2 say
// O(sort(|E|) + sort(|V|)).
TEST(IoModelTest, ContractionLevelWithinConstantOfSortCost) {
  auto ctx = MakeTestContext(/*memory_bytes=*/32 << 10, /*block_size=*/1024);
  const auto edges = gen::RandomDigraphEdges(2000, 8000, 31);
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);

  // Reference: one sort of the edge file.
  std::uint64_t sort_ios;
  {
    const auto before = ctx->stats();
    const std::string sorted = ctx->NewTempPath("ref");
    graph::SortEdgesBySrc(ctx.get(), g.edge_path, sorted);
    sort_ios = (ctx->stats() - before).total_ios();
  }

  // Measured: E_in/E_out sorts + Get-V + Get-E (one full level).
  const auto before = ctx->stats();
  const std::string ein = ctx->NewTempPath("ein");
  const std::string eout = ctx->NewTempPath("eout");
  graph::SortEdgesByDst(ctx.get(), g.edge_path, ein);
  graph::SortEdgesBySrc(ctx.get(), g.edge_path, eout);
  const auto cover =
      core::ComputeVertexCover(ctx.get(), ein, eout, core::CoverOptions{});
  core::ContractEdges(ctx.get(), ein, eout, cover.cover_path,
                      core::ContractionOptions{});
  const auto level_ios = (ctx->stats() - before).total_ios();

  EXPECT_LT(level_ios, 20 * sort_ios)
      << "a level must stay within a small constant of sort(|E|)";
}

TEST(IoModelTest, ExtSccSequentialFractionIsHigh) {
  auto ctx = MakeTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/1024);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(1500, 4500, 33));
  const auto before = ctx->stats();
  const std::string out = ctx->NewTempPath("out");
  ASSERT_TRUE(core::RunExtScc(ctx.get(), g, out,
                              core::ExtSccOptions::Optimized())
                  .ok());
  const auto delta = ctx->stats() - before;
  const double random_fraction =
      static_cast<double>(delta.random_ios()) /
      static_cast<double>(delta.total_ios());
  // Random I/Os come only from stream opens (first block per file);
  // with thousands of blocks per stream the fraction must stay small.
  EXPECT_LT(random_fraction, 0.35) << delta.ToString();
}

TEST(IoModelTest, IterationIoRecordedPerLevelSumsToTotal) {
  auto ctx = MakeTestContext(/*memory_bytes=*/4 << 10, /*block_size=*/512);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(800, 2400, 35));
  const std::string out = ctx->NewTempPath("out");
  auto result =
      core::RunExtScc(ctx.get(), g, out, core::ExtSccOptions::Basic());
  ASSERT_TRUE(result.ok());
  std::uint64_t contraction_ios = 0;
  for (const auto& it : result.value().iterations) {
    contraction_ios += it.ios;
  }
  EXPECT_LE(contraction_ios, result.value().total_ios);
  EXPECT_GT(contraction_ios, 0u);
}

}  // namespace
}  // namespace extscc
