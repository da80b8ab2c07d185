#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "gen/classic_graphs.h"
#include "graph/disk_graph.h"
#include "io/record_stream.h"
#include "scc/semi_external_scc.h"
#include "scc/scc_verify.h"
#include "test_util.h"

namespace extscc {
namespace {

using graph::Edge;
using scc::SemiExternalScc;
using testing::MakeTestContext;

// Runs Semi-SCC and verifies against the oracle.
void RunAndVerify(const std::vector<Edge>& edges,
                  const std::vector<graph::NodeId>& extra_nodes = {}) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), edges, extra_nodes);
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const auto stats = SemiExternalScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(stats.num_sccs, next);
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "Semi-SCC");
}

TEST(SemiExternalSccTest, EmptyGraph) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), {});
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const auto stats = SemiExternalScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(stats.num_sccs, 0u);
  EXPECT_EQ(io::NumRecordsInFile<graph::SccEntry>(ctx.get(), out), 0u);
}

TEST(SemiExternalSccTest, IsolatedNodesOnly) {
  RunAndVerify({}, {1, 5, 9});
}

TEST(SemiExternalSccTest, Fig1) { RunAndVerify(gen::Fig1Edges()); }

TEST(SemiExternalSccTest, PathIsAllSingletonsViaTrim) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::PathEdges(50));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const auto stats = SemiExternalScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(stats.num_sccs, 50u);
  EXPECT_EQ(stats.trimmed, 50u) << "a path dies entirely by trimming";
  EXPECT_EQ(stats.rounds, 0u);
}

TEST(SemiExternalSccTest, CycleIsOneScc) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(64));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const auto stats = SemiExternalScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(stats.num_sccs, 1u);
  EXPECT_GE(stats.rounds, 1u);
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "cycle");
}

TEST(SemiExternalSccTest, SelfLoopsAndParallelEdges) {
  RunAndVerify({{1, 1}, {2, 3}, {3, 2}, {2, 3}, {4, 4}, {4, 5}});
}

TEST(SemiExternalSccTest, CycleChains) {
  RunAndVerify(gen::CycleChainEdges(6, 5));
}

TEST(SemiExternalSccTest, LabelsStartAtProvidedCounter) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(3));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 41;
  SemiExternalScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(next, 42u);
  const auto entries = io::ReadAllRecords<graph::SccEntry>(ctx.get(), out);
  for (const auto& e : entries) EXPECT_EQ(e.scc, 41u);
}

TEST(SemiExternalSccTest, OutputSortedByNode) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(200, 600, 3));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  SemiExternalScc::Run(ctx.get(), g, out, &next);
  const auto entries = io::ReadAllRecords<graph::SccEntry>(ctx.get(), out);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].node, entries[i].node);
  }
}

TEST(SemiExternalSccTest, FitsReflectsBudget) {
  // 8 B/node (id + colour/label word) plus four bitsets of 64-bit words.
  EXPECT_EQ(SemiExternalScc::StateBytes(0), 0u);
  EXPECT_EQ(SemiExternalScc::StateBytes(1), 8u + 32u);
  EXPECT_EQ(SemiExternalScc::StateBytes(64), 8u * 64 + 32u);
  EXPECT_EQ(SemiExternalScc::StateBytes(65), 8u * 65 + 64u);
  for (const std::uint64_t n : {1u, 10u, 64u, 65u, 1000u}) {
    const std::uint64_t bytes = SemiExternalScc::StateBytes(n);
    EXPECT_TRUE(SemiExternalScc::Fits(n, io::MemoryBudget(bytes))) << n;
    EXPECT_FALSE(SemiExternalScc::Fits(n, io::MemoryBudget(bytes - 1))) << n;
  }
}

TEST(SemiExternalSccDeathTest, RefusesOverBudgetNodeSets) {
  // One byte short of the state 2000 nodes need.
  auto ctx = MakeTestContext(
      /*memory_bytes=*/SemiExternalScc::StateBytes(2000) - 1,
      /*block_size=*/4096);
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(2000));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  EXPECT_DEATH(SemiExternalScc::Run(ctx.get(), g, out, &next),
               "contraction phase");
}

TEST(SemiExternalSccTest, SingleNodeUnderEveryIdLayout) {
  for (const auto layout : testing::kAllIdLayouts) {
    RunAndVerify(testing::MapIds({{5, 5}}, layout));
  }
}

// Property sweep across random graphs, each id layout stressing the
// endpoint translation's bucket directory differently.
class SemiSccSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, testing::IdLayout>> {};

TEST_P(SemiSccSweep, MatchesOracle) {
  const auto [nodes, edges, seed, layout] = GetParam();
  RunAndVerify(testing::MapIds(
      gen::RandomDigraphEdges(nodes, edges, seed,
                              /*allow_degenerate=*/seed % 2 == 0),
      layout));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SemiSccSweep,
    ::testing::Combine(::testing::Values(20, 100, 400),
                       ::testing::Values(30, 200, 1200),
                       ::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::kAllIdLayouts)));

}  // namespace
}  // namespace extscc
