#include "scc/br_tree_scc.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "gen/classic_graphs.h"
#include "graph/disk_graph.h"
#include "io/record_stream.h"
#include "scc/scc_verify.h"
#include "scc/semi_external_scc.h"
#include "test_util.h"

namespace extscc {
namespace {

using graph::Edge;
using scc::BrTreeScc;
using scc::BrTreeStats;
using scc::SemiSccBackend;
using testing::MakeTestContext;

BrTreeStats RunAndVerify(const std::vector<Edge>& edges,
                         const std::vector<graph::NodeId>& extra_nodes = {}) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), edges, extra_nodes);
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const BrTreeStats stats = BrTreeScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(stats.num_sccs, next);
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "BR-tree");
  return stats;
}

TEST(BrTreeSccTest, EmptyGraph) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), {});
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const auto stats = BrTreeScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(stats.num_sccs, 0u);
  EXPECT_EQ(io::NumRecordsInFile<graph::SccEntry>(ctx.get(), out), 0u);
}

TEST(BrTreeSccTest, IsolatedNodesOnly) {
  const auto stats = RunAndVerify({}, {3, 7, 11});
  EXPECT_EQ(stats.num_sccs, 3u);
  EXPECT_EQ(stats.contractions, 0u);
}

TEST(BrTreeSccTest, SingleNodeUnderEveryIdLayout) {
  for (const auto layout : testing::kAllIdLayouts) {
    RunAndVerify(testing::MapIds({{5, 5}}, layout));
  }
}

TEST(BrTreeSccTest, Fig1) {
  // Paper Fig. 1: 13 nodes, SCC1 = {b..g} (6 nodes), SCC2 = {i,j,k,l},
  // plus singletons a, h, m.
  const auto stats = RunAndVerify(gen::Fig1Edges());
  EXPECT_EQ(stats.num_sccs, 5u);
}

TEST(BrTreeSccTest, PathHasNoContractions) {
  const auto stats = RunAndVerify(gen::PathEdges(50));
  EXPECT_EQ(stats.num_sccs, 50u);
  EXPECT_EQ(stats.contractions, 0u) << "a path has no cycles to contract";
}

TEST(BrTreeSccTest, CycleIsOneScc) {
  const auto stats = RunAndVerify(gen::CycleEdges(64));
  EXPECT_EQ(stats.num_sccs, 1u);
  EXPECT_GE(stats.contractions, 1u);
}

TEST(BrTreeSccTest, TwoCycleContractsOnSecondEdge) {
  const auto stats = RunAndVerify({{1, 2}, {2, 1}});
  EXPECT_EQ(stats.num_sccs, 1u);
  EXPECT_EQ(stats.contractions, 1u);
}

TEST(BrTreeSccTest, SelfLoopsAndParallelEdges) {
  RunAndVerify({{1, 1}, {2, 3}, {3, 2}, {2, 3}, {4, 4}, {4, 5}});
}

TEST(BrTreeSccTest, CycleChains) {
  RunAndVerify(gen::CycleChainEdges(6, 5));
}

TEST(BrTreeSccTest, ConvergesInFewPassesOnRandomGraphs) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(500, 2500, 7));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  const auto stats = BrTreeScc::Run(ctx.get(), g, out, &next);
  // The fixpoint needs one clean pass to detect; anything near the
  // safety valve (4n) would make the backend useless in practice.
  EXPECT_LE(stats.passes, 50u);
}

TEST(BrTreeSccTest, LabelsStartAtProvidedCounter) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(3));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 17;
  BrTreeScc::Run(ctx.get(), g, out, &next);
  EXPECT_EQ(next, 18u);
  for (const auto& e : io::ReadAllRecords<graph::SccEntry>(ctx.get(), out)) {
    EXPECT_EQ(e.scc, 17u);
  }
}

TEST(BrTreeSccTest, OutputSortedByNode) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(200, 600, 3));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  BrTreeScc::Run(ctx.get(), g, out, &next);
  const auto entries = io::ReadAllRecords<graph::SccEntry>(ctx.get(), out);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].node, entries[i].node);
  }
}

TEST(BrTreeSccTest, FitsReflectsItsOwnStateBytes) {
  // BR-tree charges what it holds — id, union-find cell, tree parent and
  // depth, 16 B/node — not the colouring backend's ~8.5 B/node.
  EXPECT_EQ(BrTreeScc::StateBytes(10), 160u);
  EXPECT_GT(BrTreeScc::StateBytes(1000),
            scc::SemiExternalScc::StateBytes(1000));
  for (const std::uint64_t n : {1u, 10u, 1000u}) {
    const std::uint64_t bytes = BrTreeScc::StateBytes(n);
    EXPECT_TRUE(BrTreeScc::Fits(n, io::MemoryBudget(bytes))) << n;
    EXPECT_FALSE(BrTreeScc::Fits(n, io::MemoryBudget(bytes - 1))) << n;
    EXPECT_EQ(scc::SemiSccStateBytes(SemiSccBackend::kBrTree, n), bytes);
    EXPECT_EQ(scc::SemiSccStateBytes(SemiSccBackend::kColoring, n),
              scc::SemiExternalScc::StateBytes(n));
  }
}

TEST(BrTreeSccDeathTest, RefusesOverBudgetNodeSets) {
  // One byte short of the state 2000 nodes need.
  auto ctx = MakeTestContext(
      /*memory_bytes=*/BrTreeScc::StateBytes(2000) - 1, /*block_size=*/4096);
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(2000));
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  EXPECT_DEATH(BrTreeScc::Run(ctx.get(), g, out, &next), "contraction phase");
}

// ---- dispatch ------------------------------------------------------------

TEST(SemiSccBackendTest, Names) {
  EXPECT_STREQ(scc::SemiSccBackendName(SemiSccBackend::kColoring), "coloring");
  EXPECT_STREQ(scc::SemiSccBackendName(SemiSccBackend::kBrTree), "br-tree");
}

TEST(SemiSccBackendTest, DispatchRunsBrTreeWheneverItFits) {
  // The backend RunSemiScc is passed names the stop rule only: BR-tree
  // runs whenever its 16 B/node fits M, colouring when only colouring's
  // ~8.5 B/node does. Fig. 1's 13 nodes need 208 B and 136 B.
  constexpr std::uint64_t kNodes = 13;
  struct Case {
    SemiSccBackend stop_rule;
    std::uint64_t memory;
    std::size_t block_size;
    SemiSccBackend runs;
  };
  for (const Case& c :
       {Case{SemiSccBackend::kColoring, 1 << 20, 4096, SemiSccBackend::kBrTree},
        Case{SemiSccBackend::kBrTree, 1 << 20, 4096, SemiSccBackend::kBrTree},
        Case{SemiSccBackend::kBrTree, BrTreeScc::StateBytes(kNodes), 64,
             SemiSccBackend::kBrTree},
        Case{SemiSccBackend::kColoring, BrTreeScc::StateBytes(kNodes) - 1, 64,
             SemiSccBackend::kColoring}}) {
    const std::string name = std::string(scc::SemiSccBackendName(c.stop_rule)) +
                             " stop rule, M=" + std::to_string(c.memory);
    auto ctx = MakeTestContext(c.memory, c.block_size);
    const auto g = graph::MakeDiskGraph(ctx.get(), gen::Fig1Edges());
    ASSERT_EQ(g.num_nodes, kNodes);
    const std::string out = ctx->NewTempPath("scc");
    graph::SccId next = 0;
    const auto stats = scc::RunSemiScc(c.stop_rule, ctx.get(), g, out, &next);
    EXPECT_EQ(stats.backend, c.runs) << name;
    EXPECT_EQ(stats.num_sccs, 5u) << name;
    testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, name.c_str());
  }
}

TEST(SemiSccBackendDeathTest, DispatchChecksTheStopRule) {
  // Colouring's 136 B fit here, but the kBrTree stop rule asks for
  // BR-tree's 208 B: the driver should have contracted first.
  auto ctx = MakeTestContext(BrTreeScc::StateBytes(13) - 1, 64);
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::Fig1Edges());
  const std::string out = ctx->NewTempPath("scc");
  graph::SccId next = 0;
  EXPECT_DEATH(scc::RunSemiScc(SemiSccBackend::kBrTree, ctx.get(), g, out,
                               &next),
               "contraction phase");
}

TEST(SemiSccBackendTest, ReservationCoversHeapAtTightestBudget) {
  // M = StateBytes(n) is the tightest budget that fits. Run reserves
  // exactly that with a CHECK-failing Reserve and CHECKs that its
  // vectors' capacities stay within the reservation, so finishing here
  // with oracle-correct labels shows the reservation covers the heap.
  for (const auto backend :
       {SemiSccBackend::kColoring, SemiSccBackend::kBrTree}) {
    for (const auto& [nodes, edges, seed] :
         {std::tuple{64u, 200u, 1u}, std::tuple{150u, 450u, 2u},
          std::tuple{400u, 1600u, 3u}}) {
      const char* name = scc::SemiSccBackendName(backend);
      const std::uint64_t memory = scc::SemiSccStateBytes(backend, nodes);
      EXPECT_TRUE(scc::SemiSccFits(backend, nodes, io::MemoryBudget(memory)))
          << name;
      EXPECT_FALSE(
          scc::SemiSccFits(backend, nodes, io::MemoryBudget(memory - 1)))
          << name;
      auto ctx = MakeTestContext(memory, /*block_size=*/256);
      // Every id listed as a node, so |V| is exactly `nodes`.
      std::vector<graph::NodeId> all(nodes);
      for (std::uint32_t i = 0; i < nodes; ++i) all[i] = i;
      const auto g = graph::MakeDiskGraph(
          ctx.get(), gen::RandomDigraphEdges(nodes, edges, seed), all);
      ASSERT_EQ(g.num_nodes, nodes);
      const std::string out = ctx->NewTempPath("scc");
      graph::SccId next = 0;
      // The named backend runs: BR-tree's footprint exceeds colouring's
      // at these sizes, so M = colouring's leaves BR-tree out.
      EXPECT_EQ(scc::RunSemiScc(backend, ctx.get(), g, out, &next).backend,
                backend)
          << name;
      EXPECT_EQ(ctx->memory().used_bytes(), 0u) << name;
      testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, name);
    }
  }
}

// ---- property sweep: BR-tree == coloring == oracle on random graphs ----

class BrTreeSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, testing::IdLayout>> {};

TEST_P(BrTreeSweep, MatchesOracle) {
  const auto [nodes, edges, seed, layout] = GetParam();
  RunAndVerify(testing::MapIds(
      gen::RandomDigraphEdges(nodes, edges, seed,
                              /*allow_degenerate=*/seed % 2 == 0),
      layout));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BrTreeSweep,
    ::testing::Combine(::testing::Values(20, 100, 400),
                       ::testing::Values(30, 200, 1200),
                       ::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::kAllIdLayouts)));

}  // namespace
}  // namespace extscc
