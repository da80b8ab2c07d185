#include "app/bowtie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/ext_scc.h"
#include "gen/classic_graphs.h"
#include "gen/rmat_generator.h"
#include "gen/webgraph_generator.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "io/record_stream.h"
#include "scc/condensation.h"
#include "test_util.h"

namespace extscc {
namespace {

using app::BowtieDecompose;
using app::BowtieRegion;
using app::BowtieResult;
using graph::Edge;
using graph::NodeId;
using testing::MakeTestContext;

// The serve artifact's bow-tie (serve::WriteDerivedSections) is
// BowtieSizesFromDag over the condensation, around the lowest-labelled
// largest SCC. BowtieDecompose, which scans the edge file, is its
// reference: the core SCC and all four region sizes must agree exactly.
void ExpectDagSizesMatchReference(io::IoContext* ctx,
                                  const graph::DiskGraph& g,
                                  const std::string& scc_path,
                                  const BowtieResult& reference) {
  const auto condensation = scc::BuildCondensation(ctx, g, scc_path);
  const graph::Digraph dag(
      io::ReadAllRecords<NodeId>(ctx, condensation.dag.node_path),
      io::ReadAllRecords<Edge>(ctx, condensation.dag.edge_path));
  std::vector<std::uint64_t> sizes(dag.num_nodes(), 0);
  for (const graph::SccEntry& entry :
       io::ReadAllRecords<graph::SccEntry>(ctx, scc_path)) {
    ++sizes[dag.index_of(entry.scc)];
  }
  // max_element returns the first maximum: the lowest label on a tie.
  const std::size_t core =
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin();
  const app::DagBowtieSizes from_dag =
      app::BowtieSizesFromDag(dag, sizes, core);
  EXPECT_EQ(dag.id_of(core), reference.core_scc);
  EXPECT_EQ(from_dag.core_size, reference.core_size);
  EXPECT_EQ(from_dag.in_size, reference.in_size);
  EXPECT_EQ(from_dag.out_size, reference.out_size);
  EXPECT_EQ(from_dag.other_size, reference.other_size);
}

// Runs Ext-SCC then the decomposition, cross-checks the DAG sizes
// against it; returns (result, node -> region).
std::pair<BowtieResult, std::map<NodeId, BowtieRegion>> DecomposeGraph(
    io::IoContext* ctx, const graph::DiskGraph& g) {
  const std::string scc_path = ctx->NewTempPath("scc");
  EXPECT_TRUE(core::RunExtScc(ctx, g, scc_path,
                              core::ExtSccOptions::Optimized())
                  .ok());
  auto result = BowtieDecompose(ctx, g, scc_path);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ExpectDagSizesMatchReference(ctx, g, scc_path, result.value());
  std::map<NodeId, BowtieRegion> regions;
  io::RecordReader<graph::SccEntry> reader(ctx, result.value().region_path);
  graph::SccEntry entry;
  while (reader.Next(&entry)) {
    regions[entry.node] = static_cast<BowtieRegion>(entry.scc);
  }
  return {result.value(), regions};
}

TEST(BowtieTest, HandBuiltBowtie) {
  // in1 -> in2 -> {core triangle 10,11,12} -> out1 -> out2, plus island.
  const std::vector<Edge> edges{{1, 2},   {2, 10},  {10, 11}, {11, 12},
                                {12, 10}, {12, 20}, {20, 21}};
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), edges, /*extra=*/{99});
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_EQ(result.core_size, 3u);
  EXPECT_EQ(result.in_size, 2u);
  EXPECT_EQ(result.out_size, 2u);
  EXPECT_EQ(result.other_size, 1u);
  EXPECT_EQ(regions.at(10), BowtieRegion::kCore);
  EXPECT_EQ(regions.at(1), BowtieRegion::kIn);
  EXPECT_EQ(regions.at(2), BowtieRegion::kIn);
  EXPECT_EQ(regions.at(20), BowtieRegion::kOut);
  EXPECT_EQ(regions.at(21), BowtieRegion::kOut);
  EXPECT_EQ(regions.at(99), BowtieRegion::kOther);
}

TEST(BowtieTest, TendrilOffInIsOther) {
  // in -> core(2-cycle); tendril hangs off the IN node but never reaches
  // the core: Broder's "tendril", classified OTHER.
  const std::vector<Edge> edges{{1, 10}, {10, 11}, {11, 10}, {1, 50}};
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_EQ(regions.at(1), BowtieRegion::kIn);
  EXPECT_EQ(regions.at(50), BowtieRegion::kOther);
  EXPECT_EQ(result.other_size, 1u);
}

TEST(BowtieTest, WholeGraphOneScc) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(12));
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_EQ(result.core_size, 12u);
  EXPECT_EQ(result.in_size + result.out_size + result.other_size, 0u);
}

TEST(BowtieTest, PathCoreIsSomeSingleton) {
  // All SCCs are singletons: the "largest" is one of them; everything
  // before it is IN, after it OUT (a path is all one weak component).
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::PathEdges(9));
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_EQ(result.core_size, 1u);
  EXPECT_EQ(result.core_size + result.in_size + result.out_size +
                result.other_size,
            9u);
  EXPECT_EQ(result.other_size, 0u);
}

TEST(BowtieTest, EmptyGraphRejected) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), {});
  const std::string scc_path = ctx->NewTempPath("scc");
  ASSERT_TRUE(core::RunExtScc(ctx.get(), g, scc_path,
                              core::ExtSccOptions::Basic())
                  .ok());
  auto result = BowtieDecompose(ctx.get(), g, scc_path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(BowtieTest, WebGraphHasBowtieStructure) {
  // The UK2007 stand-in generator is built to produce a bow-tie: a giant
  // core plus non-trivial periphery (see gen/webgraph_generator.h).
  auto ctx = MakeTestContext(/*memory_bytes=*/8 << 20);
  gen::WebGraphParams params;
  params.num_nodes = 4000;
  params.seed = 21;
  const auto g = gen::GenerateWebGraph(ctx.get(), params);
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_GT(result.core_size, g.num_nodes / 10) << "giant core expected";
  EXPECT_GT(result.in_size + result.out_size + result.other_size, 0u)
      << "periphery expected";
  EXPECT_EQ(result.core_size + result.in_size + result.out_size +
                result.other_size,
            g.num_nodes);
}

TEST(BowtieTest, RmatGraphHasEveryRegion) {
  // A 20K-node R-MAT graph (`extscc_tool generate rmat 20000 .. 1`):
  // unlike the web generator's, its bow-tie has non-empty OUT and OTHER
  // regions, so every size the DAG path computes is checked.
  auto ctx = MakeTestContext(/*memory_bytes=*/8 << 20);
  gen::RmatParams params;
  params.num_nodes = 20000;
  params.num_edges = 4 * params.num_nodes;
  params.seed = 1;
  const auto g = gen::GenerateRmat(ctx.get(), params);
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_GT(result.in_size, 0u);
  EXPECT_GT(result.out_size, 0u);
  EXPECT_GT(result.other_size, 0u);
}

TEST(BowtieTest, DagCoreIsLowestLabelledSingleton) {
  // Every SCC of a DAG is a singleton, so the largest SCC is a tie
  // among all of them; both paths must break it the same way.
  auto ctx = MakeTestContext(/*memory_bytes=*/8 << 20);
  const auto g =
      graph::MakeDiskGraph(ctx.get(), gen::RandomDagEdges(2000, 6000, 1));
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);
  EXPECT_EQ(result.core_size, 1u);
  EXPECT_EQ(result.core_size + result.in_size + result.out_size +
                result.other_size,
            g.num_nodes);
}

TEST(BowtieTest, RegionNames) {
  EXPECT_STREQ(app::BowtieRegionName(BowtieRegion::kCore), "CORE");
  EXPECT_STREQ(app::BowtieRegionName(BowtieRegion::kIn), "IN");
  EXPECT_STREQ(app::BowtieRegionName(BowtieRegion::kOut), "OUT");
  EXPECT_STREQ(app::BowtieRegionName(BowtieRegion::kOther), "OTHER");
}

// Property sweep: regions must agree with in-memory BFS reachability
// from/to the largest SCC.
class BowtieSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BowtieSweep, MatchesBfsOracle) {
  const auto [edges_count, seed] = GetParam();
  const auto edges = gen::RandomDigraphEdges(120, edges_count, seed);
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);
  const auto [result, regions] = DecomposeGraph(ctx.get(), g);

  const auto nodes = io::ReadAllRecords<NodeId>(ctx.get(), g.node_path);
  graph::Digraph mem(nodes, edges);
  // BFS closure helper over dense indices.
  auto closure = [&](const std::vector<bool>& seed_set, bool forward) {
    std::vector<bool> seen = seed_set;
    std::vector<std::size_t> stack;
    for (std::size_t v = 0; v < mem.num_nodes(); ++v) {
      if (seen[v]) stack.push_back(v);
    }
    while (!stack.empty()) {
      const auto v = stack.back();
      stack.pop_back();
      const auto nbrs = forward ? mem.out_neighbors(v) : mem.in_neighbors(v);
      for (const auto w : nbrs) {
        if (!seen[w]) {
          seen[w] = true;
          stack.push_back(w);
        }
      }
    }
    return seen;
  };
  std::vector<bool> core_set(mem.num_nodes(), false);
  for (const auto& [node, region] : regions) {
    if (region == BowtieRegion::kCore) {
      core_set[mem.index_of(node)] = true;
    }
  }
  const auto fwd = closure(core_set, /*forward=*/true);
  const auto bwd = closure(core_set, /*forward=*/false);
  for (const auto& [node, region] : regions) {
    const auto idx = mem.index_of(node);
    BowtieRegion expected;
    if (core_set[idx]) {
      expected = BowtieRegion::kCore;
    } else if (bwd[idx]) {
      expected = BowtieRegion::kIn;
    } else if (fwd[idx]) {
      expected = BowtieRegion::kOut;
    } else {
      expected = BowtieRegion::kOther;
    }
    ASSERT_EQ(region, expected) << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BowtieSweep,
                         ::testing::Combine(::testing::Values(80, 200, 500),
                                            ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace extscc
