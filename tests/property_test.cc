// Cross-algorithm property suite: every SCC algorithm in the library must
// induce the same partition on the same graph, across a randomized corpus
// of shapes (ER digraphs, DAGs, planted SCCs, webgraphs, degenerate
// inputs), and the §V invariants must hold level by level.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/dfs_scc.h"
#include "baseline/em_scc.h"
#include "baseline/semi_dfs_scc.h"
#include "scc/br_tree_scc.h"
#include "core/ext_scc.h"
#include "gen/classic_graphs.h"
#include "gen/rmat_generator.h"
#include "gen/synthetic_generator.h"
#include "gen/webgraph_generator.h"
#include "graph/disk_graph.h"
#include "scc/scc_verify.h"
#include "scc/semi_external_scc.h"
#include "test_util.h"

namespace extscc {
namespace {

using core::ExtSccOptions;
using graph::Edge;
using testing::MakeTestContext;

struct Corpus {
  std::string name;
  std::vector<Edge> edges;
  std::vector<graph::NodeId> extra_nodes;
};

std::vector<Corpus> BuildCorpus() {
  std::vector<Corpus> corpus;
  corpus.push_back({"fig1", gen::Fig1Edges(), {}});
  corpus.push_back({"cycle64", gen::CycleEdges(64), {}});
  corpus.push_back({"path64", gen::PathEdges(64), {}});
  corpus.push_back({"complete8", gen::CompleteDigraphEdges(8), {}});
  corpus.push_back({"chains", gen::CycleChainEdges(8, 7), {}});
  corpus.push_back({"dag", gen::RandomDagEdges(120, 500, 51), {}});
  corpus.push_back(
      {"er_sparse", gen::RandomDigraphEdges(150, 200, 52, true), {}});
  corpus.push_back(
      {"er_dense", gen::RandomDigraphEdges(120, 1200, 53, true), {}});
  corpus.push_back({"isolated", {{1, 2}, {2, 1}}, {100, 200, 300}});
  corpus.push_back({"selfloops",
                    {{1, 1}, {2, 2}, {1, 2}, {2, 3}, {3, 1}},
                    {9}});
  return corpus;
}

// All-algorithms agreement on every corpus entry, under a budget tight
// enough to force Ext-SCC contraction.
TEST(CrossAlgorithmTest, AllAlgorithmsAgreeOnCorpus) {
  for (const auto& entry : BuildCorpus()) {
    SCOPED_TRACE(entry.name);
    auto ctx = MakeTestContext(/*memory_bytes=*/2048, /*block_size=*/256);
    const auto g =
        graph::MakeDiskGraph(ctx.get(), entry.edges, entry.extra_nodes);
    const auto oracle = scc::OraclePartition(ctx.get(), g);

    // Ext-SCC basic + optimized.
    for (const bool op : {false, true}) {
      const std::string out = ctx->NewTempPath("ext");
      auto result = core::RunExtScc(
          ctx.get(), g, out,
          op ? ExtSccOptions::Optimized() : ExtSccOptions::Basic());
      ASSERT_TRUE(result.ok())
          << entry.name << ": " << result.status().ToString();
      const auto partition = scc::LoadSccResult(ctx.get(), out);
      EXPECT_TRUE(scc::SamePartition(oracle, partition))
          << entry.name << (op ? " op: " : " basic: ")
          << scc::ExplainPartitionDifference(oracle, partition);
    }

    // DFS-SCC (uncensored).
    {
      const std::string out = ctx->NewTempPath("dfs");
      auto result = baseline::RunDfsScc(ctx.get(), g, out);
      ASSERT_TRUE(result.ok()) << entry.name;
      const auto partition = scc::LoadSccResult(ctx.get(), out);
      EXPECT_TRUE(scc::SamePartition(oracle, partition))
          << entry.name << " dfs: "
          << scc::ExplainPartitionDifference(oracle, partition);
    }

    // EM-SCC: must either agree or stall (never a wrong answer).
    {
      const std::string out = ctx->NewTempPath("em");
      auto result = baseline::RunEmScc(ctx.get(), g, out);
      if (result.ok()) {
        const auto partition = scc::LoadSccResult(ctx.get(), out);
        EXPECT_TRUE(scc::SamePartition(oracle, partition))
            << entry.name << " em: "
            << scc::ExplainPartitionDifference(oracle, partition);
      } else {
        EXPECT_EQ(result.status().code(),
                  util::StatusCode::kFailedPrecondition)
            << entry.name;
      }
    }

    // Ext-SCC with the BR-tree base case — identical partition again.
    {
      auto roomy = MakeTestContext(/*memory_bytes=*/2048,
                                   /*block_size=*/256);
      const auto g2 =
          graph::MakeDiskGraph(roomy.get(), entry.edges, entry.extra_nodes);
      const std::string out = roomy->NewTempPath("ext_brt");
      ExtSccOptions options = ExtSccOptions::Optimized();
      options.semi_backend = scc::SemiSccBackend::kBrTree;
      auto result = core::RunExtScc(roomy.get(), g2, out, options);
      ASSERT_TRUE(result.ok())
          << entry.name << ": " << result.status().ToString();
      const auto partition = scc::LoadSccResult(roomy.get(), out);
      EXPECT_TRUE(scc::SamePartition(oracle, partition))
          << entry.name << " brtree: "
          << scc::ExplainPartitionDifference(oracle, partition);
    }

    // Semi-DFS-SCC needs c*|V| in memory: give it a roomy context.
    {
      auto roomy = MakeTestContext();
      const auto g2 =
          graph::MakeDiskGraph(roomy.get(), entry.edges, entry.extra_nodes);
      const std::string out = roomy->NewTempPath("sdfs");
      auto result = baseline::SemiDfsScc::Run(roomy.get(), g2, out);
      ASSERT_TRUE(result.ok()) << entry.name;
      const auto partition = scc::LoadSccResult(roomy.get(), out);
      EXPECT_TRUE(scc::SamePartition(oracle, partition))
          << entry.name << " semi-dfs: "
          << scc::ExplainPartitionDifference(oracle, partition);
    }
  }
}

// R-MAT graphs: heavy-tailed hubs are the adversarial case for the
// vertex-cover contraction (hubs never leave the cover) and the E_add
// fan-out bound (Theorem 5.4).
TEST(CrossAlgorithmTest, RmatGraphsAgreeWithOracle) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    auto ctx = MakeTestContext(/*memory_bytes=*/4096, /*block_size=*/512);
    gen::RmatParams params;
    params.num_nodes = 600;
    params.num_edges = 2400;
    params.seed = seed;
    const auto g = gen::GenerateRmat(ctx.get(), params);
    const auto oracle = scc::OraclePartition(ctx.get(), g);
    for (const bool op : {false, true}) {
      const std::string out = ctx->NewTempPath("ext");
      auto result = core::RunExtScc(
          ctx.get(), g, out,
          op ? ExtSccOptions::Optimized() : ExtSccOptions::Basic());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GE(result.value().num_levels(), 1u)
          << "node set must not fit at this budget";
      const auto partition = scc::LoadSccResult(ctx.get(), out);
      EXPECT_TRUE(scc::SamePartition(oracle, partition))
          << scc::ExplainPartitionDifference(oracle, partition);
    }
  }
}

// Randomized sweep: Ext-SCC (both modes) vs oracle over a larger seed
// grid than the per-module suites.
class ExtSccRandomSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(ExtSccRandomSweep, MatchesOracle) {
  const auto [nodes, density, seed] = GetParam();
  const auto edges = gen::RandomDigraphEdges(
      nodes, static_cast<std::uint64_t>(nodes * density), seed,
      /*allow_degenerate=*/true);
  auto ctx = MakeTestContext(/*memory_bytes=*/
                             scc::SemiExternalScc::StateBytes(48),
                             /*block_size=*/128);
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);
  const auto oracle = scc::OraclePartition(ctx.get(), g);
  for (const bool op : {false, true}) {
    const std::string out = ctx->NewTempPath("out");
    auto result = core::RunExtScc(
        ctx.get(), g, out,
        op ? ExtSccOptions::Optimized() : ExtSccOptions::Basic());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto partition = scc::LoadSccResult(ctx.get(), out);
    ASSERT_TRUE(scc::SamePartition(oracle, partition))
        << "nodes=" << nodes << " density=" << density << " seed=" << seed
        << " op=" << op << ": "
        << scc::ExplainPartitionDifference(oracle, partition);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedGrid, ExtSccRandomSweep,
    ::testing::Combine(::testing::Values(60, 120, 200),
                       ::testing::Values(0.5, 1.5, 3.0),
                       ::testing::Values(101, 102, 103)));

// Planted-SCC workloads: the generated structure must be recovered
// exactly by Ext-SCC under contraction pressure.
TEST(PlantedSccTest, ExtSccRecoversPlantedStructure) {
  auto ctx = MakeTestContext(/*memory_bytes=*/
                             scc::SemiExternalScc::StateBytes(64),
                             /*block_size=*/256);
  gen::SyntheticParams params;
  params.num_nodes = 600;
  params.sccs = {{2, 60}, {5, 8}};
  params.extra_random_edges = false;
  params.seed = 77;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const std::string out = ctx->NewTempPath("out");
  auto result =
      core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto partition = scc::LoadSccResult(ctx.get(), out);
  auto sizes = partition.SortedComponentSizes();
  ASSERT_GE(sizes.size(), 7u);
  EXPECT_EQ(sizes[0], 60u);
  EXPECT_EQ(sizes[1], 60u);
  for (int i = 2; i < 7; ++i) EXPECT_EQ(sizes[i], 8u);
}

// Webgraph under contraction pressure, both modes agree with the oracle.
TEST(WebGraphPropertyTest, ExtSccCorrectOnWebGraph) {
  auto ctx = MakeTestContext(/*memory_bytes=*/
                             scc::SemiExternalScc::StateBytes(384),
                             /*block_size=*/512);
  gen::WebGraphParams params;
  params.num_nodes = 1500;
  params.avg_out_degree = 5.0;
  params.seed = 88;
  const auto g = gen::GenerateWebGraph(ctx.get(), params);
  const auto oracle = scc::OraclePartition(ctx.get(), g);
  for (const bool op : {false, true}) {
    const std::string out = ctx->NewTempPath("out");
    auto result = core::RunExtScc(
        ctx.get(), g, out,
        op ? ExtSccOptions::Optimized() : ExtSccOptions::Basic());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto partition = scc::LoadSccResult(ctx.get(), out);
    ASSERT_TRUE(scc::SamePartition(oracle, partition))
        << scc::ExplainPartitionDifference(oracle, partition);
  }
}

}  // namespace
}  // namespace extscc
