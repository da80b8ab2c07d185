// Reachability (the paper's application 2) through the serve artifact,
// the one reachability index: `serve::BuildArtifact` solves and
// publishes, `ArtifactReader::Open` loads the condensation DAG and its
// interval labels, and each test asks its pairs as one kReachable
// `QueryEngine` batch, checked against BFS on small fixed and random
// graphs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "app/interval_labels.h"
#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;
using serve::ArtifactReader;
using serve::Query;
using serve::QueryAnswer;
using serve::QueryBatchStats;
using serve::QueryType;
using testing::MakeTestContext;

// Builds an artifact over `edges` plus isolated `extra_nodes` and asks
// every (u, v) of `pairs` as one kReachable batch.
struct ReachBatch {
  serve::ArtifactSummary summary{};
  std::vector<QueryAnswer> answers;
  QueryBatchStats stats;
};

ReachBatch RunReachBatch(
    const std::vector<Edge>& edges, const std::vector<NodeId>& extra_nodes,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  ReachBatch out;
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), edges, extra_nodes);
  const std::string path = ctx->NewTempPath("artifact");
  auto built = serve::BuildArtifact(ctx.get(), g, path);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  auto opened = ArtifactReader::Open(ctx.get(), path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  out.summary = opened.value().summary();
  std::vector<Query> queries;
  for (const auto& [u, v] : pairs) {
    queries.push_back({QueryType::kReachable, u, v});
  }
  out.answers.resize(queries.size());
  const util::Status ran = serve::QueryEngine(&opened.value())
                               .RunBatch(ctx.get(), queries.data(),
                                         queries.size(), out.answers.data(),
                                         &out.stats);
  EXPECT_TRUE(ran.ok()) << ran.ToString();
  return out;
}

// Asks `pairs` as one batch and checks every answer against BFS.
void ExpectPairsMatchOracle(
    const std::vector<Edge>& edges, const std::vector<NodeId>& extra_nodes,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  const graph::Digraph oracle(extra_nodes, edges);
  const ReachBatch batch = RunReachBatch(edges, extra_nodes, pairs);
  ASSERT_EQ(batch.answers.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    ASSERT_TRUE(batch.answers[i].known) << u << " -> " << v;
    ASSERT_EQ(batch.answers[i].result, testing::OracleReach(oracle, u, v))
        << u << " -> " << v;
  }
}

// Every ordered pair of the graph's nodes.
void ExpectAllPairsMatchOracle(const std::vector<Edge>& edges,
                               const std::vector<NodeId>& extra_nodes = {}) {
  const graph::Digraph g(extra_nodes, edges);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId u : g.ids()) {
    for (const NodeId v : g.ids()) pairs.emplace_back(u, v);
  }
  ExpectPairsMatchOracle(edges, extra_nodes, pairs);
}

TEST(ReachabilityIndexTest, Fig1AllPairs) {
  ExpectAllPairsMatchOracle(gen::Fig1Edges());
}

TEST(ReachabilityIndexTest, PathAllPairs) {
  ExpectAllPairsMatchOracle(gen::PathEdges(24));
}

TEST(ReachabilityIndexTest, CycleEverythingReachesEverything) {
  ExpectAllPairsMatchOracle(gen::CycleEdges(16));
}

TEST(ReachabilityIndexTest, IsolatedNodesReachOnlyThemselves) {
  ExpectAllPairsMatchOracle(gen::PathEdges(4), /*extra_nodes=*/{90, 91});
}

TEST(ReachabilityIndexTest, CycleChainsAllPairs) {
  ExpectAllPairsMatchOracle(gen::CycleChainEdges(4, 4));
}

TEST(ReachabilityIndexTest, IntervalLabelsRefuteMostNegativeQueries) {
  // On a path the DAG is a chain and interval containment is exact, so
  // every negative query is refuted by the intervals alone.
  std::vector<std::pair<NodeId, NodeId>> negatives;
  for (NodeId u = 0; u < 64; ++u) {
    for (NodeId v = 0; v < u; ++v) negatives.emplace_back(u, v);
  }
  const ReachBatch batch =
      RunReachBatch(gen::PathEdges(64), {}, negatives);
  ASSERT_EQ(batch.answers.size(), negatives.size());
  for (const QueryAnswer& a : batch.answers) {
    ASSERT_TRUE(a.known);
    ASSERT_FALSE(a.result);  // path edges point forward
  }
  EXPECT_EQ(batch.stats.labels.queries, negatives.size());
  EXPECT_EQ(batch.stats.labels.interval_refutations, negatives.size());
  EXPECT_EQ(batch.stats.labels.dfs_fallbacks, 0u);
}

TEST(ReachabilityIndexTest, DagStatsMatchCondensation) {
  // Two 4-cycles joined by one edge: 2 DAG nodes, 1 DAG edge.
  std::vector<Edge> edges = gen::CycleEdges(4);
  for (const Edge& e : gen::CycleEdges(4)) {
    edges.push_back({e.src + 10, e.dst + 10});
  }
  edges.push_back({0, 10});
  const ReachBatch batch = RunReachBatch(edges, {}, {{0, 13}, {13, 0}});
  EXPECT_EQ(batch.summary.dag_nodes, 2u);
  EXPECT_EQ(batch.summary.dag_edges, 1u);
  ASSERT_EQ(batch.answers.size(), 2u);
  EXPECT_TRUE(batch.answers[0].result);
  EXPECT_FALSE(batch.answers[1].result);
}

// An artifact may carry any round count >= 1; one round alone must
// still answer exactly (through the DFS fallback).
TEST(ReachabilityIndexTest, SingleLabelStillCorrect) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const graph::Digraph dag(gen::RandomDagEdges(40, 100, seed));
    const app::IntervalLabels labels =
        app::IntervalLabels::Build(dag, /*num_rounds=*/1, seed);
    for (const NodeId u : dag.ids()) {
      for (const NodeId v : dag.ids()) {
        ASSERT_EQ(labels.SccReachable(u, v), testing::OracleReach(dag, u, v))
            << "seed " << seed << ": " << u << " -> " << v;
      }
    }
  }
}

// Random graphs: 300 sampled pairs each against the BFS oracle.
class ReachabilitySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ReachabilitySweep, MatchesOracleOnSampledPairs) {
  const auto [nodes, num_edges, seed] = GetParam();
  const auto edges = gen::RandomDigraphEdges(nodes, num_edges, seed);
  const graph::Digraph g(edges);
  util::Rng rng(seed * 1000 + 7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int q = 0; q < 300; ++q) {
    const NodeId u = g.id_of(rng.Uniform(g.num_nodes()));
    const NodeId v = g.id_of(rng.Uniform(g.num_nodes()));
    pairs.emplace_back(u, v);
  }
  ExpectPairsMatchOracle(edges, {}, pairs);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ReachabilitySweep,
    ::testing::Combine(::testing::Values(30, 120), ::testing::Values(60, 360),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace extscc
