// End-to-end integration: full pipelines on generated workloads under
// many (M, B) machine configurations, I/O-accounting sanity (Ext-SCC is
// scan/sort dominated; DFS-SCC is random-I/O dominated), INF censoring,
// and corrupt-input handling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/dfs_scc.h"
#include "core/ext_scc.h"
#include "gen/synthetic_generator.h"
#include "gen/webgraph_generator.h"
#include "graph/disk_graph.h"
#include "graph/graph_io.h"
#include "io/record_stream.h"
#include "scc/scc_verify.h"
#include "scc/semi_external_scc.h"
#include "test_util.h"

namespace extscc {
namespace {

using core::ExtSccOptions;
using testing::MakeTestContext;

struct MachineConfig {
  std::uint64_t memory;
  std::size_t block;
};

class MachineSweep : public ::testing::TestWithParam<MachineConfig> {};

TEST_P(MachineSweep, SyntheticWorkloadEndToEnd) {
  const auto config = GetParam();
  auto ctx = MakeTestContext(config.memory, config.block);
  gen::SyntheticParams params;
  params.num_nodes = 800;
  params.avg_degree = 3.0;
  params.sccs = {{2, 50}, {8, 10}};
  params.seed = 90;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const auto oracle = scc::OraclePartition(ctx.get(), g);
  for (const bool op : {false, true}) {
    const std::string out = ctx->NewTempPath("out");
    auto result = core::RunExtScc(
        ctx.get(), g, out,
        op ? ExtSccOptions::Optimized() : ExtSccOptions::Basic());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto partition = scc::LoadSccResult(ctx.get(), out);
    ASSERT_TRUE(scc::SamePartition(oracle, partition))
        << "M=" << config.memory << " B=" << config.block << " op=" << op
        << ": " << scc::ExplainPartitionDifference(oracle, partition);
    // Contraction ran iff the node set exceeds the semi-external budget.
    const bool fits =
        scc::SemiExternalScc::Fits(g.num_nodes, ctx->memory());
    EXPECT_EQ(result.value().num_levels() == 0, fits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, MachineSweep,
    ::testing::Values(MachineConfig{4 << 10, 256},   // ~480-node budget
                      MachineConfig{8 << 10, 512},
                      MachineConfig{16 << 10, 1024},
                      MachineConfig{1 << 20, 4096}));  // everything fits

TEST(IoProfileTest, ExtSccIsSequentialDominated) {
  auto ctx = MakeTestContext(/*memory_bytes=*/4 << 10, /*block_size=*/256);
  gen::SyntheticParams params;
  params.num_nodes = 1000;
  params.avg_degree = 3.0;
  params.sccs = {{4, 25}};
  params.seed = 91;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const auto before = ctx->stats();
  const std::string out = ctx->NewTempPath("out");
  ASSERT_TRUE(
      core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized()).ok());
  const auto delta = ctx->stats() - before;
  // The paper's design point: contraction/expansion use only scans and
  // sorts. Random I/Os arise only from stream (re)opens, so sequential
  // traffic must dominate clearly.
  EXPECT_GT(delta.sequential_reads + delta.sequential_writes,
            3 * delta.random_ios())
      << delta.ToString();
}

TEST(IoProfileTest, DfsSccIsRandomDominatedRelativeToExtScc) {
  gen::WebGraphParams params;
  params.num_nodes = 1200;
  params.avg_out_degree = 5.0;
  params.seed = 92;

  // DFS-SCC run.
  std::uint64_t dfs_random, dfs_total;
  {
    auto ctx = MakeTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/512);
    const auto g = gen::GenerateWebGraph(ctx.get(), params);
    const auto before = ctx->stats();
    const std::string out = ctx->NewTempPath("out");
    ASSERT_TRUE(baseline::RunDfsScc(ctx.get(), g, out).ok());
    const auto delta = ctx->stats() - before;
    dfs_random = delta.random_ios();
    dfs_total = delta.total_ios();
  }
  // Ext-SCC run on the identical machine + workload.
  std::uint64_t ext_random, ext_total;
  {
    auto ctx = MakeTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/512);
    const auto g = gen::GenerateWebGraph(ctx.get(), params);
    const auto before = ctx->stats();
    const std::string out = ctx->NewTempPath("out");
    ASSERT_TRUE(
        core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized()).ok());
    const auto delta = ctx->stats() - before;
    ext_random = delta.random_ios();
    ext_total = delta.total_ios();
  }
  const double dfs_ratio =
      static_cast<double>(dfs_random) / static_cast<double>(dfs_total);
  const double ext_ratio =
      static_cast<double>(ext_random) / static_cast<double>(ext_total);
  EXPECT_GT(dfs_ratio, 2 * ext_ratio)
      << "dfs random ratio " << dfs_ratio << " vs ext " << ext_ratio;
}

TEST(CensoringTest, DfsSccInfUnderExtSccDerivedBudget) {
  // The benches censor DFS-SCC at a multiple of Ext-SCC's I/O count;
  // verify the mechanism end to end on a workload where DFS-SCC needs
  // far more I/Os.
  gen::WebGraphParams params;
  params.num_nodes = 1500;
  params.seed = 93;
  std::uint64_t ext_ios;
  {
    auto ctx = MakeTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/512);
    const auto g = gen::GenerateWebGraph(ctx.get(), params);
    const std::string out = ctx->NewTempPath("out");
    auto result =
        core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized());
    ASSERT_TRUE(result.ok());
    ext_ios = result.value().total_ios;
  }
  {
    auto ctx = MakeTestContext(/*memory_bytes=*/8 << 10, /*block_size=*/512);
    const auto g = gen::GenerateWebGraph(ctx.get(), params);
    ctx->set_io_budget(ctx->stats().total_ios() + ext_ios / 4);
    const std::string out = ctx->NewTempPath("out");
    auto result = baseline::RunDfsScc(ctx.get(), g, out);
    ASSERT_FALSE(result.ok()) << "DFS-SCC should blow a quarter of "
                                 "Ext-SCC's budget on this workload";
    EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
  }
}

TEST(RobustnessTest, TextPipelineEndToEnd) {
  auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20);
  // Write a text graph, load it, solve it, save labels next to it.
  // (A real filesystem path: text input is user-facing, and scratch
  // paths are virtual names under the mem test matrix.)
  const testing::ScopedTempPath text("input.txt");
  testing::WriteTextFile(text.path(), "# demo\n1 2\n2 3\n3 1\n3 4\n");
  auto loaded = graph::LoadTextEdgeList(ctx.get(), text.path());
  ASSERT_TRUE(loaded.ok());
  const std::string out = ctx->NewTempPath("scc");
  auto result = core::RunExtScc(ctx.get(), loaded.value(), out,
                                ExtSccOptions::Optimized());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_sccs, 2u);  // {1,2,3} and {4}
}

TEST(RobustnessTest, RepeatedRunsAreDeterministic) {
  gen::SyntheticParams params;
  params.num_nodes = 500;
  params.avg_degree = 3.0;
  params.sccs = {{3, 20}};
  params.seed = 94;
  std::vector<std::uint64_t> ios;
  std::vector<std::uint64_t> sccs;
  for (int run = 0; run < 2; ++run) {
    auto ctx = MakeTestContext(/*memory_bytes=*/4 << 10, /*block_size=*/256);
    const auto g = gen::GenerateSynthetic(ctx.get(), params);
    const std::string out = ctx->NewTempPath("out");
    auto result =
        core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized());
    ASSERT_TRUE(result.ok());
    ios.push_back(result.value().total_ios);
    sccs.push_back(result.value().num_sccs);
  }
  EXPECT_EQ(ios[0], ios[1]) << "same graph + machine => same I/O count";
  EXPECT_EQ(sccs[0], sccs[1]);
}

}  // namespace
}  // namespace extscc
