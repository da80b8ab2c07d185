#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "core/ext_scc.h"
#include "gen/classic_graphs.h"
#include "graph/disk_graph.h"
#include "io/record_stream.h"
#include "scc/scc_verify.h"
#include "test_util.h"

namespace extscc {
namespace {

using core::ExtSccOptions;
using core::RunExtScc;
using graph::Edge;
using graph::NodeId;
using testing::MakeTestContext;

// Budget small enough that only `max_semi_nodes` nodes can be solved by
// the (default) colouring base case — forces contraction iterations for
// anything larger. Block size shrinks with the budget to respect the
// model's M >= 2B.
std::unique_ptr<io::IoContext> TightContext(std::uint64_t max_semi_nodes) {
  const std::uint64_t memory =
      scc::SemiExternalScc::StateBytes(max_semi_nodes);
  const auto block = static_cast<std::size_t>(
      std::max<std::uint64_t>(32, std::min<std::uint64_t>(1024, memory / 2)));
  return MakeTestContext(memory, block);
}

void RunAndVerify(io::IoContext* ctx, const graph::DiskGraph& g,
                  const ExtSccOptions& options, const char* label,
                  std::uint32_t min_levels = 0) {
  const std::string out = ctx->NewTempPath("scc_out");
  auto result = RunExtScc(ctx, g, out, options);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  EXPECT_GE(result.value().num_levels(), min_levels) << label;
  testing::ExpectSccFileMatchesOracle(ctx, g, out, label);
  EXPECT_EQ(io::NumRecordsInFile<graph::SccEntry>(ctx, out), g.num_nodes)
      << label;
}

TEST(ExtSccTest, Fig1NoContractionNeeded) {
  auto ctx = MakeTestContext();  // 1 MB: 13 nodes easily fit
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::Fig1Edges());
  const std::string out = ctx->NewTempPath("out");
  auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Basic());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_levels(), 0u);
  EXPECT_EQ(result.value().num_sccs, 5u);
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "fig1");
}

TEST(ExtSccTest, Fig1ForcedContraction) {
  // Allow at most 4 nodes in memory: the 13-node graph needs contracting,
  // mirroring Example 5.1's walkthrough (M holds three nodes there).
  auto ctx = TightContext(4);
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::Fig1Edges());
  RunAndVerify(ctx.get(), g, ExtSccOptions::Basic(), "fig1-contracted",
               /*min_levels=*/1);
  auto ctx2 = TightContext(4);
  const auto g2 = graph::MakeDiskGraph(ctx2.get(), gen::Fig1Edges());
  RunAndVerify(ctx2.get(), g2, ExtSccOptions::Optimized(),
               "fig1-contracted-op", /*min_levels=*/1);
}

TEST(ExtSccTest, BrTreeBackendForcedContraction) {
  // Same forced-contraction setup, with the paper's spanning-tree base
  // case selected: the partition must match the oracle whichever
  // backend ends the contraction.
  for (const bool optimized : {false, true}) {
    auto ctx = TightContext(4);
    const auto g = graph::MakeDiskGraph(ctx.get(), gen::Fig1Edges());
    ExtSccOptions options =
        optimized ? ExtSccOptions::Optimized() : ExtSccOptions::Basic();
    options.semi_backend = scc::SemiSccBackend::kBrTree;
    RunAndVerify(ctx.get(), g, options,
                 optimized ? "fig1-brtree-op" : "fig1-brtree",
                 /*min_levels=*/1);
  }
}

TEST(ExtSccTest, EachBackendStopsAtItsOwnContract) {
  // The stop rule is the selected backend's own StateBytes(|V|) <= M:
  // every contracted level's node set exceeded it, and the base case ran
  // within it. The leaner colouring backend therefore never needs more
  // levels than BR-tree.
  auto run_levels = [](scc::SemiSccBackend backend) {
    const char* name = scc::SemiSccBackendName(backend);
    auto ctx = TightContext(30);
    const auto g = graph::MakeDiskGraph(
        ctx.get(), gen::RandomDigraphEdges(120, 360, 11));
    const std::string out = ctx->NewTempPath("scc_out");
    ExtSccOptions options = ExtSccOptions::Basic();
    options.semi_backend = backend;
    auto result = RunExtScc(ctx.get(), g, out, options);
    EXPECT_TRUE(result.ok()) << name;
    const auto& stats = result.value();
    for (const auto& iter : stats.iterations) {
      EXPECT_FALSE(scc::SemiSccFits(backend, iter.nodes, ctx->memory()))
          << name << " contracted level " << iter.level;
    }
    EXPECT_TRUE(scc::SemiSccFits(backend, stats.semi_nodes, ctx->memory()))
        << name;
    testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, name);
    return stats.num_levels();
  };
  EXPECT_LE(run_levels(scc::SemiSccBackend::kColoring),
            run_levels(scc::SemiSccBackend::kBrTree));
}

TEST(ExtSccTest, BaseCaseRunsBrTreeWheneverItFits) {
  // 0 levels under the default (colouring) stop rule either way. At
  // M = BrTreeScc::StateBytes(n) BR-tree runs, and its CHECK-failing
  // reservation of all of M shows nothing else is reserved when the base
  // case starts; one byte less, colouring's footprint still fits and
  // colouring runs instead.
  constexpr std::uint32_t kNodes = 400;
  const std::uint64_t br_tree_bytes = scc::BrTreeScc::StateBytes(kNodes);
  for (const std::uint64_t memory : {br_tree_bytes, br_tree_bytes - 1}) {
    const auto expected = memory == br_tree_bytes
                              ? scc::SemiSccBackend::kBrTree
                              : scc::SemiSccBackend::kColoring;
    const char* name = scc::SemiSccBackendName(expected);
    auto ctx = MakeTestContext(memory, /*block_size=*/1024);
    std::vector<NodeId> all(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) all[i] = i;
    const auto g = graph::MakeDiskGraph(
        ctx.get(), gen::RandomDigraphEdges(kNodes, 1600, 5), all);
    ASSERT_EQ(g.num_nodes, kNodes);
    const std::string out = ctx->NewTempPath("scc_out");
    auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized());
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(result.value().num_levels(), 0u) << name;
    EXPECT_EQ(result.value().semi.backend, expected) << name;
    testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, name);
  }
}

TEST(ExtSccTest, EmptyGraph) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), {});
  const std::string out = ctx->NewTempPath("out");
  auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Basic());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_sccs, 0u);
}

TEST(ExtSccTest, IsolatedNodesOnly) {
  auto ctx = TightContext(4);
  const auto g = graph::MakeDiskGraph(ctx.get(), {}, {1, 2, 3, 4, 5, 6, 7});
  RunAndVerify(ctx.get(), g, ExtSccOptions::Basic(), "isolated");
}

TEST(ExtSccTest, LargeCycleManyLevels) {
  auto ctx = TightContext(16);
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(200));
  const std::string out = ctx->NewTempPath("out");
  auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Basic());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().num_levels(), 2u)
      << "200 nodes -> <=16 in memory needs several halvings";
  EXPECT_EQ(result.value().num_sccs, 1u);
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "cycle200");
}

TEST(ExtSccTest, DagGraph) {
  // EM-SCC's Case-2 shape: a DAG bigger than memory. Ext-SCC must
  // terminate and label every node a singleton.
  auto ctx = TightContext(32);
  const auto g =
      graph::MakeDiskGraph(ctx.get(), gen::RandomDagEdges(300, 900, 13));
  const std::string out = ctx->NewTempPath("out");
  auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Basic());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_sccs, g.num_nodes);
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "dag");
}

TEST(ExtSccTest, StatsAreCoherent) {
  auto ctx = TightContext(48);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(150, 450, 19, true));
  const std::string out = ctx->NewTempPath("out");
  auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Basic());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& stats = result.value();
  ASSERT_GE(stats.num_levels(), 1u);
  // Node counts strictly decrease level to level (Lemma 5.2).
  for (std::size_t i = 0; i < stats.iterations.size(); ++i) {
    EXPECT_LT(stats.iterations[i].cover_nodes, stats.iterations[i].nodes);
    if (i > 0) {
      EXPECT_EQ(stats.iterations[i].nodes,
                stats.iterations[i - 1].cover_nodes);
    }
  }
  EXPECT_LE(scc::SemiExternalScc::StateBytes(stats.semi_nodes),
            ctx->memory().total_bytes())
      << "Semi-SCC ran within the stop condition";
  EXPECT_GT(stats.total_ios, 0u);
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(ExtSccTest, OpModeProducesIdenticalPartition) {
  auto ctx = TightContext(48);
  const auto edges = gen::RandomDigraphEdges(150, 450, 23, true);
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);
  const std::string out_basic = ctx->NewTempPath("basic");
  const std::string out_op = ctx->NewTempPath("op");
  ASSERT_TRUE(
      RunExtScc(ctx.get(), g, out_basic, ExtSccOptions::Basic()).ok());
  ASSERT_TRUE(
      RunExtScc(ctx.get(), g, out_op, ExtSccOptions::Optimized()).ok());
  const auto a = scc::LoadSccResult(ctx.get(), out_basic);
  const auto b = scc::LoadSccResult(ctx.get(), out_op);
  EXPECT_TRUE(scc::SamePartition(a, b))
      << scc::ExplainPartitionDifference(a, b);
}

TEST(ExtSccTest, OpModeReducesWorkOnDenseGraphs) {
  // The §VII claim: Op-mode prunes nodes/edges per iteration. Compare
  // total I/Os on a graph with parallel edges and many sources/sinks.
  auto edges = gen::RandomDigraphEdges(200, 800, 29, true);
  const auto run = [&](const ExtSccOptions& options) {
    auto ctx = TightContext(64);
    const auto g = graph::MakeDiskGraph(ctx.get(), edges);
    const std::string out = ctx->NewTempPath("out");
    const auto before = ctx->stats().total_ios();
    auto result = RunExtScc(ctx.get(), g, out, options);
    EXPECT_TRUE(result.ok());
    return ctx->stats().total_ios() - before;
  };
  const auto basic_ios = run(ExtSccOptions::Basic());
  const auto op_ios = run(ExtSccOptions::Optimized());
  EXPECT_LT(op_ios, basic_ios);
}

TEST(ExtSccTest, IoBudgetCensoring) {
  auto ctx = TightContext(16);
  ctx->set_io_budget(10);  // absurdly small
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(200));
  const std::string out = ctx->NewTempPath("out");
  auto result = RunExtScc(ctx.get(), g, out, ExtSccOptions::Basic());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
}

// One solve of `edges` on a fresh TightContext(64): its status, stats,
// labels and the context's counters over the solve. A nonzero
// `io_budget` is counted from the loaded graph's I/Os.
struct SolveRun {
  util::Status status;
  core::ExtSccStats stats;
  std::vector<graph::SccEntry> labels;
  io::IoStats io;
};

SolveRun Solve(const std::vector<Edge>& edges, const ExtSccOptions& options,
               std::uint64_t io_budget = 0) {
  auto ctx = TightContext(64);
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);
  if (io_budget > 0) ctx->set_io_budget(ctx->stats().total_ios() + io_budget);
  const std::string out = ctx->NewTempPath("scc_out");
  const io::IoStats before = ctx->stats();
  auto result = RunExtScc(ctx.get(), g, out, options);
  SolveRun run;
  run.io = ctx->stats() - before;
  run.status = result.status();
  if (result.ok()) {
    run.stats = result.value();
    run.labels = io::ReadAllRecords<graph::SccEntry>(ctx.get(), out);
  }
  return run;
}

// Checkpointing decides only where phase outputs live: the checkpointed
// solve is the plain one byte for byte and I/O for I/O, with its
// manifests in the durability counters alone.
TEST(ExtSccTest, CheckpointedSolveEqualsPlain) {
  const auto edges = gen::RandomDigraphEdges(150, 450, 41, true);
  for (const bool optimized : {false, true}) {
    const char* label = optimized ? "op" : "basic";
    ExtSccOptions options =
        optimized ? ExtSccOptions::Optimized() : ExtSccOptions::Basic();
    const SolveRun plain = Solve(edges, options);
    ASSERT_TRUE(plain.status.ok()) << label << ": " << plain.status.ToString();
    const std::uint32_t levels = plain.stats.num_levels();
    ASSERT_GE(levels, 2u) << label;
    EXPECT_EQ(plain.io.sync_calls, 0u) << label;
    EXPECT_EQ(plain.io.checkpoint_writes, 0u) << label;

    const testing::ScopedTempPath dir("ckpt");
    std::filesystem::create_directories(dir.path());
    options.checkpoint_dir = dir.path();
    const SolveRun checkpointed = Solve(edges, options);
    ASSERT_TRUE(checkpointed.status.ok())
        << label << ": " << checkpointed.status.ToString();
    EXPECT_TRUE(checkpointed.labels == plain.labels) << label;
    EXPECT_EQ(checkpointed.stats.total_ios, plain.stats.total_ios) << label;
    ASSERT_EQ(checkpointed.stats.num_levels(), levels) << label;
    for (std::uint32_t i = 0; i < levels; ++i) {
      EXPECT_EQ(checkpointed.stats.iterations[i].ios,
                plain.stats.iterations[i].ios)
          << label << " level " << i + 1;
    }
    // One manifest per contraction level, one for the base case and one
    // per expansion but the outermost.
    EXPECT_EQ(checkpointed.io.checkpoint_writes, 2u * levels) << label;
    EXPECT_TRUE(std::filesystem::is_empty(dir.path())) << label;
  }
}

// A solve cut short inside its second level resumes from the first
// level's checkpoint: the same labels from one manifest read and fewer
// I/Os than solving from scratch.
TEST(ExtSccTest, ResumeAfterIoBudgetTrip) {
  const auto edges = gen::RandomDigraphEdges(150, 450, 41, true);
  ExtSccOptions options = ExtSccOptions::Optimized();
  const SolveRun plain = Solve(edges, options);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  ASSERT_GE(plain.stats.num_levels(), 2u);

  const testing::ScopedTempPath dir("ckpt");
  std::filesystem::create_directories(dir.path());
  options.checkpoint_dir = dir.path();
  const SolveRun tripped =
      Solve(edges, options, plain.stats.iterations[0].ios + 1);
  EXPECT_EQ(tripped.status.code(), util::StatusCode::kResourceExhausted)
      << tripped.status.ToString();
  EXPECT_EQ(tripped.io.checkpoint_writes, 1u);

  options.resume = true;
  const SolveRun resumed = Solve(edges, options);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.labels == plain.labels);
  EXPECT_EQ(resumed.io.checkpoint_reads, 1u);
  EXPECT_EQ(resumed.stats.num_levels(), plain.stats.num_levels());
  EXPECT_LT(resumed.stats.total_ios, plain.stats.total_ios);
}

// Parameterized end-to-end sweep over memory budgets: correctness must be
// independent of how many contraction levels the budget forces.
class ExtSccBudgetSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ExtSccBudgetSweep, CorrectUnderAnyBudget) {
  const auto [max_semi_nodes, op_mode] = GetParam();
  auto ctx = TightContext(max_semi_nodes);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(150, 450, max_semi_nodes, true));
  RunAndVerify(ctx.get(), g,
               op_mode ? ExtSccOptions::Optimized() : ExtSccOptions::Basic(),
               "budget-sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, ExtSccBudgetSweep,
    ::testing::Combine(::testing::Values(16, 32, 64, 128, 1024),
                       ::testing::Bool()));

}  // namespace
}  // namespace extscc
