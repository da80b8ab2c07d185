// Run formation (SortingWriter's inline spills, run_pipeline.h):
// spilled runs never leak, the run buffer is charged to the
// MemoryBudget while its run is sorted, run geometry follows the
// budget, and a multi-level solve on posix scratch matches the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/ext_scc.h"
#include "extsort/external_sorter.h"
#include "gen/synthetic_generator.h"
#include "graph/graph_types.h"
#include "io/record_stream.h"
#include "test_util.h"
#include "util/random.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;

std::unique_ptr<io::IoContext> MakeContext(
    std::uint64_t memory, std::size_t block,
    io::DeviceModel model = io::DeviceModel::kMem) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes = memory;
  options.device_model.model = model;
  // Env overrides (device model, scratch dirs) reach this suite too.
  testing::ApplyTestEnvOptions(&options);
  return std::make_unique<io::IoContext>(options);
}

std::vector<Edge> RandomEdges(std::size_t n, std::uint64_t seed,
                              std::uint32_t range) {
  util::Rng rng(seed);
  std::vector<Edge> out(n);
  for (auto& e : out) {
    e.src = static_cast<NodeId>(rng.Uniform(range));
    e.dst = static_cast<NodeId>(rng.Uniform(range));
  }
  return out;
}

TEST(RunPipelineTest, AbandonedWriterLeaksNoRuns) {
  namespace fs = std::filesystem;
  // Posix scratch: the leak check walks the session directories.
  auto ctx = MakeContext(8 << 10, 1024, io::DeviceModel::kPosix);
  {
    extsort::SortingWriter<Edge, graph::EdgeBySrc> writer(
        ctx.get(), graph::EdgeBySrc());
    for (const auto& e : RandomEdges(20'000, 23, 1u << 8)) writer.Append(e);
    // Destroyed without FinishInto: spilled runs must be removed.
  }
  std::size_t files = 0;
  for (const auto& dir : ctx->temp_files().dirs()) {
    if (!fs::exists(dir)) continue;  // env override to a RAM device
    for (auto it = fs::directory_iterator(dir);
         it != fs::directory_iterator(); ++it) {
      // The owner-liveness marker (storage.h, ReapOrphanScratchRoots)
      // lives in every posix session root by design; it is not scratch.
      if (it->path().filename() == ".pid") continue;
      ++files;
    }
  }
  EXPECT_EQ(files, 0u) << "abandoned writer stranded scratch files";
}

// ---- Budget charges and run geometry of the one run-formation engine

struct U64Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

// A key-less u64 order (so run buffers take std::stable_sort) that
// records the largest MemoryBudget charge seen while it runs — in every
// run sort and every merge.
struct ChargeProbeLess {
  const io::MemoryBudget* budget;
  std::uint64_t* peak;
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    *peak = std::max(*peak, budget->used_bytes());
    return a < b;
  }
};

constexpr std::uint64_t kProbeMemory = 256 << 10;
constexpr std::size_t kProbeBlock = 4096;
constexpr std::size_t kProbeRecords = 200'000;

std::string WriteRandomU64s(io::IoContext* ctx, std::size_t n) {
  util::Rng rng(808);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.Next();
  const std::string path = ctx->NewTempPath("in");
  io::WriteAllRecords(ctx, path, values);
  return path;
}

TEST(RunPipelineTest, SpillingSortFileChargesItsRunBuffer) {
  // Serial file sorts form runs in a buffer of the whole available
  // budget (32,768 u64 records at M = 256 KiB); that buffer is charged
  // while each run is sorted, not just the final merge's blocks.
  auto ctx = MakeContext(kProbeMemory, kProbeBlock);
  const std::string in = WriteRandomU64s(ctx.get(), kProbeRecords);
  std::uint64_t peak = 0;
  const auto info = extsort::SortFile<std::uint64_t>(
      ctx.get(), in, ctx->NewTempPath("out"),
      ChargeProbeLess{&ctx->memory(), &peak});
  ASSERT_TRUE(info.status.ok()) << info.status.ToString();
  EXPECT_EQ(info.num_runs, 7u);
  EXPECT_EQ(peak, kProbeMemory)
      << "the run buffer must be reserved while its run is sorted";
  EXPECT_EQ(ctx->memory().used_bytes(), 0u);
}

TEST(RunPipelineTest, NeverSpillingWriterHoldsOneBuffer) {
  // A streaming writer sizes its buffer from half the budget (16,384
  // u64 records here). An input that fits never spills: during the
  // drain only its own buffer is charged.
  auto ctx = MakeContext(kProbeMemory, kProbeBlock);
  extsort::SortingWriter<std::uint64_t, U64Less> writer(ctx.get(), U64Less());
  util::Rng rng(809);
  for (int i = 0; i < 10'000; ++i) writer.Append(rng.Next());
  std::uint64_t peak = 0;
  auto sink = extsort::MakeCallbackSink<std::uint64_t>([&](std::uint64_t) {
    peak = std::max(peak, ctx->memory().used_bytes());
  });
  const auto info = writer.FinishInto(sink);
  EXPECT_EQ(info.num_runs, 1u);
  EXPECT_EQ(peak, kProbeMemory / 2);
}

TEST(RunPipelineTest, SortFileRunGeometryFollowsTheBudget) {
  // ceil(n / MaxRecordsInMemory) runs: a file sort's buffer is all the
  // budget that is available.
  auto ctx = MakeContext(kProbeMemory, kProbeBlock);
  const std::string in = WriteRandomU64s(ctx.get(), kProbeRecords);
  const std::uint64_t per_run =
      ctx->memory().MaxRecordsInMemory(sizeof(std::uint64_t));
  const auto info = extsort::SortFile<std::uint64_t>(
      ctx.get(), in, ctx->NewTempPath("out"), U64Less());
  ASSERT_TRUE(info.status.ok()) << info.status.ToString();
  EXPECT_EQ(info.num_runs, (kProbeRecords + per_run - 1) / per_run);
  EXPECT_EQ(info.num_runs, 7u);
}

TEST(RunPipelineTest, ExtSccEndToEndOnPosixScratch) {
  // Whole-system smoke: a multi-level Ext-SCC solve must match the
  // oracle partition. The suite's designated Posix round trip: the
  // rest runs on MemDevice scratch.
  auto ctx = MakeContext(96 << 10, 4096, io::DeviceModel::kPosix);
  gen::SyntheticParams params;
  params.num_nodes = 4'000;
  params.avg_degree = 3.0;
  params.sccs = {{20, 40}};
  params.seed = 12;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const std::string scc_path = ctx->NewTempPath("scc");
  auto result = core::RunExtScc(ctx.get(), g, scc_path,
                                core::ExtSccOptions::Optimized());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, scc_path,
                                      "ext-scc on posix scratch");
}

}  // namespace
}  // namespace extscc
