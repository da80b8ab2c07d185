// Failure injection: corrupt inputs, absurd configurations, budget
// exhaustion, and injected device faults must surface as Status errors,
// CHECK aborts, or recovered-and-verified solves — never as silent
// wrong answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/dfs_scc.h"
#include "baseline/em_scc.h"
#include "core/ext_scc.h"
#include "extsort/external_sorter.h"
#include "gen/classic_graphs.h"
#include "graph/disk_graph.h"
#include "graph/graph_io.h"
#include "io/record_stream.h"
#include "io/storage.h"
#include "io/temp_file_manager.h"
#include "scc/br_tree_scc.h"
#include "scc/semi_external_scc.h"
#include "test_util.h"
#include "util/random.h"

namespace extscc {
namespace {

using core::ExtSccOptions;
using graph::Edge;
using testing::MakeTestContext;

// A context over fault-injecting scratch devices (RAM-backed, so the
// chaos tests are tmpfs-independent), with geometry small enough that
// even tiny graphs spill real runs.
std::unique_ptr<io::IoContext> MakeFaultyContext(
    const io::FaultSpec& fault, std::size_t num_devices,
    std::size_t sort_threads = 0, bool checksums = false) {
  io::IoContextOptions options;
  options.block_size = 128;
  options.memory_bytes = scc::SemiExternalScc::StateBytes(32);
  options.scratch_dirs.assign(num_devices, "unused-for-mem-backing");
  options.device_model.model = io::DeviceModel::kFaulty;
  options.device_model.fault = fault;
  options.device_model.fault.inner = io::DeviceModel::kMem;
  options.sort_threads = sort_threads;
  options.checksum_blocks = checksums;
  return std::make_unique<io::IoContext>(options);
}

// The same machine with clean (fault-free) RAM devices — the reference
// run the faulty solves must be byte-identical to.
std::unique_ptr<io::IoContext> MakeCleanMemContext(std::size_t num_devices) {
  io::IoContextOptions options;
  options.block_size = 128;
  options.memory_bytes = scc::SemiExternalScc::StateBytes(32);
  options.scratch_dirs.assign(num_devices, "unused-for-mem-backing");
  options.device_model.model = io::DeviceModel::kMem;
  return std::make_unique<io::IoContext>(options);
}

std::vector<graph::SccEntry> SolveOrDie(io::IoContext* ctx,
                                        const std::vector<Edge>& edges,
                                        const char* label) {
  const auto g = graph::MakeDiskGraph(ctx, edges);
  const std::string out = ctx->NewTempPath("labels");
  auto result = core::RunExtScc(ctx, g, out, ExtSccOptions::Optimized());
  EXPECT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  if (!result.ok()) return {};
  testing::ExpectSccFileMatchesOracle(ctx, g, out, label);
  return io::ReadAllRecords<graph::SccEntry>(ctx, out);
}

// ---- Seeded device faults: transient EIO + torn transfers ------------

TEST(FaultInjectionTest, TransientFaultsRetryToByteIdenticalSolve) {
  const auto edges = gen::RandomDigraphEdges(150, 450, 17);
  auto clean = MakeCleanMemContext(1);
  const auto reference = SolveOrDie(clean.get(), edges, "clean reference");
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(clean->stats().read_retries + clean->stats().write_retries, 0u)
      << "fault-free runs must never take the retry path";

  // Compose with overlapped run formation: retries live below the
  // spill worker, so the threaded sort must solve through the same
  // fault schedule.
  for (const std::size_t sort_threads : {0, 1}) {
    io::FaultSpec fault;
    fault.seed = 41;
    fault.read_fault_rate = 2e-3;
    fault.write_fault_rate = 2e-3;
    fault.short_rate = 1e-3;
    auto faulty = MakeFaultyContext(fault, 1, sort_threads);
    const auto labels = SolveOrDie(faulty.get(), edges, "transient faults");
    EXPECT_EQ(labels.size(), reference.size());
    for (std::size_t i = 0; i < labels.size() && i < reference.size(); ++i) {
      ASSERT_EQ(labels[i].node, reference[i].node) << "at record " << i;
      ASSERT_EQ(labels[i].scc, reference[i].scc) << "at record " << i;
    }
    // The schedule is seeded and the graph spills: some op must have
    // faulted and been retried, or the test is vacuous.
    EXPECT_GT(faulty->stats().read_retries + faulty->stats().write_retries,
              0u);
    EXPECT_FALSE(faulty->has_io_error())
        << faulty->io_error().ToString()
        << " — transient faults must be absorbed by retries, not latched";
  }
}

// ---- Persistent single-device failure: quarantine + failover ---------

TEST(FaultInjectionTest, PersistentDeviceFailureFailsOverAndVerifies) {
  // Device 1 of 2 dies for writes (ENOSPC) at its second spill op;
  // reads of what it already holds still work. The solve must
  // quarantine it, re-place the lost run on the healthy device, and
  // finish with verified labels. tag=sortrun scopes the schedule to
  // spill writes — the failover seam this test exercises.
  io::FaultSpec fault;
  fault.seed = 7;
  fault.fail_writes_after = 1;
  fault.path_tag = "sortrun";
  fault.device_index = 1;
  auto ctx = MakeFaultyContext(fault, /*num_devices=*/2);
  const auto edges = gen::RandomDigraphEdges(150, 450, 19);
  const auto labels = SolveOrDie(ctx.get(), edges, "single dead device");
  ASSERT_FALSE(labels.empty());

  const auto devices = ctx->temp_files().devices();
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_TRUE(ctx->temp_files().IsQuarantined(devices[1]))
      << "the persistently failing device must be quarantined";
  EXPECT_FALSE(ctx->temp_files().IsQuarantined(devices[0]));
  EXPECT_EQ(ctx->temp_files().num_available_devices(), 1u);
  EXPECT_FALSE(ctx->has_io_error())
      << ctx->io_error().ToString()
      << " — a recovered failover must absorb its latched error";

  // Byte-identity with the clean 2-device machine is NOT expected here
  // (placement legitimately shifts after the quarantine); the oracle
  // check above is the correctness bar.
}

// ---- Faults on two round-robin devices -------------------------------

TEST(FaultInjectionTest, TwoDeviceTransientFaultsRetryToByteIdenticalSolve) {
  // Consecutive scratch files alternate between two faulty devices; the
  // retry layer must charge and absorb faults per device, and the solve
  // must stay byte-identical to the clean reference.
  const auto edges = gen::RandomDigraphEdges(150, 450, 17);
  auto clean = MakeCleanMemContext(1);
  const auto reference = SolveOrDie(clean.get(), edges, "clean reference");
  ASSERT_FALSE(reference.empty());

  io::FaultSpec fault;
  fault.seed = 59;
  fault.read_fault_rate = 2e-3;
  fault.write_fault_rate = 2e-3;
  fault.short_rate = 1e-3;
  auto faulty = MakeFaultyContext(fault, /*num_devices=*/2);
  const auto labels =
      SolveOrDie(faulty.get(), edges, "two-device transient faults");
  ASSERT_EQ(labels.size(), reference.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ASSERT_EQ(labels[i].node, reference[i].node) << "at record " << i;
    ASSERT_EQ(labels[i].scc, reference[i].scc) << "at record " << i;
  }
  EXPECT_GT(faulty->stats().read_retries + faulty->stats().write_retries, 0u);
  EXPECT_FALSE(faulty->has_io_error()) << faulty->io_error().ToString();
}

TEST(FaultInjectionTest, TwoDevicePersistentFailureWithSpillWorker) {
  // Device 1 of 2 dies for spill writes while a sort_threads spill
  // worker does the spilling. The failover must quarantine it from the
  // worker, keep placing round-robin on the survivor, and finish with
  // verified labels.
  io::FaultSpec fault;
  fault.seed = 7;
  fault.fail_writes_after = 1;
  fault.path_tag = "sortrun";
  fault.device_index = 1;
  auto ctx = MakeFaultyContext(fault, /*num_devices=*/2, /*sort_threads=*/1);
  const auto edges = gen::RandomDigraphEdges(150, 450, 19);
  const auto labels =
      SolveOrDie(ctx.get(), edges, "dead device under a spill worker");
  ASSERT_FALSE(labels.empty());

  const auto devices = ctx->temp_files().devices();
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_TRUE(ctx->temp_files().IsQuarantined(devices[1]))
      << "the failing device must be quarantined";
  EXPECT_FALSE(ctx->temp_files().IsQuarantined(devices[0]));
  EXPECT_EQ(ctx->temp_files().num_available_devices(), 1u);
  EXPECT_FALSE(ctx->has_io_error())
      << ctx->io_error().ToString()
      << " — a recovered failover must absorb its latched error";
}

// ---- Merge-pass failover: the "mergerun" outputs of a multi-pass sort

struct U64Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

// Two RAM scratch devices, the second faulting on merge-pass files only.
// B = 1 KiB and M = 4 KiB give a 20K-record u64 sort 40 runs of 512
// records and a fan-in of 3, so four merge passes.
struct MergeFaultSort {
  explicit MergeFaultSort(io::FaultSpec fault) {
    fault.path_tag = "mergerun";
    fault.device_index = 1;
    fault.inner = io::DeviceModel::kMem;
    io::IoContextOptions options;
    options.block_size = 1024;
    options.memory_bytes = 4096;
    options.scratch_dirs.assign(2, "unused-for-mem-backing");
    options.device_model.model = io::DeviceModel::kFaulty;
    options.device_model.fault = fault;
    ctx = std::make_unique<io::IoContext>(options);
    util::Rng rng(41);
    values.resize(20'000);
    for (auto& v : values) v = rng.Next();
    const std::string in = ctx->NewTempPath("in");
    io::WriteAllRecords(ctx.get(), in, values);
    out = ctx->NewTempPath("out");
    info = extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out,
                                                     U64Less());
  }

  std::unique_ptr<io::IoContext> ctx;
  std::vector<std::uint64_t> values;
  std::string out;
  extsort::SortRunInfo info;
};

TEST(FaultInjectionTest, DeadDeviceDuringMergePassFailsOver) {
  // Device 1 stops taking merge-pass writes after its first block: the
  // group that hit it is replayed on device 0 from its still-present
  // input runs, and the sort finishes with the right answer.
  io::FaultSpec fault;
  fault.fail_writes_after = 1;
  MergeFaultSort sort(fault);
  ASSERT_TRUE(sort.info.status.ok()) << sort.info.status.ToString();
  EXPECT_EQ(sort.info.num_runs, 40u);
  EXPECT_EQ(sort.info.merge_passes, 4u);
  std::sort(sort.values.begin(), sort.values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(sort.ctx.get(), sort.out),
            sort.values);
  const auto devices = sort.ctx->temp_files().devices();
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_TRUE(sort.ctx->temp_files().IsQuarantined(devices[1]));
  EXPECT_FALSE(sort.ctx->temp_files().IsQuarantined(devices[0]));
  EXPECT_FALSE(sort.ctx->has_io_error())
      << sort.ctx->io_error().ToString()
      << " — a recovered failover must absorb its latched error";
}

TEST(FaultInjectionTest, DeadMergeInputFailsWithoutFailover) {
  // Device 1 stops serving merge-pass reads: a merge run written there
  // cannot be read back in the next pass, and no output placement can
  // recover it. The sort must return the read error and quarantine
  // nothing.
  io::FaultSpec fault;
  fault.fail_reads_after = 3;
  MergeFaultSort sort(fault);
  ASSERT_FALSE(sort.info.status.ok());
  EXPECT_EQ(sort.info.status.code(), util::StatusCode::kIoError);
  EXPECT_NE(sort.info.status.message().find("injected persistent read"),
            std::string::npos)
      << sort.info.status.ToString();
  for (auto* device : sort.ctx->temp_files().devices()) {
    EXPECT_FALSE(sort.ctx->temp_files().IsQuarantined(device));
  }
  EXPECT_EQ(sort.ctx->temp_files().num_available_devices(), 2u);
}

// ---- Silent corruption: checksums turn bit flips into kCorruption ----

TEST(FaultInjectionTest, BitFlipsYieldCorruptionNeverWrongAnswers) {
  io::FaultSpec fault;
  fault.seed = 23;
  fault.corrupt_rate = 5e-3;  // dense enough that some read gets hit
  auto ctx = MakeFaultyContext(fault, 1, /*sort_threads=*/0,
                               /*checksums=*/true);
  const auto edges = gen::RandomDigraphEdges(150, 450, 29);
  const auto g = graph::MakeDiskGraph(ctx.get(), edges);
  const std::string out = ctx->NewTempPath("labels");
  auto result =
      core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized());
  if (result.ok()) {
    // Every flipped block happened to dodge this run's reads — legal,
    // but then the answer must be right.
    testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "corrupt-lucky");
  } else {
    EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption)
        << result.status().ToString();
  }
}

TEST(FaultInjectionTest, ChecksummedCleanSolveVerifies) {
  // Checksums change the physical block layout; the logical results
  // must not notice. (Fault-free faulty device = plain pass-through.)
  io::FaultSpec fault;
  fault.seed = 3;
  auto ctx = MakeFaultyContext(fault, 1, /*sort_threads=*/0,
                               /*checksums=*/true);
  const auto edges = gen::RandomDigraphEdges(150, 450, 17);
  const auto labels = SolveOrDie(ctx.get(), edges, "checksums on");
  EXPECT_FALSE(labels.empty());
  EXPECT_EQ(ctx->stats().read_retries + ctx->stats().write_retries, 0u);
}

// ---- Unit seams of the fault-tolerance machinery ---------------------

TEST(FaultInjectionTest, QuarantinePlacementAvoidsDeadDevice) {
  auto ctx = MakeCleanMemContext(3);
  io::TempFileManager& temp = ctx->temp_files();
  const auto devices = temp.devices();
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(temp.num_available_devices(), 3u);
  temp.Quarantine(devices[1]);
  EXPECT_TRUE(temp.IsQuarantined(devices[1]));
  EXPECT_EQ(temp.num_available_devices(), 2u);
  for (int i = 0; i < 12; ++i) {
    const io::ScratchFile file = temp.NewFile("probe");
    EXPECT_NE(file.device, devices[1])
        << "placement handed a file to the quarantined device";
  }
  // Quarantining everything must degrade to "any device" rather than
  // divide-by-zero: the underlying I/O failure is the real story.
  temp.Quarantine(devices[0]);
  temp.Quarantine(devices[2]);
  EXPECT_EQ(temp.num_available_devices(), 3u);
  EXPECT_NE(temp.NewFile("probe").device, nullptr);
}

TEST(FaultInjectionTest, IoErrorLatchIsFirstWinsAndAbsorbable) {
  auto ctx = MakeCleanMemContext(1);
  EXPECT_FALSE(ctx->has_io_error());
  const auto first = util::Status::IoError("first failure", EIO);
  const auto second = util::Status::IoError("second failure", ENOSPC);
  ctx->RecordIoError(first);
  ctx->RecordIoError(second);  // latched error must not change
  ASSERT_TRUE(ctx->has_io_error());
  EXPECT_EQ(ctx->io_error().message(), first.message());
  // Absorbing a DIFFERENT error leaves the latch alone...
  EXPECT_FALSE(ctx->AbsorbIoError(second));
  EXPECT_TRUE(ctx->has_io_error());
  // ...absorbing the recovered (first) one clears it.
  EXPECT_TRUE(ctx->AbsorbIoError(first));
  EXPECT_FALSE(ctx->has_io_error());
}

TEST(FaultInjectionTest, LatchedInputErrorStopsBeforeBaseCase) {
  // An input built through a failing device can come out with a node
  // file that misses its edges' endpoints. When it is small enough that
  // no contraction level polls the latch, the solve must still return
  // the latched error instead of running the base case on it.
  auto ctx = MakeCleanMemContext(1);
  graph::DiskGraph g;
  g.node_path = ctx->NewTempPath("nodes");
  g.edge_path = ctx->NewTempPath("edges");
  io::WriteAllRecords<graph::NodeId>(ctx.get(), g.node_path, {1, 2});
  io::WriteAllRecords<Edge>(ctx.get(), g.edge_path, {{1, 2}, {2, 7}});
  g.num_nodes = 2;
  g.num_edges = 2;
  ctx->RecordIoError(util::Status::Corruption("truncated node file"));
  auto result = core::RunExtScc(ctx.get(), g, ctx->NewTempPath("out"),
                                ExtSccOptions::Optimized());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
}

TEST(FaultInjectionTest, EdgeEndpointMissingFromNodeFileIsCorruption) {
  // Node 0 is an edge endpoint but not in the node file. The base case's
  // endpoint translation must report it, not map it to a neighbouring
  // node or one past the per-node state, under both algorithms: M holds
  // BR-tree's state for the 2 listed nodes {1, 2}, only colouring's for
  // 24 ({1, ..., 24}).
  for (const std::uint32_t listed : {2u, 24u}) {
    auto ctx = MakeCleanMemContext(1);
    const bool br_tree = scc::BrTreeScc::Fits(listed, ctx->memory());
    ASSERT_EQ(br_tree, listed == 2);
    ASSERT_TRUE(scc::SemiExternalScc::Fits(listed, ctx->memory()));
    const char* name = br_tree ? "br-tree" : "coloring";
    std::vector<graph::NodeId> nodes(listed);
    std::iota(nodes.begin(), nodes.end(), 1);
    graph::DiskGraph g;
    g.node_path = ctx->NewTempPath("nodes");
    g.edge_path = ctx->NewTempPath("edges");
    io::WriteAllRecords<graph::NodeId>(ctx.get(), g.node_path, nodes);
    io::WriteAllRecords<Edge>(ctx.get(), g.edge_path, {{1, 2}, {2, 0}});
    g.num_nodes = listed;
    g.num_edges = 2;
    auto result = core::RunExtScc(ctx.get(), g, ctx->NewTempPath("out"),
                                  ExtSccOptions::Optimized());
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption) << name;
    EXPECT_NE(result.status().ToString().find("endpoint 0"),
              std::string::npos)
        << name << ": " << result.status().ToString();
  }
}

TEST(FaultInjectionTest, RetryableErrnoClassification) {
  using util::Status;
  EXPECT_TRUE(io::IsRetryableIoError(Status::IoError("eio", EIO)));
  EXPECT_TRUE(io::IsRetryableIoError(Status::IoError("eintr", EINTR)));
  EXPECT_TRUE(io::IsRetryableIoError(Status::IoError("eagain", EAGAIN)));
  EXPECT_TRUE(io::IsRetryableIoError(Status::IoError("etimedout", ETIMEDOUT)));
  EXPECT_FALSE(io::IsRetryableIoError(Status::IoError("enospc", ENOSPC)));
  EXPECT_FALSE(io::IsRetryableIoError(Status::IoError("enoent", ENOENT)));
  EXPECT_FALSE(io::IsRetryableIoError(Status::IoError("no errno")));
  EXPECT_FALSE(io::IsRetryableIoError(Status::Corruption("bad checksum")));
  EXPECT_FALSE(io::IsRetryableIoError(Status::Ok()));
}

TEST(FailureInjectionTest, TruncatedRecordFileAborts) {
  auto ctx = MakeTestContext();
  // A user-facing path on the base device, NOT a scratch path: under
  // the mem test matrix a scratch path is a virtual name a plain file
  // write cannot create.
  const testing::ScopedTempPath file("truncated.bin");
  const std::string& path = file.path();
  testing::WriteTextFile(path, "abc");  // 3 bytes: not a whole Edge record
  EXPECT_DEATH(io::NumRecordsInFile<Edge>(ctx.get(), path),
               "whole number of records");
}

TEST(FailureInjectionTest, MaxIterationsSafetyValve) {
  auto ctx = MakeTestContext(/*memory_bytes=*/
                             scc::SemiExternalScc::StateBytes(16),
                             /*block_size=*/64);
  // A 200-cycle under a 16-node budget needs many levels; capping the
  // iteration count must produce FailedPrecondition, not a wrong result.
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(200));
  ExtSccOptions options = ExtSccOptions::Basic();
  options.max_iterations = 2;
  const std::string out = ctx->NewTempPath("out");
  auto result = core::RunExtScc(ctx.get(), g, out, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(FailureInjectionTest, IoBudgetDuringEachPhase) {
  // Sweep the budget upward: every prefix-censoring must fail cleanly,
  // and once the budget is high enough the run must succeed and verify.
  const auto edges = gen::RandomDigraphEdges(120, 360, 61);
  bool seen_failure = false;
  bool seen_success = false;
  for (const std::uint64_t budget :
       {200ull, 2'000ull, 20'000ull, 0ull /* unlimited */}) {
    auto ctx = MakeTestContext(/*memory_bytes=*/
                               scc::SemiExternalScc::StateBytes(32),
                               /*block_size=*/128);
    const auto g = graph::MakeDiskGraph(ctx.get(), edges);
    if (budget > 0) ctx->set_io_budget(budget);
    const std::string out = ctx->NewTempPath("out");
    auto result =
        core::RunExtScc(ctx.get(), g, out, ExtSccOptions::Optimized());
    if (result.ok()) {
      seen_success = true;
      testing::ExpectSccFileMatchesOracle(ctx.get(), g, out, "budget-sweep");
    } else {
      seen_failure = true;
      EXPECT_EQ(result.status().code(),
                util::StatusCode::kResourceExhausted);
    }
  }
  EXPECT_TRUE(seen_failure) << "the tightest budget must censor";
  EXPECT_TRUE(seen_success) << "the unlimited budget must succeed";
}

TEST(FailureInjectionTest, EmSccBudgetCensoring) {
  auto ctx = MakeTestContext(/*memory_bytes=*/4 << 10, /*block_size=*/1024);
  // Cyclic-rich workload EM-SCC can normally solve...
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleChainEdges(60, 6));
  ctx->set_io_budget(ctx->stats().total_ios() + 50);
  const std::string out = ctx->NewTempPath("out");
  auto result = baseline::RunEmScc(ctx.get(), g, out);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(FailureInjectionTest, LoadRejectsHugeNodeIds) {
  auto ctx = MakeTestContext();
  // Base-device path for the same reason as TruncatedRecordFileAborts.
  const testing::ScopedTempPath file("huge.txt");
  const std::string& path = file.path();
  testing::WriteTextFile(path, "1 99999999999\n");  // exceeds 32-bit ids
  auto result = graph::LoadTextEdgeList(ctx.get(), path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(FailureInjectionTest, SolverOutputsAreReproducibleAfterFailure) {
  // A censored run must not poison a later successful run in the same
  // context (scratch files are independent; the budget flag is reset).
  auto ctx = MakeTestContext(/*memory_bytes=*/
                             scc::SemiExternalScc::StateBytes(32),
                             /*block_size=*/128);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(100, 300, 63));
  ctx->set_io_budget(ctx->stats().total_ios() + 100);
  const std::string out1 = ctx->NewTempPath("out1");
  ASSERT_FALSE(
      core::RunExtScc(ctx.get(), g, out1, ExtSccOptions::Basic()).ok());
  // Lift the budget and retry.
  ctx->set_io_budget(0);
  ctx->reset_io_budget_flag();
  const std::string out2 = ctx->NewTempPath("out2");
  auto retry = core::RunExtScc(ctx.get(), g, out2, ExtSccOptions::Basic());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, out2, "retry");
}

}  // namespace
}  // namespace extscc
