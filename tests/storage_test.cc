// Storage-device API tests: MemDevice/ThrottledDevice round trips and
// accounting equivalence with PosixDevice, per-device stats summing
// exactly to the aggregate IoStats, the round-robin default staying
// byte-identical to the pre-device engine, striped placement, and the
// shared machine-option parser.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/ext_scc.h"
#include "extsort/external_sorter.h"
#include "gen/synthetic_generator.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "io/storage.h"
#include "test_util.h"
#include "util/random.h"
#include "util/timer.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;

struct U64Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

std::vector<std::uint64_t> RandomValues(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.Next();
  return out;
}

// Status-checked open for tests exercising devices directly.
std::unique_ptr<io::StorageFile> OpenOrDie(io::StorageDevice* device,
                                           const std::string& path,
                                           io::OpenMode mode) {
  std::unique_ptr<io::StorageFile> file;
  const util::Status status = device->Open(path, mode, &file);
  CHECK(status.ok()) << status.ToString();
  return file;
}

std::unique_ptr<io::IoContext> MakeContext(io::DeviceModel model,
                                           std::size_t num_devices,
                                           io::PlacementPolicy placement,
                                           std::uint64_t memory = 16 << 10,
                                           std::size_t block = 1024) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes = memory;
  options.device_model.model = model;
  // Keep the simulated devices effectively free for tests.
  options.device_model.throttle_latency_us = 0;
  options.device_model.throttle_mb_per_sec = 0;
  options.scratch_placement = placement;
  // Under kMem/kThrottled-with-empty-parent the entries only set the
  // device count; no directories are created under these names.
  for (std::size_t i = 0; i < num_devices; ++i) {
    options.scratch_dirs.push_back("");
  }
  if (num_devices <= 1) options.scratch_dirs.clear();
  return std::make_unique<io::IoContext>(options);
}

// ---- device round trips ----------------------------------------------

TEST(StorageDeviceTest, MemDeviceRoundTrip) {
  auto ctx = MakeContext(io::DeviceModel::kMem, 1,
                         io::PlacementPolicy::kRoundRobin);
  auto values = RandomValues(10'000, 5);
  const std::string path = ctx->NewTempPath("mem_rt");
  io::WriteAllRecords(ctx.get(), path, values);
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), path), values);
  // Truncating reopen resets the contents, like a posix O_TRUNC.
  io::WriteAllRecords(ctx.get(), path,
                      std::vector<std::uint64_t>{1, 2, 3});
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), path),
            (std::vector<std::uint64_t>{1, 2, 3}));
  ctx->temp_files().Remove(path);
  EXPECT_GT(ctx->stats().total_ios(), 0u);
}

TEST(StorageDeviceTest, MemWriteThroughReadHandleFailsLikePosix) {
  // pwrite on an O_RDONLY fd fails on posix; the mem device must keep
  // that contract so mode bugs surface on RAM-backed suites too. Under
  // the typed-error contract the failure is an errno-carrying IoError
  // parked on the file's sticky status and latched on the context —
  // never a crash.
  auto ctx = MakeContext(io::DeviceModel::kMem, 1,
                         io::PlacementPolicy::kRoundRobin);
  const std::string path = ctx->NewTempPath("ro");
  io::WriteAllRecords(ctx.get(), path, std::vector<std::uint64_t>{1, 2});
  io::BlockFile file(ctx.get(), path, io::OpenMode::kRead);
  const std::uint64_t payload = 9;
  file.WriteBlock(0, &payload, sizeof(payload));
  ASSERT_FALSE(file.status().ok());
  EXPECT_EQ(file.status().code(), util::StatusCode::kIoError);
  EXPECT_EQ(file.status().sys_errno(), EBADF);
  EXPECT_NE(file.status().message().find("read-only"), std::string::npos);
  EXPECT_TRUE(ctx->has_io_error());
  EXPECT_EQ(ctx->io_error().code(), util::StatusCode::kIoError);
  // The file's contents are untouched: the write was refused, not torn.
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), path),
            (std::vector<std::uint64_t>{1, 2}));
  ctx->reset_io_error();
}

TEST(StorageDeviceTest, ThrottledDeviceRoundTrip) {
  auto ctx = MakeContext(io::DeviceModel::kThrottled, 2,
                         io::PlacementPolicy::kRoundRobin);
  auto values = RandomValues(20'000, 6);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
}

// The device model never changes the block accounting: the same sort on
// MemDevice and PosixDevice scratch must count identical I/Os, field by
// field — the oracle that keeps the mem-scratch test suites honest
// about the I/O model.
TEST(StorageDeviceTest, MemAccountingIdenticalToPosix) {
  const auto values = RandomValues(60'000, 7);
  const auto run = [&](io::DeviceModel model) {
    auto ctx = MakeContext(model, 1, io::PlacementPolicy::kRoundRobin);
    const std::string in = ctx->NewTempPath("in");
    const std::string out = ctx->NewTempPath("out");
    io::WriteAllRecords(ctx.get(), in, values);
    extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
    return ctx->stats();
  };
  const io::IoStats posix = run(io::DeviceModel::kPosix);
  const io::IoStats mem = run(io::DeviceModel::kMem);
  EXPECT_EQ(posix.sequential_reads, mem.sequential_reads);
  EXPECT_EQ(posix.random_reads, mem.random_reads);
  EXPECT_EQ(posix.sequential_writes, mem.sequential_writes);
  EXPECT_EQ(posix.random_writes, mem.random_writes);
  EXPECT_EQ(posix.bytes_read, mem.bytes_read);
  EXPECT_EQ(posix.bytes_written, mem.bytes_written);
  EXPECT_EQ(posix.files_created, mem.files_created);
}

// ---- placement --------------------------------------------------------

// A striped-placement solve must still match the oracle partition, and
// its sorted labels must be byte-identical to the round-robin default —
// placement moves blocks between devices, never changes their bytes.
TEST(PlacementTest, StripedSolveMatchesRoundRobinAndOracle) {
  const auto solve = [](io::PlacementPolicy placement) {
    auto ctx = MakeContext(io::DeviceModel::kMem, 3, placement,
                           /*memory=*/96 << 10, /*block=*/4096);
    gen::SyntheticParams params;
    params.num_nodes = 4'000;
    params.avg_degree = 3.0;
    params.sccs = {{20, 40}};
    params.seed = 12;
    const auto g = gen::GenerateSynthetic(ctx.get(), params);
    const std::string scc_path = ctx->NewTempPath("scc");
    auto result = core::RunExtScc(ctx.get(), g, scc_path,
                                  core::ExtSccOptions::Optimized());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    testing::ExpectSccFileMatchesOracle(ctx.get(), g, scc_path, "placement");
    return io::ReadAllRecords<graph::SccEntry>(ctx.get(), scc_path);
  };
  const auto rr = solve(io::PlacementPolicy::kRoundRobin);
  const auto striped = solve(io::PlacementPolicy::kStriped);
  ASSERT_EQ(rr.size(), striped.size());
  for (std::size_t i = 0; i < rr.size(); ++i) {
    ASSERT_EQ(rr[i].node, striped[i].node) << "at " << i;
    ASSERT_EQ(rr[i].scc, striped[i].scc) << "at " << i;
  }
}

// ---- per-device accounting -------------------------------------------

void ExpectDeviceStatsSumToAggregate(const io::IoContext& ctx) {
  io::IoStats sum;
  for (const auto& row : ctx.DeviceStats()) sum += row.stats;
  const io::IoStats& total = ctx.stats();
  EXPECT_EQ(sum.sequential_reads, total.sequential_reads);
  EXPECT_EQ(sum.random_reads, total.random_reads);
  EXPECT_EQ(sum.sequential_writes, total.sequential_writes);
  EXPECT_EQ(sum.random_writes, total.random_writes);
  EXPECT_EQ(sum.bytes_read, total.bytes_read);
  EXPECT_EQ(sum.bytes_written, total.bytes_written);
  EXPECT_EQ(sum.files_created, total.files_created);
}

TEST(DeviceStatsTest, PerDeviceSumsExactlyToAggregate) {
  auto ctx = MakeContext(io::DeviceModel::kMem, 3,
                         io::PlacementPolicy::kRoundRobin,
                         /*memory=*/64 << 10, /*block=*/2048);
  gen::SyntheticParams params;
  params.num_nodes = 3'000;
  params.avg_degree = 3.0;
  params.sccs = {{15, 30}};
  params.seed = 9;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const std::string scc_path = ctx->NewTempPath("scc");
  auto result = core::RunExtScc(ctx.get(), g, scc_path,
                                core::ExtSccOptions::Optimized());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDeviceStatsSumToAggregate(*ctx);
  // The critical path is bounded by the aggregate and, with >1 active
  // device, strictly below it; it is also the max over the rows.
  std::uint64_t max_row = 0;
  std::size_t active = 0;
  for (const auto& row : ctx->DeviceStats()) {
    max_row = std::max(max_row, row.stats.total_ios());
    if (row.stats.total_ios() > 0) ++active;
  }
  EXPECT_EQ(ctx->max_per_device_ios(), max_row);
  EXPECT_GE(active, 2u) << "a 3-device solve should touch several devices";
  EXPECT_LT(ctx->max_per_device_ios(), ctx->stats().total_ios());
}

TEST(DeviceStatsTest, NonScratchTrafficLandsOnBaseDevice) {
  namespace fs = std::filesystem;
  auto ctx = MakeContext(io::DeviceModel::kMem, 1,
                         io::PlacementPolicy::kRoundRobin);
  const std::string outside =
      (fs::temp_directory_path() / "extscc_storage_test_outside.bin")
          .string();
  io::WriteAllRecords(ctx.get(), outside,
                      std::vector<std::uint64_t>{1, 2, 3});
  const auto rows = ctx->DeviceStats();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().name, "base");
  EXPECT_GT(rows.front().stats.total_ios(), 0u);
  ExpectDeviceStatsSumToAggregate(*ctx);
  fs::remove(outside);
}

// ---- defaults and validation -----------------------------------------

// The round-robin default must be byte-identical to the pre-device
// engine: same path names, same device choice by global sequence.
TEST(PlacementTest, RoundRobinDefaultAlternatesBySequence) {
  std::vector<std::unique_ptr<io::StorageDevice>> devices;
  devices.push_back(std::make_unique<io::MemDevice>("m0"));
  devices.push_back(std::make_unique<io::MemDevice>("m1"));
  io::TempFileManager manager(std::move(devices),
                              io::PlacementPolicy::kRoundRobin);
  const auto device_list = manager.devices();
  const io::ScratchFile a = manager.NewFile("x");
  const io::ScratchFile b = manager.NewFile("x");
  const io::ScratchFile c = manager.NewFile("x");
  EXPECT_EQ(a.device, device_list[0]);
  EXPECT_EQ(b.device, device_list[1]);
  EXPECT_EQ(c.device, device_list[0]);
  // Names carry the global sequence, exactly like NewPath.
  EXPECT_NE(a.path.find("/0_x"), std::string::npos) << a.path;
  EXPECT_NE(b.path.find("/1_x"), std::string::npos) << b.path;
  EXPECT_NE(c.path.find("/2_x"), std::string::npos) << c.path;
}

TEST(StorageConfigTest, ParseDeviceModelSpec) {
  io::DeviceModelSpec spec;
  EXPECT_EQ(io::ParseDeviceModelSpec("posix", &spec), "");
  EXPECT_EQ(spec.model, io::DeviceModel::kPosix);
  EXPECT_EQ(io::ParseDeviceModelSpec("mem", &spec), "");
  EXPECT_EQ(spec.model, io::DeviceModel::kMem);
  EXPECT_EQ(io::ParseDeviceModelSpec("throttled", &spec), "");
  EXPECT_EQ(spec.model, io::DeviceModel::kThrottled);
  EXPECT_EQ(io::ParseDeviceModelSpec("throttled:250", &spec), "");
  EXPECT_EQ(spec.throttle_latency_us, 250u);
  EXPECT_EQ(io::ParseDeviceModelSpec("throttled:250:512", &spec), "");
  EXPECT_EQ(spec.throttle_mb_per_sec, 512u);
  EXPECT_NE(io::ParseDeviceModelSpec("floppy", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:abc", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:1:2:3", &spec), "");
  // strtoull would silently negate/saturate these; the parser must not.
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:-1", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:10:-5", &spec), "");
  EXPECT_NE(
      io::ParseDeviceModelSpec("throttled:99999999999999999999999", &spec),
      "");
  // In uint64 range but beyond the sanity bound: the *1000 ns
  // conversion would wrap to a tiny latency — must be rejected too.
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:18446744073709552", &spec),
            "");
  // Trailing/doubled ':' is a truncated value, not a default request.
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:100:", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("throttled::", &spec), "");

  EXPECT_EQ(io::ParseDeviceModelSpec("faulty", &spec), "");
  EXPECT_EQ(spec.model, io::DeviceModel::kFaulty);
  EXPECT_EQ(spec.fault.read_fault_rate, 0.0);
  EXPECT_EQ(io::ParseDeviceModelSpec(
                "faulty:seed=9,rate=0.001,short=0.0005,corrupt=0.25,"
                "wfail_after=100,rfail_after=200,tag=sortrun,device=1,"
                "inner=mem",
                &spec),
            "");
  EXPECT_EQ(spec.fault.seed, 9u);
  EXPECT_EQ(spec.fault.read_fault_rate, 0.001);
  EXPECT_EQ(spec.fault.write_fault_rate, 0.001);
  EXPECT_EQ(spec.fault.short_rate, 0.0005);
  EXPECT_EQ(spec.fault.corrupt_rate, 0.25);
  EXPECT_EQ(spec.fault.fail_writes_after, 100u);
  EXPECT_EQ(spec.fault.fail_reads_after, 200u);
  EXPECT_EQ(spec.fault.path_tag, "sortrun");
  EXPECT_EQ(spec.fault.device_index, 1);
  EXPECT_EQ(spec.fault.inner, io::DeviceModel::kMem);
  // rate= sets both directions; the directional keys override one.
  EXPECT_EQ(
      io::ParseDeviceModelSpec("faulty:rate=0.5,write_rate=0.125", &spec),
      "");
  EXPECT_EQ(spec.fault.read_fault_rate, 0.5);
  EXPECT_EQ(spec.fault.write_fault_rate, 0.125);
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:bogus=1", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:rate=1.5", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:rate=-0.1", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:rate=nan", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:seed=", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:seed=-3", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:inner=floppy", &spec), "");
  EXPECT_NE(io::ParseDeviceModelSpec("faulty:", &spec), "");

  io::PlacementPolicy policy = io::PlacementPolicy::kRoundRobin;
  EXPECT_EQ(io::ParsePlacementSpec("striped", &policy), "");
  EXPECT_EQ(policy, io::PlacementPolicy::kStriped);
  EXPECT_EQ(io::ParsePlacementSpec("rr", &policy), "");
  EXPECT_EQ(policy, io::PlacementPolicy::kRoundRobin);
  EXPECT_NE(io::ParsePlacementSpec("zigzag", &policy), "");
  // An unknown policy is rejected with a message naming what is
  // supported.
  EXPECT_EQ(io::ParsePlacementSpec("spread", &policy),
            "bad --placement \"spread\" (supported: rr, striped)");
}

// One parser serves every front end: the tool's and benches' flags, and
// the EXTSCC_BENCH_/EXTSCC_TEST_ variables. A variable prefix of the
// test's own keeps the CI matrix's EXTSCC_TEST_* settings untouched.
TEST(StorageConfigTest, MachineOptionsParseFromFlagsAndEnv) {
  io::IoContextOptions options;
  for (const char* flag :
       {"--sort-threads=1", "--io-threads=2", "--scratch-dirs=a,,b",
        "--device-model=throttled:5", "--placement=striped"}) {
    EXPECT_EQ(io::ParseMachineFlag(flag, &options), "") << flag;
  }
  EXPECT_EQ(options.sort_threads, 1u);
  EXPECT_EQ(options.io_threads, 2u);
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.device_model.model, io::DeviceModel::kThrottled);
  EXPECT_EQ(options.device_model.throttle_latency_us, 5u);
  EXPECT_EQ(options.scratch_placement, io::PlacementPolicy::kStriped);
  // Malformed values, options without a value and unknown options are
  // errors, never silently ignored.
  for (const char* flag :
       {"--io-threads=two", "--io-threads=-1", "--sort-threads",
        "--scratch-dirs", "--device-model", "--checksum-blocks",
        "--frobnicate", "--frobnicate=1", "positional"}) {
    EXPECT_NE(io::ParseMachineFlag(flag, &options), "") << flag;
  }
  EXPECT_EQ(io::ParseMachineFlag("--device-model", &options),
            "missing value for --device-model (want --device-model=VALUE)");
  // A rejected flag leaves the options as they were.
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.device_model.model, io::DeviceModel::kThrottled);
  EXPECT_EQ(io::ParseMachineFlag("--placement=spread", &options),
            "bad --placement \"spread\" (supported: rr, striped)");

  ::setenv("EXTSCC_PARSER_TEST_IO_THREADS", "3", 1);
  ::setenv("EXTSCC_PARSER_TEST_PLACEMENT", "rr", 1);
  EXPECT_EQ(io::ParseMachineEnv("EXTSCC_PARSER_TEST_", &options), "");
  EXPECT_EQ(options.io_threads, 3u);
  EXPECT_EQ(options.scratch_placement, io::PlacementPolicy::kRoundRobin);
  ::setenv("EXTSCC_PARSER_TEST_PLACEMENT", "spread", 1);
  EXPECT_EQ(io::ParseMachineEnv("EXTSCC_PARSER_TEST_", &options),
            "EXTSCC_PARSER_TEST_PLACEMENT: bad --placement \"spread\" "
            "(supported: rr, striped)");
  ::unsetenv("EXTSCC_PARSER_TEST_IO_THREADS");
  ::unsetenv("EXTSCC_PARSER_TEST_PLACEMENT");

  // The suites' own front end turns that error into a test failure.
  const char* matrix = std::getenv("EXTSCC_TEST_PLACEMENT");
  const std::string saved = matrix != nullptr ? matrix : "";
  ::setenv("EXTSCC_TEST_PLACEMENT", "spread", 1);
  EXPECT_NONFATAL_FAILURE(
      {
        io::IoContextOptions env_options;
        testing::ApplyTestEnvOptions(&env_options);
      },
      "EXTSCC_TEST_PLACEMENT: bad --placement \"spread\" "
      "(supported: rr, striped)");
  if (matrix != nullptr) {
    ::setenv("EXTSCC_TEST_PLACEMENT", saved.c_str(), 1);
  } else {
    ::unsetenv("EXTSCC_TEST_PLACEMENT");
  }
}

TEST(StorageConfigTest, ValidateScratchParentsNamesTheBadEntry) {
  namespace fs = std::filesystem;
  const std::string good =
      (fs::temp_directory_path() / "extscc_storage_test_good").string();
  fs::create_directories(good);
  EXPECT_EQ(io::ValidateScratchParents({good}), "");
  const std::string missing =
      (fs::temp_directory_path() / "extscc_storage_test_missing").string();
  const std::string error = io::ValidateScratchParents({good, missing});
  EXPECT_NE(error.find(missing), std::string::npos)
      << "error must name the bad directory: " << error;
  // The config-level check applies the device-model policy: mem devices
  // have no on-disk parent to validate, file-backed models do.
  io::IoContextOptions options;
  options.scratch_dirs = {missing};
  EXPECT_NE(io::ValidateMachineOptions(options).find(missing),
            std::string::npos);
  ASSERT_EQ(io::ParseDeviceModelSpec("mem", &options.device_model), "");
  EXPECT_EQ(io::ValidateMachineOptions(options), "");
  fs::remove_all(good);
}

// Regression for the busy-until throttle model: operations on TWO
// throttled devices issued from two threads must overlap (sustaining
// ~2x one device's bandwidth), while concurrent operations on ONE
// device must serialize in simulated time. Wall-clock margins are kept
// generous so a loaded CI machine cannot flip the verdict: the
// serialized phase has a hard LOWER bound (sleep_until guarantees it),
// and the parallel phase is allowed up to ~1.5x its ideal time.
TEST(ThrottledDeviceTest, DistinctDevicesThrottleIndependently) {
  constexpr std::uint64_t kLatencyUs = 10'000;  // 10 ms per op
  constexpr int kOpsPerThread = 8;              // 80 ms per device
  const auto make_device = [&](const std::string& name) {
    return std::make_unique<io::ThrottledDevice>(
        name, std::make_unique<io::MemDevice>(name + "_mem"), kLatencyUs,
        /*mb_per_sec=*/0);
  };
  const auto hammer = [&](io::StorageDevice* device, const std::string& path) {
    auto file = OpenOrDie(device, path, io::OpenMode::kRead);
    std::vector<char> buf(512);
    for (int i = 0; i < kOpsPerThread; ++i) {
      ASSERT_TRUE(file->ReadAt(0, buf.data(), 512).ok());
    }
  };
  const auto prepare = [&](io::StorageDevice* device, const std::string& path) {
    std::vector<char> bytes(512, 'x');
    ASSERT_TRUE(OpenOrDie(device, path, io::OpenMode::kTruncateWrite)
                    ->WriteAt(0, bytes.data(), bytes.size())
                    .ok());
  };

  // Phase 1: two threads on ONE device — ops serialize in simulated
  // time, so the wall is bounded below by (2 * kOpsPerThread) ops.
  auto same = make_device("same");
  prepare(same.get(), "f");
  util::Timer same_timer;
  {
    std::thread a([&] { hammer(same.get(), "f"); });
    std::thread b([&] { hammer(same.get(), "f"); });
    a.join();
    b.join();
  }
  const double same_wall = same_timer.ElapsedSeconds();
  const double total_cost =
      2.0 * kOpsPerThread * static_cast<double>(kLatencyUs) / 1e6;
  EXPECT_GE(same_wall, 0.9 * total_cost)
      << "one device must serialize concurrent ops";

  // Phase 2: two threads, each on its OWN device — the sleeps overlap,
  // so two devices sustain ~2x one device's bandwidth. The bound is
  // against the MEASURED serialized wall (same machine, same load) and
  // the phase retries, so a CPU-starved CI runner cannot flip the
  // verdict: a genuine shared-lock serialization bug makes every
  // attempt take ~same_wall, never below the threshold.
  double distinct_wall = same_wall;
  for (int attempt = 0; attempt < 3 && distinct_wall >= 0.75 * same_wall;
       ++attempt) {
    auto dev_a = make_device("a");
    auto dev_b = make_device("b");
    prepare(dev_a.get(), "f");
    prepare(dev_b.get(), "f");
    util::Timer distinct_timer;
    {
      std::thread a([&] { hammer(dev_a.get(), "f"); });
      std::thread b([&] { hammer(dev_b.get(), "f"); });
      a.join();
      b.join();
    }
    distinct_wall = distinct_timer.ElapsedSeconds();
  }
  EXPECT_LT(distinct_wall, 0.75 * same_wall)
      << "distinct devices must throttle independently (got "
      << distinct_wall << "s vs " << same_wall
      << "s serialized; sleeping under a shared lock would serialize them)";
}

// A consumer that computes longer than the per-op cost between ops must
// still experience the configured rate: sub-quantum costs are deferred,
// not forgiven, across idle re-anchors of the device timeline.
TEST(ThrottledDeviceTest, SlowConsumerStillPaysSubQuantumCosts) {
  constexpr std::uint64_t kLatencyUs = 800;  // < 1 ms sleep chunk
  constexpr int kOps = 6;
  constexpr auto kThinkTime = std::chrono::milliseconds(2);
  auto device = std::make_unique<io::ThrottledDevice>(
      "slow", std::make_unique<io::MemDevice>("slow_mem"), kLatencyUs,
      /*mb_per_sec=*/0);
  {
    std::vector<char> bytes(64, 'x');
    ASSERT_TRUE(OpenOrDie(device.get(), "f", io::OpenMode::kTruncateWrite)
                    ->WriteAt(0, bytes.data(), bytes.size())
                    .ok());
  }
  auto file = OpenOrDie(device.get(), "f", io::OpenMode::kRead);
  std::vector<char> buf(64);
  util::Timer timer;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(file->ReadAt(0, buf.data(), 64).ok());
    std::this_thread::sleep_for(kThinkTime);  // consumer "compute"
  }
  const double wall = timer.ElapsedSeconds();
  const double floor =
      kOps * (kLatencyUs / 1e6) +
      kOps * std::chrono::duration<double>(kThinkTime).count();
  EXPECT_GE(wall, 0.9 * floor)
      << "sub-quantum op costs were forgiven instead of deferred";
}

// ---- striped placement -----------------------------------------------

// Manager-level contract: under kStriped a new scratch file is a
// virtual path on the composite StripedDevice whose stripe spans every
// AVAILABLE device in configuration order; quarantined members are
// excluded from NEW stripes, and when fewer than two devices remain the
// manager falls back to round-robin instead of building a 1-wide
// "stripe".
TEST(StripedPlacementTest, NewFileStripesOverAvailableDevices) {
  std::vector<std::unique_ptr<io::StorageDevice>> devices;
  for (int i = 0; i < 4; ++i) {
    devices.push_back(
        std::make_unique<io::MemDevice>("m" + std::to_string(i)));
  }
  io::TempFileManager manager(std::move(devices),
                              io::PlacementPolicy::kStriped);
  manager.ConfigureStriping(/*block_size=*/1024, /*checksum_blocks=*/false);
  const auto device_list = manager.devices();

  const io::ScratchFile wide = manager.NewFile("w");
  EXPECT_EQ(wide.path.rfind("striped://", 0), 0u) << wide.path;
  EXPECT_EQ(manager.DeviceForPath(wide.path), wide.device);
  // The striped composite is not one of the physical scratch devices.
  for (const io::StorageDevice* device : device_list) {
    EXPECT_NE(wide.device, device);
  }
  {
    std::unique_ptr<io::StorageFile> handle;
    ASSERT_TRUE(wide.device
                    ->Open(wide.path, io::OpenMode::kTruncateWrite, &handle)
                    .ok());
    const auto* stripe = handle->stripe_devices();
    ASSERT_NE(stripe, nullptr);
    ASSERT_EQ(stripe->size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ((*stripe)[i], device_list[i]);
  }

  // A quarantined member must not appear in new stripes.
  manager.Quarantine(device_list[1]);
  const io::ScratchFile narrowed = manager.NewFile("n");
  {
    std::unique_ptr<io::StorageFile> handle;
    ASSERT_TRUE(
        narrowed.device
            ->Open(narrowed.path, io::OpenMode::kTruncateWrite, &handle)
            .ok());
    const auto* stripe = handle->stripe_devices();
    ASSERT_NE(stripe, nullptr);
    ASSERT_EQ(stripe->size(), 3u);
    for (const io::StorageDevice* member : *stripe) {
      EXPECT_NE(member, device_list[1]) << "quarantined member in new stripe";
    }
  }

  // Down to one available device: fall back to round-robin placement on
  // what is left — never a 1-wide stripe.
  manager.Quarantine(device_list[0]);
  manager.Quarantine(device_list[2]);
  ASSERT_EQ(manager.num_available_devices(), 1u);
  const io::ScratchFile fallback = manager.NewFile("f");
  EXPECT_EQ(fallback.device, device_list[3]);
  EXPECT_EQ(fallback.path.rfind("striped://", 0), std::string::npos)
      << fallback.path;
}

// One device from the start: kStriped never engages (no composite is
// even built) and placement degrades to plain round-robin.
TEST(StripedPlacementTest, SingleDeviceFallsBackToRoundRobin) {
  std::vector<std::unique_ptr<io::StorageDevice>> devices;
  devices.push_back(std::make_unique<io::MemDevice>("only"));
  io::TempFileManager manager(std::move(devices),
                              io::PlacementPolicy::kStriped);
  manager.ConfigureStriping(1024, false);
  const io::ScratchFile file = manager.NewFile("x");
  EXPECT_EQ(file.device, manager.devices()[0]);
  EXPECT_EQ(file.path.rfind("striped://", 0), std::string::npos) << file.path;
}

// Mapping identity: bytes written through a striped scratch file read
// back byte-identically, the blocks land on several member devices, and
// the per-device rows (which list only the physical members — the
// composite's own stats stay zero) still sum exactly to the aggregate.
TEST(StripedPlacementTest, WriteReadBackByteIdenticalAndRowsSum) {
  auto ctx = MakeContext(io::DeviceModel::kMem, 3,
                         io::PlacementPolicy::kStriped);
  const auto values = RandomValues(20'000, 31);
  const std::string path = ctx->NewTempPath("striped_rt");
  io::WriteAllRecords(ctx.get(), path, values);
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), path), values);
  ExpectDeviceStatsSumToAggregate(*ctx);
  std::size_t active = 0;
  for (const auto& row : ctx->DeviceStats()) {
    if (row.stats.total_ios() > 0) ++active;
  }
  EXPECT_GE(active, 2u) << "a striped file must touch several devices";
  EXPECT_LT(ctx->max_per_device_ios(), ctx->stats().total_ios());
  // Truncating reopen resets the contents across all parts.
  io::WriteAllRecords(ctx.get(), path, std::vector<std::uint64_t>{1, 2, 3});
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), path),
            (std::vector<std::uint64_t>{1, 2, 3}));
  ctx->temp_files().Remove(path);
}

// Striping composes with block checksums: the physical stride grows by
// the CRC32 trailer on both layers (StripedDevice::Open mirrors
// BlockFile's stride rule), so a checksummed sort over striped scratch
// still round-trips byte-identically.
TEST(StripedPlacementTest, ChecksummedStripedSortRoundTrips) {
  io::IoContextOptions options;
  options.block_size = 1024;
  options.memory_bytes = 16 << 10;
  options.device_model.model = io::DeviceModel::kMem;
  options.scratch_placement = io::PlacementPolicy::kStriped;
  options.checksum_blocks = true;
  for (int i = 0; i < 3; ++i) options.scratch_dirs.push_back("");
  auto ctx = std::make_unique<io::IoContext>(options);
  auto values = RandomValues(30'000, 37);
  const std::string in = ctx->NewTempPath("in");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords(ctx.get(), in, values);
  extsort::SortFile<std::uint64_t, U64Less>(ctx.get(), in, out, U64Less());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), out), values);
  ExpectDeviceStatsSumToAggregate(*ctx);
  EXPECT_FALSE(ctx->has_io_error()) << ctx->io_error().ToString();
}

// ---- striped bandwidth regressions -----------------------------------

// Throttled-device context for the bandwidth regressions: real latency,
// device-parallel I/O on, placement under test. Bypasses the test-env
// overrides — placement and geometry ARE the subject here.
std::unique_ptr<io::IoContext> MakeThrottledContext(
    std::size_t num_devices, io::PlacementPolicy placement,
    std::uint64_t latency_us) {
  io::IoContextOptions options;
  options.block_size = 1024;
  options.memory_bytes = 16 << 10;
  options.device_model.model = io::DeviceModel::kThrottled;
  options.device_model.throttle_latency_us = latency_us;
  options.device_model.throttle_mb_per_sec = 0;
  options.scratch_placement = placement;
  options.io_threads = 2;
  options.prefetch_depth = 4;
  for (std::size_t i = 0; i < num_devices; ++i) {
    options.scratch_dirs.push_back("");
  }
  if (num_devices <= 1) options.scratch_dirs.clear();
  return std::make_unique<io::IoContext>(options);
}

struct ThrottledPhase {
  double wall = 0;
  io::IoStats delta;            // aggregate delta over the phase
  std::uint64_t dev_total = 0;  // per-device total_ios summed (delta)
  std::uint64_t dev_max = 0;    // busiest device (delta)
};

// The tentpole's headline property: ONE long sequential scan on two
// throttled devices under kStriped runs at >= 1.8x one device's
// bandwidth, with identical counted block I/Os and the per-device
// critical path at ~total/2. The serialized baseline has a hard lower
// bound (the busy-until clock guarantees it) and the striped phase
// retries, so a loaded CI machine cannot flip the verdict.
TEST(ThrottledStripedTest, SingleStreamScanOnTwoDevicesDoublesBandwidth) {
  constexpr std::uint64_t kLatencyUs = 4'000;  // 4 ms per block op
  constexpr std::size_t kBlocks = 40;
  const auto values =
      RandomValues(kBlocks * (1024 / sizeof(std::uint64_t)), 41);
  const auto scan = [&](std::size_t num_devices,
                        io::PlacementPolicy placement) {
    auto ctx = MakeThrottledContext(num_devices, placement, kLatencyUs);
    const std::string path = ctx->NewTempPath("scan");
    io::WriteAllRecords(ctx.get(), path, values);
    const io::IoStats before = ctx->stats();
    const auto dev_before = ctx->DeviceStats();
    util::Timer timer;
    const auto got = io::ReadAllRecords<std::uint64_t>(ctx.get(), path);
    ThrottledPhase phase;
    phase.wall = timer.ElapsedSeconds();
    EXPECT_EQ(got, values);
    phase.delta = ctx->stats() - before;
    const auto dev_after = ctx->DeviceStats();
    for (std::size_t i = 0; i < dev_after.size(); ++i) {
      const std::uint64_t ios =
          (dev_after[i].stats - dev_before[i].stats).total_ios();
      phase.dev_total += ios;
      phase.dev_max = std::max(phase.dev_max, ios);
    }
    return phase;
  };

  const ThrottledPhase one = scan(1, io::PlacementPolicy::kRoundRobin);
  const double serial_floor = kBlocks * (kLatencyUs / 1e6);
  EXPECT_GE(one.wall, 0.9 * serial_floor)
      << "one throttled device must serialize the scan";

  // A loaded CI machine inflates BOTH walls (scheduler starvation is
  // additive), so each retry re-measures the pair and the verdict
  // compares the best striped draw against the worst serialized draw —
  // the latter is still bounded below by the device clock.
  ThrottledPhase striped = scan(2, io::PlacementPolicy::kStriped);
  double worst_one = one.wall;
  double best_striped = striped.wall;
  for (int attempt = 0; attempt < 4 && best_striped >= worst_one / 1.8;
       ++attempt) {
    worst_one =
        std::max(worst_one, scan(1, io::PlacementPolicy::kRoundRobin).wall);
    striped = scan(2, io::PlacementPolicy::kStriped);
    best_striped = std::min(best_striped, striped.wall);
  }
  EXPECT_LT(best_striped, worst_one / 1.8)
      << "a striped scan on 2 devices must draw ~2x one device's bandwidth";
  // Striping moves blocks between devices, never changes their count.
  EXPECT_EQ(one.delta.total_reads(), striped.delta.total_reads());
  EXPECT_EQ(one.delta.bytes_read, striped.delta.bytes_read);
  // The scan's blocks split ~evenly: the busiest device carries about
  // half the phase's I/Os (small slack for odd parity).
  EXPECT_LE(striped.dev_max, striped.dev_total / 2 + 2)
      << "striped scan must balance I/Os across both devices";
}

// The merge-side twin: a fan-in-2 final merge (fused drain, the SortInto
// shape) over two striped throttled devices runs at >= 1.8x the
// one-device wall with identical counted block I/Os — both input runs
// stripe over both devices, so both workers feed the loser tree
// concurrently.
TEST(ThrottledStripedTest, FanInTwoFinalMergeOnTwoDevicesDoublesBandwidth) {
  // 8 ms per block op: the merge's per-block hand-off overhead is a
  // smaller fraction of the simulated time than at 4 ms, which keeps
  // the 1.8x bound honest on a loaded machine.
  constexpr std::uint64_t kLatencyUs = 8'000;
  constexpr std::size_t kRunBlocks = 16;  // per run
  const std::size_t per_run = kRunBlocks * (1024 / sizeof(std::uint64_t));
  auto run_a = RandomValues(per_run, 43);
  auto run_b = RandomValues(per_run, 47);
  std::sort(run_a.begin(), run_a.end());
  std::sort(run_b.begin(), run_b.end());
  std::vector<std::uint64_t> expected;
  expected.reserve(2 * per_run);
  std::merge(run_a.begin(), run_a.end(), run_b.begin(), run_b.end(),
             std::back_inserter(expected));

  const auto merge = [&](std::size_t num_devices,
                         io::PlacementPolicy placement) {
    auto ctx = MakeThrottledContext(num_devices, placement, kLatencyUs);
    const std::string path_a = ctx->NewTempPath("runa");
    const std::string path_b = ctx->NewTempPath("runb");
    io::WriteAllRecords(ctx.get(), path_a, run_a);
    io::WriteAllRecords(ctx.get(), path_b, run_b);
    const io::IoStats before = ctx->stats();
    const auto dev_before = ctx->DeviceStats();
    util::Timer timer;
    std::vector<std::unique_ptr<io::PeekableReader<std::uint64_t>>> inputs;
    inputs.push_back(std::make_unique<io::PeekableReader<std::uint64_t>>(
        ctx.get(), path_a));
    inputs.push_back(std::make_unique<io::PeekableReader<std::uint64_t>>(
        ctx.get(), path_b));
    extsort::internal::LoserTree<std::uint64_t, U64Less> tree(
        std::move(inputs), U64Less());
    std::vector<std::uint64_t> merged;
    merged.reserve(expected.size());
    auto sink = extsort::MakeCallbackSink<std::uint64_t>(
        [&merged](const std::uint64_t& v) { merged.push_back(v); });
    extsort::internal::DrainMerge(&tree, &sink, U64Less(), /*dedup=*/false);
    ThrottledPhase phase;
    phase.wall = timer.ElapsedSeconds();
    EXPECT_EQ(merged, expected);
    phase.delta = ctx->stats() - before;
    const auto dev_after = ctx->DeviceStats();
    for (std::size_t i = 0; i < dev_after.size(); ++i) {
      const std::uint64_t ios =
          (dev_after[i].stats - dev_before[i].stats).total_ios();
      phase.dev_total += ios;
      phase.dev_max = std::max(phase.dev_max, ios);
    }
    return phase;
  };

  const ThrottledPhase one = merge(1, io::PlacementPolicy::kRoundRobin);
  const double serial_floor = 2.0 * kRunBlocks * (kLatencyUs / 1e6);
  EXPECT_GE(one.wall, 0.9 * serial_floor)
      << "one throttled device must serialize the merge reads";

  // Same paired-retry pattern as the scan test: per-block hand-off
  // overhead under CI load is additive on both sides, so re-measure
  // the pair and compare best striped against worst serialized.
  ThrottledPhase striped = merge(2, io::PlacementPolicy::kStriped);
  double worst_one = one.wall;
  double best_striped = striped.wall;
  for (int attempt = 0; attempt < 4 && best_striped >= worst_one / 1.8;
       ++attempt) {
    worst_one =
        std::max(worst_one, merge(1, io::PlacementPolicy::kRoundRobin).wall);
    striped = merge(2, io::PlacementPolicy::kStriped);
    best_striped = std::min(best_striped, striped.wall);
  }
  EXPECT_LT(best_striped, worst_one / 1.8)
      << "a striped fan-in-2 merge on 2 devices must halve the wall";
  EXPECT_EQ(one.delta.total_reads(), striped.delta.total_reads());
  EXPECT_EQ(one.delta.bytes_read, striped.delta.bytes_read);
  EXPECT_LE(striped.dev_max, striped.dev_total / 2 + 2)
      << "striped merge must balance I/Os across both devices";
}

}  // namespace
}  // namespace extscc
