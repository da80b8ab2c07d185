// Storage-device API tests: MemDevice/ThrottledDevice round trips and
// accounting equivalence with PosixDevice, per-device stats summing
// exactly to the aggregate IoStats, the round-robin default staying
// byte-identical to the pre-device engine, the throttle model, and the
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
                                           std::uint64_t memory = 16 << 10,
                                           std::size_t block = 1024) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes = memory;
  options.device_model.model = model;
  // Keep the simulated devices effectively free for tests.
  options.device_model.throttle_latency_us = 0;
  options.device_model.throttle_mb_per_sec = 0;
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
  auto ctx = MakeContext(io::DeviceModel::kMem, 1);
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
  auto ctx = MakeContext(io::DeviceModel::kMem, 1);
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
  auto ctx = MakeContext(io::DeviceModel::kThrottled, 2);
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
    auto ctx = MakeContext(model, 1);
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
  auto ctx = MakeContext(io::DeviceModel::kMem, 1);
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
  io::TempFileManager manager(std::move(devices));
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
}

// One parser serves every front end: the tool's and benches' flags, and
// the EXTSCC_BENCH_/EXTSCC_TEST_ variables. A variable prefix of the
// test's own keeps the CI matrix's EXTSCC_TEST_* settings untouched.
TEST(StorageConfigTest, MachineOptionsParseFromFlagsAndEnv) {
  io::IoContextOptions options;
  for (const char* flag :
       {"--sort-threads=1", "--scratch-dirs=a,,b",
        "--device-model=throttled:5"}) {
    EXPECT_EQ(io::ParseMachineFlag(flag, &options), "") << flag;
  }
  EXPECT_EQ(options.sort_threads, 1u);
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.device_model.model, io::DeviceModel::kThrottled);
  EXPECT_EQ(options.device_model.throttle_latency_us, 5u);
  // Malformed values, out-of-range values, options without a value and
  // unknown options (including the retired --io-threads and
  // --placement) are errors, never silently ignored.
  for (const char* flag :
       {"--sort-threads=two", "--sort-threads=-1", "--sort-threads=2",
        "--io-threads=2", "--io-threads=two", "--io-threads=-1",
        "--placement=rr", "--sort-threads", "--scratch-dirs",
        "--device-model", "--checksum-blocks", "--frobnicate",
        "--frobnicate=1", "positional"}) {
    EXPECT_NE(io::ParseMachineFlag(flag, &options), "") << flag;
  }
  EXPECT_EQ(io::ParseMachineFlag("--device-model", &options),
            "missing value for --device-model (want --device-model=VALUE)");
  EXPECT_EQ(io::ParseMachineFlag("--sort-threads=2", &options),
            "bad --sort-threads \"2\" (want 0 or 1)");
  EXPECT_EQ(io::ParseMachineFlag("--io-threads=2", &options),
            "unknown flag --io-threads (machine options: --sort-threads, "
            "--scratch-dirs, --device-model)");
  EXPECT_EQ(io::ParseMachineFlag("--placement=rr", &options),
            "unknown flag --placement (machine options: --sort-threads, "
            "--scratch-dirs, --device-model)");
  // A rejected flag leaves the options as they were.
  EXPECT_EQ(options.sort_threads, 1u);
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.device_model.model, io::DeviceModel::kThrottled);

  // The retired variables are no longer read.
  ::setenv("EXTSCC_PARSER_TEST_IO_THREADS", "two", 1);
  ::setenv("EXTSCC_PARSER_TEST_PLACEMENT", "spread", 1);
  ::setenv("EXTSCC_PARSER_TEST_SORT_THREADS", "0", 1);
  ::setenv("EXTSCC_PARSER_TEST_SCRATCH_DIRS", "c", 1);
  EXPECT_EQ(io::ParseMachineEnv("EXTSCC_PARSER_TEST_", &options), "");
  EXPECT_EQ(options.sort_threads, 0u);
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"c"}));
  ::setenv("EXTSCC_PARSER_TEST_SORT_THREADS", "2", 1);
  EXPECT_EQ(io::ParseMachineEnv("EXTSCC_PARSER_TEST_", &options),
            "EXTSCC_PARSER_TEST_SORT_THREADS: bad --sort-threads \"2\" "
            "(want 0 or 1)");
  ::unsetenv("EXTSCC_PARSER_TEST_IO_THREADS");
  ::unsetenv("EXTSCC_PARSER_TEST_PLACEMENT");
  ::unsetenv("EXTSCC_PARSER_TEST_SORT_THREADS");
  ::unsetenv("EXTSCC_PARSER_TEST_SCRATCH_DIRS");

  // The suites' own front end turns that error into a test failure.
  const char* matrix = std::getenv("EXTSCC_TEST_SORT_THREADS");
  const std::string saved = matrix != nullptr ? matrix : "";
  ::setenv("EXTSCC_TEST_SORT_THREADS", "2", 1);
  EXPECT_NONFATAL_FAILURE(
      {
        io::IoContextOptions env_options;
        testing::ApplyTestEnvOptions(&env_options);
      },
      "EXTSCC_TEST_SORT_THREADS: bad --sort-threads \"2\" (want 0 or 1)");
  if (matrix != nullptr) {
    ::setenv("EXTSCC_TEST_SORT_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("EXTSCC_TEST_SORT_THREADS");
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

}  // namespace
}  // namespace extscc
