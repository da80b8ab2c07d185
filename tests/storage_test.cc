// Storage-device API tests: MemDevice and two-device round trips and
// accounting equivalence with PosixDevice, per-device stats summing
// exactly to the aggregate IoStats, the round-robin default staying
// byte-identical to the pre-device engine, and the shared
// machine-option parser.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
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

std::unique_ptr<io::IoContext> MakeContext(io::DeviceModel model,
                                           std::size_t num_devices,
                                           std::uint64_t memory = 16 << 10,
                                           std::size_t block = 1024) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes = memory;
  options.device_model.model = model;
  // Under kMem the entries only set the device count; under kPosix an
  // empty parent is $TMPDIR, so no directories are named here.
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

TEST(StorageDeviceTest, TwoPosixDevicesRoundTrip) {
  auto ctx = MakeContext(io::DeviceModel::kPosix, 2);
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
  auto ctx = MakeContext(io::DeviceModel::kMem, 1);
  const testing::ScopedTempPath outside("outside.bin");
  io::WriteAllRecords(ctx.get(), outside.path(),
                      std::vector<std::uint64_t>{1, 2, 3});
  const auto rows = ctx->DeviceStats();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().name, "base");
  EXPECT_GT(rows.front().stats.total_ios(), 0u);
  ExpectDeviceStatsSumToAggregate(*ctx);
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
  EXPECT_NE(io::ParseDeviceModelSpec("floppy", &spec), "");
  // The retired simulated-spindle model is an unknown model like any
  // other; the message lists the three that exist.
  EXPECT_EQ(io::ParseDeviceModelSpec("throttled", &spec),
            "unknown --device-model \"throttled\" (supported: posix, mem, "
            "faulty[:key=value,...])");
  EXPECT_NE(io::ParseDeviceModelSpec("throttled:10:8192", &spec), "");
  EXPECT_EQ(spec.model, io::DeviceModel::kMem)
      << "a rejected spec must leave *out untouched";

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
       {"--scratch-dirs=a,,b", "--device-model=faulty:seed=5"}) {
    EXPECT_EQ(io::ParseMachineFlag(flag, &options), "") << flag;
  }
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.device_model.model, io::DeviceModel::kFaulty);
  EXPECT_EQ(options.device_model.fault.seed, 5u);
  // Malformed values, options without a value and unknown options
  // (including the retired --sort-threads, --io-threads and
  // --placement, and the retired throttled model) are errors, never
  // silently ignored.
  for (const char* flag :
       {"--sort-threads=0", "--sort-threads=1", "--sort-threads",
        "--io-threads=2", "--io-threads=two", "--io-threads=-1",
        "--placement=rr", "--device-model=throttled",
        "--device-model=throttled:10:8192", "--scratch-dirs",
        "--device-model", "--checksum-blocks", "--frobnicate",
        "--frobnicate=1", "positional"}) {
    EXPECT_NE(io::ParseMachineFlag(flag, &options), "") << flag;
  }
  EXPECT_EQ(io::ParseMachineFlag("--device-model", &options),
            "missing value for --device-model (want --device-model=VALUE)");
  for (const char* retired : {"sort-threads", "io-threads", "placement"}) {
    EXPECT_EQ(io::ParseMachineFlag(std::string("--") + retired + "=1",
                                   &options),
              std::string("unknown flag --") + retired +
                  " (machine options: --scratch-dirs, --device-model)");
  }
  // A rejected flag leaves the options as they were.
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.device_model.model, io::DeviceModel::kFaulty);
  EXPECT_EQ(options.device_model.fault.seed, 5u);

  // The retired variables are no longer read.
  ::setenv("EXTSCC_PARSER_TEST_IO_THREADS", "two", 1);
  ::setenv("EXTSCC_PARSER_TEST_PLACEMENT", "spread", 1);
  ::setenv("EXTSCC_PARSER_TEST_SORT_THREADS", "2", 1);
  ::setenv("EXTSCC_PARSER_TEST_SCRATCH_DIRS", "c", 1);
  EXPECT_EQ(io::ParseMachineEnv("EXTSCC_PARSER_TEST_", &options), "");
  EXPECT_EQ(options.scratch_dirs, (std::vector<std::string>{"c"}));
  ::setenv("EXTSCC_PARSER_TEST_DEVICE_MODEL", "throttled", 1);
  EXPECT_EQ(io::ParseMachineEnv("EXTSCC_PARSER_TEST_", &options),
            "EXTSCC_PARSER_TEST_DEVICE_MODEL: unknown --device-model "
            "\"throttled\" (supported: posix, mem, faulty[:key=value,...])");
  ::unsetenv("EXTSCC_PARSER_TEST_IO_THREADS");
  ::unsetenv("EXTSCC_PARSER_TEST_PLACEMENT");
  ::unsetenv("EXTSCC_PARSER_TEST_SORT_THREADS");
  ::unsetenv("EXTSCC_PARSER_TEST_SCRATCH_DIRS");
  ::unsetenv("EXTSCC_PARSER_TEST_DEVICE_MODEL");

  // The suites' own front end turns that error into a test failure.
  const char* matrix = std::getenv("EXTSCC_TEST_DEVICE_MODEL");
  const std::string saved = matrix != nullptr ? matrix : "";
  ::setenv("EXTSCC_TEST_DEVICE_MODEL", "throttled", 1);
  EXPECT_NONFATAL_FAILURE(
      {
        io::IoContextOptions env_options;
        testing::ApplyTestEnvOptions(&env_options);
      },
      "EXTSCC_TEST_DEVICE_MODEL: unknown --device-model \"throttled\"");
  if (matrix != nullptr) {
    ::setenv("EXTSCC_TEST_DEVICE_MODEL", saved.c_str(), 1);
  } else {
    ::unsetenv("EXTSCC_TEST_DEVICE_MODEL");
  }
}

TEST(StorageConfigTest, ValidateScratchParentsNamesTheBadEntry) {
  namespace fs = std::filesystem;
  const testing::ScopedTempPath good_dir("good");
  const std::string& good = good_dir.path();
  fs::create_directories(good);
  EXPECT_EQ(io::ValidateScratchParents({good}), "");
  const testing::ScopedTempPath missing_dir("missing");
  const std::string& missing = missing_dir.path();
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
}

}  // namespace
}  // namespace extscc
