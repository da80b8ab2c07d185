// Machine-readable baseline for the device-parallel merge engine:
// merges k pre-sorted runs placed across D simulated devices — once per
// placement policy (rr: consecutive runs on alternating devices;
// striped: every run's BLOCKS round-robin across the devices) — with
// the serial engine (io_threads=0) and once per requested io_threads
// setting, on both mem-backed and throttled devices. A second phase
// scans ONE long sequential file per configuration: the single-stream
// case only striping can accelerate (round-robin placement pins a
// single file to a single device). Emits an aligned table (wall + I/O
// columns per setting) and writes BENCH_merge_parallel.json into the
// working directory, so the perf trajectory has comparable points
// across PRs.
//
// The merged stream drains into a checksum sink — the shape of every
// fused final merge pass (SortInto), where the paper's algorithms
// consume the sorted stream without materializing it. The bench asserts
// what the engine promises: identical block-I/O counts and identical
// output checksums across io_threads settings of one configuration;
// only the wall time moves.
//
//   bench_merge_parallel [--runs=8] [--run-blocks=48] [--devices=2]
//                        [--latency-us=2000] [--mb-per-s=256]
//                        [--io-threads=2[,4,...]]
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/merge_lab.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace extscc;
namespace fs = std::filesystem;

struct Config {
  std::size_t runs = 8;
  std::size_t run_blocks = 48;  // blocks per run (64 KB blocks)
  std::size_t devices = 2;
  std::uint64_t latency_us = 2000;
  std::uint64_t mb_per_s = 256;
  std::vector<std::size_t> io_threads = {2};
};

struct Point {
  std::string model;
  std::string phase;      // "merge" | "scan"
  std::string placement;  // "rr" | "striped"
  std::size_t io_threads = 0;
  double wall_s = 0;
  std::uint64_t total_ios = 0;
  std::uint64_t max_dev_ios = 0;
  std::uint64_t merged_records = 0;
  std::uint64_t checksum = 0;
};

constexpr std::size_t kBlockSize = 64 * 1024;

// Scratch parents for the file-backed model, created fresh per process.
std::vector<std::string> MakeScratchParents(std::size_t devices) {
  std::vector<std::string> parents;
  const fs::path base = fs::temp_directory_path() /
                        ("extscc_merge_parallel_" +
                         std::to_string(::getpid()));
  for (std::size_t i = 0; i < devices; ++i) {
    const fs::path dir = base / ("dev" + std::to_string(i));
    fs::create_directories(dir);
    parents.push_back(dir.string());
  }
  return parents;
}

std::unique_ptr<io::IoContext> MakeMachine(
    const Config& config, const std::string& model,
    const std::string& placement, std::size_t io_threads,
    const std::vector<std::string>& parents) {
  io::IoContextOptions options;
  options.block_size = kBlockSize;
  options.memory_bytes = 8ull << 20;
  options.scratch_dirs = parents;
  options.scratch_placement = placement == "striped"
                                  ? io::PlacementPolicy::kStriped
                                  : io::PlacementPolicy::kRoundRobin;
  options.io_threads = io_threads;
  if (model == "mem") {
    options.device_model.model = io::DeviceModel::kMem;
  } else {
    options.device_model.model = io::DeviceModel::kThrottled;
    options.device_model.throttle_latency_us = config.latency_us;
    options.device_model.throttle_mb_per_sec = config.mb_per_s;
  }
  return std::make_unique<io::IoContext>(options);
}

void FillDeviceDeltas(const io::IoContext& ctx, const io::IoStats& before,
                      const std::vector<io::IoContext::DeviceStatsRow>&
                          dev_before,
                      Point* point) {
  const io::IoStats delta = ctx.stats() - before;
  point->total_ios = delta.total_ios();
  const auto dev_after = ctx.DeviceStats();
  for (std::size_t i = 0; i < dev_after.size(); ++i) {
    point->max_dev_ios =
        std::max(point->max_dev_ios,
                 (dev_after[i].stats - dev_before[i].stats).total_ios());
  }
}

Point RunMergePoint(const Config& config, const std::string& model,
                    const std::string& placement, std::size_t io_threads,
                    const std::vector<std::string>& parents) {
  auto ctx = MakeMachine(config, model, placement, io_threads, parents);
  // Run layout and merge drain shared with bench_micro's
  // BM_MergeParallel (bench/merge_lab.h), so the two benches'
  // checksums cross-validate.
  const std::uint64_t run_len =
      config.run_blocks * kBlockSize / sizeof(graph::Edge);
  const auto runs = bench::MakeMergeRuns(ctx.get(), config.runs, run_len, 11);

  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  Point point;
  point.model = model;
  point.phase = "merge";
  point.placement = placement;
  point.io_threads = io_threads;

  util::Timer timer;
  const bench::MergeDrainResult merged =
      bench::DrainMergeChecksum(ctx.get(), runs);
  point.wall_s = timer.ElapsedSeconds();
  point.merged_records = merged.records;
  point.checksum = merged.checksum;
  FillDeviceDeltas(*ctx, before, dev_before, &point);
  return point;
}

// The single-stream case: one sequential file as long as all the merge
// runs together, drained record by record. Round-robin placement pins
// it to one device; striped placement is what lets D devices serve it.
Point RunScanPoint(const Config& config, const std::string& model,
                   const std::string& placement, std::size_t io_threads,
                   const std::vector<std::string>& parents) {
  auto ctx = MakeMachine(config, model, placement, io_threads, parents);
  const std::uint64_t n =
      config.runs * config.run_blocks * kBlockSize / sizeof(graph::Edge);
  const std::string path = ctx->NewTempPath("scanfile");
  {
    io::RecordWriter<graph::Edge> writer(ctx.get(), path);
    util::Rng rng(13);
    for (std::uint64_t i = 0; i < n; ++i) {
      graph::Edge e;
      e.src = static_cast<graph::NodeId>(rng.Uniform(1u << 20));
      e.dst = static_cast<graph::NodeId>(rng.Uniform(1u << 20));
      writer.Append(e);
    }
    writer.Finish();
  }

  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  Point point;
  point.model = model;
  point.phase = "scan";
  point.placement = placement;
  point.io_threads = io_threads;

  util::Timer timer;
  io::RecordReader<graph::Edge> reader(ctx.get(), path);
  graph::Edge e;
  while (reader.Next(&e)) {
    point.merged_records += 1;
    point.checksum =
        point.checksum * 1099511628211ull + (e.src ^ (e.dst << 1));
  }
  point.wall_s = timer.ElapsedSeconds();
  FillDeviceDeltas(*ctx, before, dev_before, &point);
  return point;
}

void WriteJson(const Config& config, const std::vector<Point>& points) {
  std::FILE* f = std::fopen("BENCH_merge_parallel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_merge_parallel.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"merge_parallel\",\n"
               "  \"block_size\": %zu,\n  \"runs\": %zu,\n"
               "  \"run_blocks\": %zu,\n  \"devices\": %zu,\n"
               "  \"throttle\": {\"latency_us\": %llu, \"mb_per_s\": %llu},\n"
               "  \"points\": [\n",
               kBlockSize, config.runs, config.run_blocks, config.devices,
               static_cast<unsigned long long>(config.latency_us),
               static_cast<unsigned long long>(config.mb_per_s));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"phase\": \"%s\", "
                 "\"placement\": \"%s\", \"io_threads\": %zu, "
                 "\"wall_s\": %.6f, \"total_ios\": %llu, "
                 "\"max_dev_ios\": %llu, \"merged_records\": %llu, "
                 "\"checksum\": %llu}%s\n",
                 p.model.c_str(), p.phase.c_str(), p.placement.c_str(),
                 p.io_threads, p.wall_s,
                 static_cast<unsigned long long>(p.total_ios),
                 static_cast<unsigned long long>(p.max_dev_ios),
                 static_cast<unsigned long long>(p.merged_records),
                 static_cast<unsigned long long>(p.checksum),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n[json written to BENCH_merge_parallel.json]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      config.runs = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--run-blocks=", 13) == 0) {
      config.run_blocks = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--devices=", 10) == 0) {
      config.devices = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--latency-us=", 13) == 0) {
      config.latency_us = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--mb-per-s=", 11) == 0) {
      config.mb_per_s = std::strtoull(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--io-threads=", 13) == 0) {
      config.io_threads.clear();
      for (const char* p = argv[i] + 13; *p != '\0';) {
        config.io_threads.push_back(std::strtoull(p, nullptr, 10));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_merge_parallel [--runs=K] [--run-blocks=N] "
                   "[--devices=D] [--latency-us=L] [--mb-per-s=B] "
                   "[--io-threads=a,b,...]\n");
      return 2;
    }
  }

  const auto parents = MakeScratchParents(config.devices);
  std::vector<Point> points;
  for (const std::string model : {"mem", "throttled"}) {
    for (const std::string placement : {"rr", "striped"}) {
      points.push_back(
          RunMergePoint(config, model, placement, 0, parents));
      for (const std::size_t threads : config.io_threads) {
        points.push_back(
            RunMergePoint(config, model, placement, threads, parents));
      }
      points.push_back(RunScanPoint(config, model, placement, 0, parents));
      for (const std::size_t threads : config.io_threads) {
        points.push_back(
            RunScanPoint(config, model, placement, threads, parents));
      }
    }
  }

  std::printf("\n=== %zu-way merge + single-stream scan, %zu devices, "
              "%zu blocks/run ===\n",
              config.runs, config.devices, config.run_blocks);
  std::printf("%-10s %-7s %-9s %-11s %-10s %-10s %-12s %-9s\n", "model",
              "phase", "placement", "io_threads", "wall_s", "total_ios",
              "max_dev_ios", "speedup");
  for (const Point& p : points) {
    double serial_wall = 0;
    for (const Point& q : points) {
      if (q.model == p.model && q.phase == p.phase &&
          q.placement == p.placement && q.io_threads == 0) {
        serial_wall = q.wall_s;
      }
    }
    std::printf("%-10s %-7s %-9s %-11zu %-10.4f %-10llu %-12llu %-9.2f\n",
                p.model.c_str(), p.phase.c_str(), p.placement.c_str(),
                p.io_threads, p.wall_s,
                static_cast<unsigned long long>(p.total_ios),
                static_cast<unsigned long long>(p.max_dev_ios),
                p.wall_s > 0 ? serial_wall / p.wall_s : 0.0);
  }

  // The engine's promises, enforced: identical counts and identical
  // output checksums across io_threads settings of one configuration
  // (model, phase, placement).
  int rc = 0;
  for (const Point& p : points) {
    for (const Point& q : points) {
      if (p.model != q.model || p.phase != q.phase ||
          p.placement != q.placement) {
        continue;
      }
      if (p.total_ios != q.total_ios || p.checksum != q.checksum ||
          p.merged_records != q.merged_records) {
        std::fprintf(stderr,
                     "MISMATCH: %s/%s/%s io_threads=%zu vs %zu "
                     "(ios %llu/%llu, checksum %llu/%llu)\n",
                     p.model.c_str(), p.phase.c_str(), p.placement.c_str(),
                     p.io_threads, q.io_threads,
                     static_cast<unsigned long long>(p.total_ios),
                     static_cast<unsigned long long>(q.total_ios),
                     static_cast<unsigned long long>(p.checksum),
                     static_cast<unsigned long long>(q.checksum));
        rc = 1;
      }
    }
  }
  WriteJson(config, points);
  std::error_code ec;
  fs::remove_all(fs::path(parents.front()).parent_path(), ec);
  return rc;
}
