// Shared figure-bench harness: runs DFS-SCC / Ext-SCC / Ext-SCC-Op on a
// freshly generated workload per sweep point, collects the paper's two
// metrics (wall time, number of block I/Os), censors DFS-SCC at an I/O
// budget (printed as INF, like the paper's 24-hour cap), prints an
// aligned table and writes a CSV next to the binary.
#ifndef EXTSCC_BENCH_HARNESS_H_
#define EXTSCC_BENCH_HARNESS_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/dfs_scc.h"
#include "baseline/em_scc.h"
#include "bench/workloads.h"
#include "core/ext_scc.h"
#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "util/csv.h"
#include "util/timer.h"

namespace extscc::bench {

using WorkloadFactory =
    std::function<graph::DiskGraph(io::IoContext* context)>;

struct AlgoResult {
  bool inf = false;          // censored (I/O budget) or stalled (EM-SCC)
  std::string inf_reason;
  double wall_seconds = 0;   // measured on this machine (page-cached)
  double seconds = 0;        // modeled HDD time (see workloads.h)
  std::uint64_t ios = 0;
  std::uint64_t random_ios = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sccs = 0;
  std::uint32_t levels = 0;  // Ext-SCC contraction levels
  // Parallel-bandwidth view: the busiest device's I/O count (the phase's
  // critical path when devices operate independently) and the per-device
  // breakdown as "name=ios|name=ios" (idle devices omitted).
  std::uint64_t max_dev_ios = 0;
  std::string device_ios;

  void FillFromStats(const io::IoStats& delta, double wall) {
    wall_seconds = wall;
    ios = delta.total_ios();
    random_ios = delta.random_ios();
    bytes = delta.bytes_read + delta.bytes_written;
    seconds = static_cast<double>(bytes) / kSeqBytesPerSecond +
              static_cast<double>(random_ios) * kSeekSeconds;
  }

  void FillFromDeviceStats(
      const std::vector<io::IoContext::DeviceStatsRow>& before,
      const std::vector<io::IoContext::DeviceStatsRow>& after) {
    max_dev_ios = 0;
    device_ios.clear();
    for (std::size_t i = 0; i < after.size(); ++i) {
      const io::IoStats delta = after[i].stats - before[i].stats;
      const std::uint64_t dev_ios = delta.total_ios();
      if (dev_ios == 0) continue;
      max_dev_ios = std::max(max_dev_ios, dev_ios);
      if (!device_ios.empty()) device_ios += '|';
      device_ios += after[i].name + "=" + std::to_string(dev_ios);
    }
  }

  std::string TimeCell() const {
    return inf ? "INF" : util::FormatDouble(seconds, 2);
  }
  std::string IoCell() const {
    return inf ? "INF" : util::FormatCount(ios);
  }
};

struct PointResult {
  std::string point_label;
  AlgoResult ext;     // Ext-SCC (basic)
  AlgoResult ext_op;  // Ext-SCC-Op
  AlgoResult dfs;     // DFS-SCC (censored)
  std::optional<AlgoResult> em;  // EM-SCC when requested
};

// ---- bench flags -----------------------------------------------------
// Every machine the benches build takes the shared machine options
// (io/io_context.h: --sort-threads, --scratch-dirs, --device-model), as
// flags or as EXTSCC_BENCH_<SUFFIX> variables, which win over flags.
// The defaults are the serial single-disk engine, so the tables are the
// paper's Aggarwal-Vitter accounting. Block accounting is identical
// across device models and scratch-device counts; --sort-threads=1
// keeps outputs byte-identical but can shift I/O counts slightly
// (halved run buffers), so the figure tables are the paper's only at
// its default 0.
inline io::IoContextOptions& MachineFlags() {
  static io::IoContextOptions options;
  return options;
}

// Parses argv and the environment into MachineFlags(); a bad or unknown
// flag exits 2 with the parser's message.
inline void ParseBenchFlags(int argc, char** argv) {
  io::IoContextOptions& options = MachineFlags();
  std::string error;
  for (int i = 1; i < argc && error.empty(); ++i) {
    error = io::ParseMachineFlag(argv[i], &options);
  }
  if (error.empty()) error = io::ParseMachineEnv("EXTSCC_BENCH_", &options);
  if (error.empty()) error = io::ValidateMachineOptions(options);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
}

inline std::unique_ptr<io::IoContext> MakeMachine(std::uint64_t memory) {
  io::IoContextOptions options = MachineFlags();
  options.block_size = BlockSize();
  options.memory_bytes = memory;
  return std::make_unique<io::IoContext>(options);
}

inline AlgoResult RunExtPoint(const WorkloadFactory& workload,
                              std::uint64_t memory, bool op_mode) {
  auto ctx = MakeMachine(memory);
  const auto g = workload(ctx.get());
  const std::string out = ctx->NewTempPath("scc");
  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  util::Timer timer;
  auto result = core::RunExtScc(ctx.get(), g, out,
                                op_mode ? core::ExtSccOptions::Optimized()
                                        : core::ExtSccOptions::Basic());
  AlgoResult algo;
  algo.FillFromStats(ctx->stats() - before, timer.ElapsedSeconds());
  algo.FillFromDeviceStats(dev_before, ctx->DeviceStats());
  if (!result.ok()) {
    algo.inf = true;
    algo.inf_reason = result.status().ToString();
    return algo;
  }
  algo.sccs = result.value().num_sccs;
  algo.levels = result.value().num_levels();
  return algo;
}

// DFS-SCC with the INF censoring budget derived from a reference I/O
// count (normally Ext-SCC-Op's on the same point).
inline AlgoResult RunDfsPoint(const WorkloadFactory& workload,
                              std::uint64_t memory,
                              std::uint64_t reference_ios) {
  auto ctx = MakeMachine(memory);
  const auto g = workload(ctx.get());
  ctx->set_io_budget(ctx->stats().total_ios() +
                     reference_ios * kInfBudgetFactor);
  const std::string out = ctx->NewTempPath("scc");
  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  util::Timer timer;
  auto result = baseline::RunDfsScc(ctx.get(), g, out);
  AlgoResult algo;
  algo.FillFromStats(ctx->stats() - before, timer.ElapsedSeconds());
  algo.FillFromDeviceStats(dev_before, ctx->DeviceStats());
  if (!result.ok()) {
    algo.inf = true;
    algo.inf_reason = result.status().ToString();
    return algo;
  }
  algo.sccs = result.value().num_sccs;
  return algo;
}

inline AlgoResult RunEmPoint(const WorkloadFactory& workload,
                             std::uint64_t memory,
                             std::uint64_t reference_ios) {
  auto ctx = MakeMachine(memory);
  const auto g = workload(ctx.get());
  ctx->set_io_budget(ctx->stats().total_ios() +
                     reference_ios * kInfBudgetFactor);
  const std::string out = ctx->NewTempPath("scc");
  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  util::Timer timer;
  auto result = baseline::RunEmScc(ctx.get(), g, out);
  AlgoResult algo;
  algo.FillFromStats(ctx->stats() - before, timer.ElapsedSeconds());
  algo.FillFromDeviceStats(dev_before, ctx->DeviceStats());
  if (!result.ok()) {
    algo.inf = true;
    algo.inf_reason = result.status().ToString();
    return algo;
  }
  algo.sccs = result.value().num_sccs;
  return algo;
}

// Runs the three paper algorithms (optionally plus EM-SCC) on one point.
inline PointResult RunPoint(const std::string& label,
                            const WorkloadFactory& workload,
                            std::uint64_t memory, bool include_em = false) {
  PointResult point;
  point.point_label = label;
  std::fprintf(stderr, "  [point %s] Ext-SCC-Op...\n", label.c_str());
  point.ext_op = RunExtPoint(workload, memory, /*op_mode=*/true);
  std::fprintf(stderr, "  [point %s] Ext-SCC...\n", label.c_str());
  point.ext = RunExtPoint(workload, memory, /*op_mode=*/false);
  std::fprintf(stderr, "  [point %s] DFS-SCC (budget %llux)...\n",
               label.c_str(),
               static_cast<unsigned long long>(kInfBudgetFactor));
  point.dfs = RunDfsPoint(workload, memory, point.ext_op.ios);
  if (include_em) {
    std::fprintf(stderr, "  [point %s] EM-SCC...\n", label.c_str());
    point.em = RunEmPoint(workload, memory, point.ext_op.ios);
  }
  return point;
}

// Paper-style output: one time table and one I/O table per figure, plus
// a CSV dump for plotting.
inline void EmitFigure(const std::string& figure, const std::string& x_name,
                       const std::vector<PointResult>& points) {
  const bool with_em = !points.empty() && points.front().em.has_value();
  std::vector<std::string> header{x_name, "Ext-SCC-Op", "Ext-SCC",
                                  "DFS-SCC"};
  if (with_em) header.push_back("EM-SCC");

  util::Table time_table(header);
  util::Table io_table(header);
  util::Table csv({x_name, "algo", "modeled_time_s", "wall_time_s", "ios",
                   "random_ios", "max_dev_ios", "device_ios", "inf",
                   "sccs"});
  for (const auto& p : points) {
    std::vector<std::string> trow{p.point_label, p.ext_op.TimeCell(),
                                  p.ext.TimeCell(), p.dfs.TimeCell()};
    std::vector<std::string> iorow{p.point_label, p.ext_op.IoCell(),
                                   p.ext.IoCell(), p.dfs.IoCell()};
    if (with_em) {
      trow.push_back(p.em->TimeCell());
      iorow.push_back(p.em->IoCell());
    }
    time_table.AddRow(trow);
    io_table.AddRow(iorow);
    const auto add_csv = [&](const char* algo, const AlgoResult& r) {
      csv.AddRow({p.point_label, algo, util::FormatDouble(r.seconds, 4),
                  util::FormatDouble(r.wall_seconds, 4),
                  std::to_string(r.ios), std::to_string(r.random_ios),
                  std::to_string(r.max_dev_ios), r.device_ios,
                  r.inf ? "1" : "0", std::to_string(r.sccs)});
    };
    add_csv("ext_scc_op", p.ext_op);
    add_csv("ext_scc", p.ext);
    add_csv("dfs_scc", p.dfs);
    if (with_em) add_csv("em_scc", *p.em);
  }
  std::printf("\n=== %s — Time (modeled HDD seconds) ===\n%s",
              figure.c_str(), time_table.ToAligned().c_str());
  std::printf("\n=== %s — Number of I/Os ===\n%s", figure.c_str(),
              io_table.ToAligned().c_str());
  const std::string csv_path = figure + ".csv";
  if (csv.WriteCsvFile(csv_path)) {
    std::printf("\n[csv written to %s]\n", csv_path.c_str());
  }
}

}  // namespace extscc::bench

#endif  // EXTSCC_BENCH_HARNESS_H_
