// Algorithm shootout: every SCC algorithm in the library on one R-MAT
// graph, with the simulated external-memory machine squeezed so the node
// set does not fit (the paper's regime). Prints the paper's two metrics
// (I/Os and modeled time) per algorithm and cross-checks that all
// successful algorithms produce the same partition.
//
//   $ ./algorithm_shootout [num_nodes] [num_edges] [seed]
//
// Expected shape (the paper's §VIII): Ext-SCC-Op < Ext-SCC << DFS-SCC
// (often censored at the I/O budget, printed INF); EM-SCC may stall with
// partial SCCs split across partitions; the semi-external algorithms are
// fastest but need c*|V| of memory — they are shown with that relaxed
// budget for reference.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "baseline/dfs_scc.h"
#include "baseline/em_scc.h"
#include "baseline/semi_dfs_scc.h"
#include "core/ext_scc.h"
#include "gen/rmat_generator.h"
#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "scc/br_tree_scc.h"
#include "scc/scc_verify.h"
#include "scc/semi_external_scc.h"
#include "util/csv.h"
#include "util/timer.h"

namespace {

using namespace extscc;

struct Row {
  std::string name;
  bool ok = false;
  std::string note;
  double seconds = 0;
  std::uint64_t ios = 0;
  std::uint64_t sccs = 0;
};

constexpr std::uint64_t kInfFactor = 16;

graph::DiskGraph MakeGraph(io::IoContext* ctx, std::uint64_t nodes,
                           std::uint64_t edges, std::uint64_t seed) {
  gen::RmatParams params;
  params.num_nodes = nodes;
  params.num_edges = edges;
  params.seed = seed;
  return gen::GenerateRmat(ctx, params);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t num_nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;
  const std::uint64_t num_edges =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 80'000;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  // The squeezed machine: an eighth of the node set fits.
  io::IoContextOptions machine;
  machine.block_size = 4096;
  machine.memory_bytes = std::max<std::uint64_t>(
      2 * machine.block_size,
      scc::SemiExternalScc::StateBytes(num_nodes / 8));

  std::printf("R-MAT graph: |V|=%llu |E|=%llu seed=%llu\n",
              static_cast<unsigned long long>(num_nodes),
              static_cast<unsigned long long>(num_edges),
              static_cast<unsigned long long>(seed));
  std::printf("machine: M=%llu KB, B=%zu KB (node set needs %llu KB)\n\n",
              static_cast<unsigned long long>(machine.memory_bytes / 1024),
              machine.block_size / 1024,
              static_cast<unsigned long long>(
                  scc::SemiExternalScc::StateBytes(num_nodes) / 1024));

  std::vector<Row> rows;
  std::optional<scc::SccResult> reference;
  std::uint64_t reference_ios = 0;

  auto record = [&](const std::string& name, io::IoContext* ctx,
                    const std::string& out, double wall, bool ok,
                    const std::string& note, std::uint64_t sccs) {
    Row row;
    row.name = name;
    row.ok = ok;
    row.note = note;
    row.seconds = wall;
    row.ios = ctx->stats().total_ios();
    row.sccs = sccs;
    if (ok) {
      auto partition = scc::LoadSccResult(ctx, out);
      if (!reference.has_value()) {
        reference = std::move(partition);
      } else if (!scc::SamePartition(*reference, partition)) {
        row.note = "PARTITION MISMATCH";
        row.ok = false;
      }
    }
    rows.push_back(row);
  };

  // ---- Ext-SCC basic / op / op+brtree ---------------------------------
  for (const auto& [name, options] :
       std::vector<std::pair<std::string, core::ExtSccOptions>>{
           {"Ext-SCC", core::ExtSccOptions::Basic()},
           {"Ext-SCC-Op", core::ExtSccOptions::Optimized()},
           {"Ext-SCC-Op/brtree",
            [] {
              auto o = core::ExtSccOptions::Optimized();
              o.semi_backend = scc::SemiSccBackend::kBrTree;
              return o;
            }()}}) {
    std::fprintf(stderr, "running %s...\n", name.c_str());
    io::IoContext ctx(machine);
    const auto g = MakeGraph(&ctx, num_nodes, num_edges, seed);
    const std::string out = ctx.NewTempPath("scc");
    util::Timer timer;
    auto result = core::RunExtScc(&ctx, g, out, options);
    const bool ok = result.ok();
    record(name, &ctx, out, timer.ElapsedSeconds(), ok,
           ok ? std::to_string(result.value().num_levels()) + " levels"
              : result.status().ToString(),
           ok ? result.value().num_sccs : 0);
    if (name == "Ext-SCC-Op") reference_ios = ctx.stats().total_ios();
  }

  // ---- DFS-SCC (censored like the paper's 24h cap) ---------------------
  {
    std::fprintf(stderr, "running DFS-SCC (budget %llux)...\n",
                 static_cast<unsigned long long>(kInfFactor));
    io::IoContext ctx(machine);
    const auto g = MakeGraph(&ctx, num_nodes, num_edges, seed);
    ctx.set_io_budget(ctx.stats().total_ios() + reference_ios * kInfFactor);
    const std::string out = ctx.NewTempPath("scc");
    util::Timer timer;
    auto result = baseline::RunDfsScc(&ctx, g, out);
    record("DFS-SCC", &ctx, out, timer.ElapsedSeconds(), result.ok(),
           result.ok() ? "" : "INF (I/O budget)",
           result.ok() ? result.value().num_sccs : 0);
  }

  // ---- EM-SCC (may stall) ----------------------------------------------
  {
    std::fprintf(stderr, "running EM-SCC...\n");
    io::IoContext ctx(machine);
    const auto g = MakeGraph(&ctx, num_nodes, num_edges, seed);
    ctx.set_io_budget(ctx.stats().total_ios() + reference_ios * kInfFactor);
    const std::string out = ctx.NewTempPath("scc");
    util::Timer timer;
    auto result = baseline::RunEmScc(&ctx, g, out);
    record("EM-SCC", &ctx, out, timer.ElapsedSeconds(), result.ok(),
           result.ok() ? "" : "stalled/censored",
           result.ok() ? result.value().num_sccs : 0);
  }

  // ---- semi-external (relaxed budget, for reference) -------------------
  io::IoContextOptions roomy = machine;
  roomy.memory_bytes = num_nodes * 64;
  {
    std::fprintf(stderr, "running Semi-SCC (c|V| <= M)...\n");
    io::IoContext ctx(roomy);
    const auto g = MakeGraph(&ctx, num_nodes, num_edges, seed);
    const std::string out = ctx.NewTempPath("scc");
    graph::SccId next = 0;
    util::Timer timer;
    const auto stats = scc::SemiExternalScc::Run(&ctx, g, out, &next);
    record("Semi-SCC*", &ctx, out, timer.ElapsedSeconds(), true,
           "relaxed budget", stats.num_sccs);
  }
  {
    std::fprintf(stderr, "running Semi-DFS-SCC (c|V| <= M)...\n");
    io::IoContext ctx(roomy);
    const auto g = MakeGraph(&ctx, num_nodes, num_edges, seed);
    ctx.set_io_budget(ctx.stats().total_ios() + reference_ios * kInfFactor);
    const std::string out = ctx.NewTempPath("scc");
    util::Timer timer;
    auto result = baseline::SemiDfsScc::Run(&ctx, g, out);
    record("Semi-DFS-SCC*", &ctx, out, timer.ElapsedSeconds(), result.ok(),
           result.ok() ? "relaxed budget" : "INF (I/O budget)",
           result.ok() ? result.value().num_sccs : 0);
  }

  util::Table table({"algorithm", "ok", "wall_s", "ios", "sccs", "note"});
  for (const auto& row : rows) {
    table.AddRow({row.name, row.ok ? "yes" : "no",
                  util::FormatDouble(row.seconds, 2),
                  row.ok ? util::FormatCount(row.ios) : "INF",
                  row.ok ? std::to_string(row.sccs) : "-", row.note});
  }
  std::printf("%s\nalgorithms marked * run with the relaxed semi-external "
              "budget (c|V| <= M)\n",
              table.ToAligned().c_str());

  for (const auto& row : rows) {
    if (row.note == "PARTITION MISMATCH") {
      std::puts("ERROR: partition mismatch between algorithms");
      return 1;
    }
  }
  std::puts("all successful algorithms agree on the SCC partition");
  return 0;
}
