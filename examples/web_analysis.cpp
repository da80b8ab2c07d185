// Full web-graph analysis pipeline — everything the paper's introduction
// says SCC computation enables, end to end on one graph:
//
//   1. Ext-SCC-Op under contraction pressure        (the contribution)
//   2. bow-tie decomposition around the giant SCC   (Broder et al.)
//   3. condensation + external topological sort     (motivation 1)
//   4. external bisimulation on the condensation    (motivation 1, [16])
//   5. GRAIL-style reachability index + sample queries (motivation 2, [25])
//
//   $ ./web_analysis [num_nodes] [seed]
#include <cstdio>
#include <cstdlib>

#include "app/bisimulation.h"
#include "app/bowtie.h"
#include "app/reachability_index.h"
#include "core/ext_scc.h"
#include "gen/webgraph_generator.h"
#include "io/record_stream.h"
#include "scc/condensation.h"
#include "scc/semi_external_scc.h"
#include "util/random.h"

namespace {
using namespace extscc;
}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t num_nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2007;

  io::IoContextOptions machine;
  machine.block_size = 16 * 1024;
  machine.memory_bytes = std::max<std::uint64_t>(
      2 * machine.block_size,
      scc::SemiExternalScc::StateBytes(num_nodes / 4));
  io::IoContext context(machine);

  gen::WebGraphParams params;
  params.num_nodes = num_nodes;
  params.seed = seed;
  const auto g = gen::GenerateWebGraph(&context, params);
  std::printf("web graph: %s (M=%llu KB)\n\n", g.Describe().c_str(),
              static_cast<unsigned long long>(machine.memory_bytes / 1024));

  // ---- 1. SCCs ----------------------------------------------------------
  const std::string scc_path = context.NewTempPath("scc");
  auto scc_result = core::RunExtScc(&context, g, scc_path,
                                    core::ExtSccOptions::Optimized());
  if (!scc_result.ok()) {
    std::fprintf(stderr, "Ext-SCC failed: %s\n",
                 scc_result.status().ToString().c_str());
    return 1;
  }
  std::printf("[1] Ext-SCC-Op: %llu SCCs in %u contraction levels "
              "(%llu I/Os)\n",
              static_cast<unsigned long long>(scc_result.value().num_sccs),
              scc_result.value().num_levels(),
              static_cast<unsigned long long>(
                  scc_result.value().total_ios));

  // ---- 2. bow-tie --------------------------------------------------------
  auto bowtie = app::BowtieDecompose(&context, g, scc_path);
  if (!bowtie.ok()) {
    std::fprintf(stderr, "bow-tie failed: %s\n",
                 bowtie.status().ToString().c_str());
    return 1;
  }
  const auto& bt = bowtie.value();
  std::printf("[2] bow-tie: CORE %llu (SCC #%u), IN %llu, OUT %llu, "
              "OTHER %llu\n",
              static_cast<unsigned long long>(bt.core_size), bt.core_scc,
              static_cast<unsigned long long>(bt.in_size),
              static_cast<unsigned long long>(bt.out_size),
              static_cast<unsigned long long>(bt.other_size));

  // ---- 3. condensation + topological sort --------------------------------
  const auto condensation = scc::BuildCondensation(&context, g, scc_path);
  auto topo = scc::ExternalTopoSort(&context, condensation.dag);
  if (!topo.ok()) {
    std::fprintf(stderr, "topo sort failed: %s\n",
                 topo.status().ToString().c_str());
    return 1;
  }
  std::printf("[3] condensation: %s; topological levels: %llu\n",
              condensation.dag.Describe().c_str(),
              static_cast<unsigned long long>(topo.value().num_levels));

  // ---- 4. bisimulation on the DAG ----------------------------------------
  auto bisim = app::ExternalBisimulation(&context, condensation.dag);
  if (!bisim.ok()) {
    std::fprintf(stderr, "bisimulation failed: %s\n",
                 bisim.status().ToString().c_str());
    return 1;
  }
  std::printf("[4] bisimulation: %llu blocks over %llu DAG nodes "
              "(%.1f%% compression, %llu height levels)\n",
              static_cast<unsigned long long>(bisim.value().num_blocks),
              static_cast<unsigned long long>(condensation.dag.num_nodes),
              100.0 * (1.0 - static_cast<double>(bisim.value().num_blocks) /
                                 static_cast<double>(
                                     condensation.dag.num_nodes)),
              static_cast<unsigned long long>(bisim.value().num_heights));

  // ---- 5. reachability index + sample queries ----------------------------
  auto index = app::ReachabilityIndex::Build(&context, g, scc_path, {});
  if (!index.ok()) {
    std::fprintf(stderr, "reachability index failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  const auto nodes = io::ReadAllRecords<graph::NodeId>(&context, g.node_path);
  util::Rng rng(seed + 1);
  std::uint64_t reachable = 0;
  const std::uint64_t kQueries = 2000;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    const auto u = nodes[rng.Uniform(nodes.size())];
    const auto v = nodes[rng.Uniform(nodes.size())];
    if (index.value().Reachable(u, v)) ++reachable;
  }
  const auto& qs = index.value().stats();
  std::printf("[5] reachability: %llu/%llu random pairs reachable "
              "(same-SCC %llu, interval-refuted %llu, DFS fallback %llu)\n",
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(kQueries),
              static_cast<unsigned long long>(qs.same_scc_hits),
              static_cast<unsigned long long>(qs.interval_refutations),
              static_cast<unsigned long long>(qs.dfs_fallbacks));

  std::puts("\npipeline complete — one external SCC computation fed four "
            "downstream analyses");
  return 0;
}
