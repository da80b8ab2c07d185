// Web-graph condensation + topological sort — the paper's motivating
// application (1): contract every SCC of a web-scale graph into one node
// and rank the resulting DAG. Everything runs externally: Ext-SCC for the
// labels, sort/merge relabelling for the condensation, external Kahn for
// the ranking.
//
//   $ ./webgraph_condensation [num_nodes] [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "app/scc_stats.h"
#include "core/ext_scc.h"
#include "gen/webgraph_generator.h"
#include "graph/disk_graph.h"
#include "scc/condensation.h"
#include "scc/semi_external_scc.h"

namespace {
using namespace extscc;
}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t num_nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  io::IoContextOptions machine;
  machine.block_size = 64 * 1024;
  // A quarter of the node set fits (forces 1+ contraction level), but
  // never below the model's M >= 2B floor.
  machine.memory_bytes = std::max<std::uint64_t>(
      2 * machine.block_size,
      scc::SemiExternalScc::StateBytes(num_nodes / 4));
  io::IoContext context(machine);

  gen::WebGraphParams params;
  params.num_nodes = num_nodes;
  params.seed = seed;
  std::printf("generating web graph with %llu pages...\n",
              static_cast<unsigned long long>(num_nodes));
  const auto g = gen::GenerateWebGraph(&context, params);
  std::printf("web graph: %s\n", g.Describe().c_str());

  const std::string scc_path = context.NewTempPath("scc");
  auto result = core::RunExtScc(&context, g, scc_path,
                                core::ExtSccOptions::Optimized());
  if (!result.ok()) {
    std::fprintf(stderr, "Ext-SCC failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("Ext-SCC: %llu SCCs in %u contraction level(s), %llu I/Os\n",
              static_cast<unsigned long long>(result.value().num_sccs),
              result.value().num_levels(),
              static_cast<unsigned long long>(result.value().total_ios));

  auto stats = app::ComputeSccStats(&context, scc_path);
  if (stats.ok()) {
    std::printf("SCC statistics: %s\n", stats.value().ToString().c_str());
  }

  const auto cond = scc::BuildCondensation(&context, g, scc_path);
  std::printf("condensation DAG: %s (dropped %llu intra-SCC + %llu "
              "parallel edges)\n",
              cond.dag.Describe().c_str(),
              static_cast<unsigned long long>(cond.intra_scc_edges),
              static_cast<unsigned long long>(cond.parallel_edges));

  auto topo = scc::ExternalTopoSort(&context, cond.dag);
  if (!topo.ok()) {
    std::fprintf(stderr, "topological sort failed: %s\n",
                 topo.status().ToString().c_str());
    return 1;
  }
  std::printf("topological sort: ranked %llu SCC-nodes into %llu levels\n",
              static_cast<unsigned long long>(topo.value().ranked_nodes),
              static_cast<unsigned long long>(topo.value().num_levels));
  std::printf("total block I/Os this session: %llu (%llu random)\n",
              static_cast<unsigned long long>(context.stats().total_ios()),
              static_cast<unsigned long long>(context.stats().random_ios()));
  return 0;
}
