// Reachability queries via SCC condensation — the paper's motivating
// application (2): almost every reachability index first contracts the
// input to a DAG by computing SCCs (the paper cites GRAIL [25]).
//
//   $ ./reachability_oracle [num_nodes] [num_queries]
//
// Builds a synthetic graph with planted SCCs, computes SCCs with Ext-SCC
// under contraction pressure, then builds app::ReachabilityIndex — the
// GRAIL-style interval-labelled index over the condensation DAG — and
// answers random reachability queries, cross-checking every answer
// against a direct BFS on the original graph.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "app/reachability_index.h"
#include "core/ext_scc.h"
#include "gen/synthetic_generator.h"
#include "graph/digraph.h"
#include "io/record_stream.h"
#include "scc/semi_external_scc.h"
#include "util/random.h"

using namespace extscc;

int main(int argc, char** argv) {
  const std::uint64_t num_nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5'000;
  const std::uint64_t num_queries =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500;

  io::IoContextOptions machine;
  machine.block_size = 4096;
  // An eighth of the node set fits in memory — forces real contraction
  // levels — but never below the model's M >= 2B floor.
  machine.memory_bytes =
      std::max<std::uint64_t>(2 * machine.block_size,
                              scc::SemiExternalScc::StateBytes(num_nodes / 8));
  io::IoContext context(machine);

  gen::SyntheticParams params;
  params.num_nodes = num_nodes;
  params.avg_degree = 2.5;
  params.sccs = {{3, static_cast<std::uint32_t>(num_nodes / 50)},
                 {10, 10}};
  params.seed = 17;
  const auto g = gen::GenerateSynthetic(&context, params);
  std::printf("graph: %s\n", g.Describe().c_str());

  // Step 1: external SCC computation (the expensive, out-of-core step).
  const std::string scc_path = context.NewTempPath("scc");
  auto result = core::RunExtScc(&context, g, scc_path,
                                core::ExtSccOptions::Optimized());
  if (!result.ok()) {
    std::fprintf(stderr, "Ext-SCC failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("Ext-SCC: %llu SCCs, %u levels, %llu I/Os\n",
              static_cast<unsigned long long>(result.value().num_sccs),
              result.value().num_levels(),
              static_cast<unsigned long long>(result.value().total_ios));

  // Step 2: GRAIL-style index over the condensation DAG.
  app::ReachabilityIndexOptions index_options;
  index_options.num_labels = 3;
  index_options.seed = 7;
  auto built =
      app::ReachabilityIndex::Build(&context, g, scc_path, index_options);
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const app::ReachabilityIndex& index = built.value();
  std::printf("condensation DAG: %llu nodes, %llu edges; %u interval "
              "labelings\n",
              static_cast<unsigned long long>(index.stats().dag_nodes),
              static_cast<unsigned long long>(index.stats().dag_edges),
              index_options.num_labels);

  // Step 3: random queries, cross-checked against BFS on the original.
  const auto edges = io::ReadAllRecords<graph::Edge>(&context, g.edge_path);
  const auto nodes =
      io::ReadAllRecords<graph::NodeId>(&context, g.node_path);
  graph::Digraph original(nodes, edges);

  util::Rng rng(99);
  std::uint64_t agree = 0, reachable = 0;
  for (std::uint64_t q = 0; q < num_queries; ++q) {
    const auto u = nodes[rng.Uniform(nodes.size())];
    const auto v = nodes[rng.Uniform(nodes.size())];
    const bool via_index = index.Reachable(u, v);
    const bool direct = graph::BfsReachable(original, original.index_of(u),
                                            original.index_of(v));
    if (direct == via_index) ++agree;
    if (via_index) ++reachable;
  }
  const auto& st = index.stats();
  std::printf("queries: %llu, reachable: %llu, agreement: %llu/%llu\n",
              static_cast<unsigned long long>(num_queries),
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(num_queries));
  std::printf("index breakdown: same-SCC %llu, interval refutations %llu, "
              "DFS fallbacks %llu\n",
              static_cast<unsigned long long>(st.same_scc_hits),
              static_cast<unsigned long long>(st.interval_refutations),
              static_cast<unsigned long long>(st.dfs_fallbacks));
  if (agree != num_queries) {
    std::puts("MISMATCH between direct BFS and the reachability index!");
    return 1;
  }
  std::puts("all queries agree — SCC condensation + interval labels are "
            "reachability-preserving");
  return 0;
}
