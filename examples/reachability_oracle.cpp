// Reachability queries via SCC condensation — the paper's motivating
// application (2): almost every reachability index first contracts the
// input to a DAG by computing SCCs (the paper cites GRAIL [25]).
//
//   $ ./reachability_oracle [num_nodes] [num_queries]
//
// Builds a synthetic graph with planted SCCs and publishes a serve
// artifact for it (serve::BuildArtifact: Ext-SCC under contraction
// pressure, the condensation DAG and GRAIL-style interval labels over
// it), then answers random reachability queries as one
// serve::QueryEngine batch and cross-checks every answer against a
// direct BFS on the original graph.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gen/synthetic_generator.h"
#include "graph/digraph.h"
#include "io/record_stream.h"
#include "scc/semi_external_scc.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
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

  // Step 1: external SCC computation (the expensive, out-of-core step),
  // condensed and interval-labelled into a serve artifact.
  const std::string artifact_path = context.NewTempPath("artifact");
  auto built = serve::BuildArtifact(&context, g, artifact_path);
  if (!built.ok()) {
    std::fprintf(stderr, "artifact build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const core::ExtSccStats& solve = built.value().solve_stats;
  std::printf("Ext-SCC: %llu SCCs, %u levels, %llu I/Os\n",
              static_cast<unsigned long long>(solve.num_sccs),
              solve.num_levels(),
              static_cast<unsigned long long>(solve.total_ios));

  // Step 2: open it — the DAG and its labels become resident, the
  // node→SCC map stays on disk.
  auto opened = serve::ArtifactReader::Open(&context, artifact_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "artifact open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const serve::ArtifactReader& artifact = opened.value();
  std::printf("condensation DAG: %llu nodes, %llu edges; %u interval "
              "labelings\n",
              static_cast<unsigned long long>(artifact.summary().dag_nodes),
              static_cast<unsigned long long>(artifact.summary().dag_edges),
              artifact.summary().num_label_rounds);

  // Step 3: random queries as one batch, cross-checked against BFS on
  // the original.
  const auto edges = io::ReadAllRecords<graph::Edge>(&context, g.edge_path);
  const auto nodes =
      io::ReadAllRecords<graph::NodeId>(&context, g.node_path);
  graph::Digraph original(nodes, edges);

  util::Rng rng(99);
  std::vector<serve::Query> queries(num_queries);
  for (serve::Query& q : queries) {
    q.type = serve::QueryType::kReachable;
    q.u = nodes[rng.Uniform(nodes.size())];
    q.v = nodes[rng.Uniform(nodes.size())];
  }
  std::vector<serve::QueryAnswer> answers(num_queries);
  serve::QueryBatchStats st;
  const util::Status ran = serve::QueryEngine(&artifact).RunBatch(
      &context, queries.data(), queries.size(), answers.data(), &st);
  if (!ran.ok()) {
    std::fprintf(stderr, "query batch failed: %s\n",
                 ran.ToString().c_str());
    return 1;
  }
  std::uint64_t agree = 0, reachable = 0;
  for (std::uint64_t q = 0; q < num_queries; ++q) {
    const bool direct =
        graph::BfsReachable(original, original.index_of(queries[q].u),
                            original.index_of(queries[q].v));
    if (answers[q].known && answers[q].result == direct) ++agree;
    if (answers[q].result) ++reachable;
  }
  std::printf("queries: %llu, reachable: %llu, agreement: %llu/%llu\n",
              static_cast<unsigned long long>(num_queries),
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(num_queries));
  std::printf("index breakdown: same-SCC %llu, interval refutations %llu, "
              "DFS fallbacks %llu\n",
              static_cast<unsigned long long>(st.labels.same_scc_hits),
              static_cast<unsigned long long>(st.labels.interval_refutations),
              static_cast<unsigned long long>(st.labels.dfs_fallbacks));
  if (agree != num_queries) {
    std::puts("MISMATCH between direct BFS and the reachability index!");
    return 1;
  }
  std::puts("all queries agree — SCC condensation + interval labels are "
            "reachability-preserving");
  return 0;
}
