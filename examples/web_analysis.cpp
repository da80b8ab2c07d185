// Full web-graph analysis pipeline — everything the paper's introduction
// says SCC computation enables, end to end on one graph:
//
//   1. Ext-SCC-Op under contraction pressure, published as a serve
//      artifact                                     (the contribution)
//   2. bow-tie decomposition around the giant SCC   (Broder et al.)
//   3. condensation + external topological sort     (motivation 1)
//   4. external bisimulation on the condensation    (motivation 1, [16])
//   5. sample reachability queries, one batch over the artifact's
//      GRAIL-style interval labels                  (motivation 2, [25])
//
// Steps 2-4 read the artifact's node→SCC map as their label file.
//
//   $ ./web_analysis [num_nodes] [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "app/bisimulation.h"
#include "app/bowtie.h"
#include "gen/webgraph_generator.h"
#include "io/record_stream.h"
#include "scc/condensation.h"
#include "scc/semi_external_scc.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
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
  const std::string artifact_path = context.NewTempPath("artifact");
  auto built = serve::BuildArtifact(&context, g, artifact_path);
  if (!built.ok()) {
    std::fprintf(stderr, "artifact build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const core::ExtSccStats& solve = built.value().solve_stats;
  std::printf("[1] Ext-SCC-Op: %llu SCCs in %u contraction levels "
              "(%llu I/Os)\n",
              static_cast<unsigned long long>(solve.num_sccs),
              solve.num_levels(),
              static_cast<unsigned long long>(solve.total_ios));
  auto opened = serve::ArtifactReader::Open(&context, artifact_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "artifact open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const serve::ArtifactReader& artifact = opened.value();
  const std::string scc_path = context.NewTempPath("scc");
  {
    io::RecordWriter<graph::SccEntry> labels(&context, scc_path);
    serve::SccMapScanner scan = artifact.OpenNodeSccScan();
    graph::SccEntry entry;
    while (scan.Next(&entry)) labels.Append(entry);
    labels.Finish();
    const util::Status copied =
        scan.status().ok() ? labels.status() : scan.status();
    if (!copied.ok()) {
      std::fprintf(stderr, "label copy failed: %s\n",
                   copied.ToString().c_str());
      return 1;
    }
  }

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

  // ---- 5. sample reachability queries, one batch -----------------------
  const auto nodes = io::ReadAllRecords<graph::NodeId>(&context, g.node_path);
  util::Rng rng(seed + 1);
  std::vector<serve::Query> queries(2000);
  for (serve::Query& q : queries) {
    q.type = serve::QueryType::kReachable;
    q.u = nodes[rng.Uniform(nodes.size())];
    q.v = nodes[rng.Uniform(nodes.size())];
  }
  std::vector<serve::QueryAnswer> answers(queries.size());
  serve::QueryBatchStats qs;
  const util::Status ran = serve::QueryEngine(&artifact).RunBatch(
      &context, queries.data(), queries.size(), answers.data(), &qs);
  if (!ran.ok()) {
    std::fprintf(stderr, "reachability batch failed: %s\n",
                 ran.ToString().c_str());
    return 1;
  }
  std::uint64_t reachable = 0;
  for (const serve::QueryAnswer& a : answers) reachable += a.result;
  std::printf("[5] reachability: %llu/%llu random pairs reachable "
              "(same-SCC %llu, interval-refuted %llu, DFS fallback %llu)\n",
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(queries.size()),
              static_cast<unsigned long long>(qs.labels.same_scc_hits),
              static_cast<unsigned long long>(qs.labels.interval_refutations),
              static_cast<unsigned long long>(qs.labels.dfs_fallbacks));

  std::puts("\npipeline complete — one external SCC computation fed four "
            "downstream analyses");
  return 0;
}
