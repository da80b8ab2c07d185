// Contraction anatomy (not a paper figure): per-iteration |V_i|, |E_i|,
// |V_{i+1}|, |E_add| for both Ext-SCC variants on the web graph — the
// observable behind Theorems 5.3/5.4 (bounded new edges; in Op mode
// |E_{i+1}| can even shrink below |E_i|, as §VII promises).
#include <string>

#include "bench/harness.h"
#include "gen/webgraph_generator.h"
#include "scc/br_tree_scc.h"
#include "util/csv.h"

namespace bench = extscc::bench;

namespace {

void Profile(const char* name, const extscc::core::ExtSccOptions& options) {
  auto ctx = bench::MakeMachine(bench::DefaultMemory());
  extscc::gen::WebGraphParams params;
  params.num_nodes = bench::WebGraphNodes();
  params.avg_out_degree = bench::kWebGraphOutDegree;
  params.seed = bench::kWebGraphSeed;
  const auto g = extscc::gen::GenerateWebGraph(ctx.get(), params);
  const std::string out = ctx->NewTempPath("scc");
  auto result = extscc::core::RunExtScc(ctx.get(), g, out, options);
  if (!result.ok()) {
    std::printf("%s: %s\n", name, result.status().ToString().c_str());
    return;
  }
  extscc::util::Table table({"level", "|V_i|", "|E_i|", "|V_i+1|",
                             "|E_i+1|", "E_add", "type2_skips", "ios",
                             "time_s"});
  for (const auto& it : result.value().iterations) {
    table.AddRow({std::to_string(it.level),
                  extscc::util::FormatCount(it.nodes),
                  extscc::util::FormatCount(it.edges),
                  extscc::util::FormatCount(it.cover_nodes),
                  extscc::util::FormatCount(it.next_edges),
                  extscc::util::FormatCount(it.new_edges),
                  extscc::util::FormatCount(it.type2_skips),
                  extscc::util::FormatCount(it.ios),
                  extscc::util::FormatDouble(it.seconds, 2)});
  }
  std::printf("\n=== contraction profile — %s (web graph, M=%llu KB) ===\n%s",
              name,
              static_cast<unsigned long long>(bench::DefaultMemory() / 1024),
              table.ToAligned().c_str());
  std::printf("semi-external base case: %llu nodes, %s, %llu rounds, "
              "%llu edge scans\n",
              static_cast<unsigned long long>(result.value().semi_nodes),
              extscc::scc::SemiSccBackendName(result.value().semi.backend),
              static_cast<unsigned long long>(result.value().semi.rounds),
              static_cast<unsigned long long>(result.value().semi.edge_scans));
  table.WriteCsvFile(std::string("contraction_profile_") + name + ".csv");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  Profile("ext_scc", extscc::core::ExtSccOptions::Basic());
  Profile("ext_scc_op", extscc::core::ExtSccOptions::Optimized());
  return 0;
}
