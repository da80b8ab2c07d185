// Fig. 7 (Exp-1, WEBSPAM-UK2007 stand-in): time and I/Os as the memory
// budget M grows. Expected shape (paper): costs fall as M rises, with a
// sharp drop at the final point where c·|V| <= M lets Semi-SCC run
// directly on the input (paper: the 1G point; here: the point above
// StateBytes(|V|)).
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gen/webgraph_generator.h"

namespace bench = extscc::bench;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  std::printf("Fig. 7 — WEBSPAM-UK2007 stand-in, varying memory size; "
              "|V|=%llu, B=%zu KB\n",
              static_cast<unsigned long long>(bench::WebGraphNodes()),
              bench::BlockSize() / 1024);
  auto workload = [](extscc::io::IoContext* ctx) {
    extscc::gen::WebGraphParams params;
    params.num_nodes = bench::WebGraphNodes();
    params.avg_out_degree = bench::kWebGraphOutDegree;
    params.seed = bench::kWebGraphSeed;
    return extscc::gen::GenerateWebGraph(ctx, params);
  };
  std::vector<bench::PointResult> points;
  for (const std::uint64_t memory : bench::WebMemorySweep()) {
    points.push_back(bench::RunPoint(
        std::to_string(memory / 1024) + "K", workload, memory));
  }
  bench::EmitFigure("fig7_webgraph_memory", "memory", points);
  return 0;
}
