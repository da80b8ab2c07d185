// Web-graph stand-in for WEBSPAM-UK2007: a copying model (Kumar et al.)
// that yields heavy-tailed in-degrees, plus probabilistic reciprocal
// links that grow the bow-tie's giant SCC — the two structural features
// Figs. 6-7 exercise.
#ifndef EXTSCC_GEN_WEBGRAPH_GENERATOR_H_
#define EXTSCC_GEN_WEBGRAPH_GENERATOR_H_

#include <cstdint>

#include "graph/disk_graph.h"
#include "io/io_context.h"

namespace extscc::gen {

struct WebGraphParams {
  std::uint64_t num_nodes = 200'000;
  // Mean out-degree of new pages. UK2007 averages 35; the scaled default
  // keeps bench runtimes sane while preserving the degree distribution
  // shape. Set 35.0 to mimic the original density.
  double avg_out_degree = 8.0;
  // Probability a link copies the prototype page's corresponding link
  // (preferential attachment via copying).
  double copy_prob = 0.5;
  // Probability a link is reciprocated — the knob controlling the giant
  // SCC's relative size.
  double reciprocal_prob = 0.25;
  std::uint64_t seed = 7;

  // When in (0, 1], only the first `edge_fraction` of generated edges is
  // kept — Fig. 6 varies the edge percentage of the same fixed graph.
  double edge_fraction = 1.0;
};

graph::DiskGraph GenerateWebGraph(io::IoContext* context,
                                  const WebGraphParams& params);

}  // namespace extscc::gen

#endif  // EXTSCC_GEN_WEBGRAPH_GENERATOR_H_
