// Bow-tie decomposition of a directed graph (Broder et al., "Graph
// structure in the Web") — the classic analysis that motivates computing
// the giant SCC of web graphs in the first place: the web decomposes
// into a CORE (the largest SCC), an IN region that reaches the core, an
// OUT region the core reaches, and everything else (tendrils, tubes,
// disconnected islands — grouped as OTHER here).
//
// Downstream consumer of Ext-SCC output: takes the (node, scc) labels,
// finds the largest component externally (sort by label + run scan), and
// classifies every node with multi-pass sequential reachability
// propagation over the edge file (forward for OUT, over reversed edges
// for IN). Everything is sorts and scans; passes are bounded by the
// graph's unweighted eccentricity from the core, which is small for
// web-like graphs (their effective diameter is logarithmic).
//
// BowtieDecompose labels every node (examples/web_analysis.cpp); the
// serve artifact stores only the sizes, from BowtieSizesFromDag below.
#ifndef EXTSCC_APP_BOWTIE_H_
#define EXTSCC_APP_BOWTIE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "util/status.h"

namespace extscc::app {

enum class BowtieRegion : std::uint32_t {
  kCore = 0,   // member of the largest SCC
  kIn = 1,     // reaches the core, not in it
  kOut = 2,    // reachable from the core, not in it
  kOther = 3,  // tendrils, tubes, disconnected components
};

const char* BowtieRegionName(BowtieRegion region);

struct BowtieResult {
  graph::SccId core_scc = graph::kInvalidScc;
  std::uint64_t core_size = 0;
  std::uint64_t in_size = 0;
  std::uint64_t out_size = 0;
  std::uint64_t other_size = 0;
  std::uint64_t forward_passes = 0;   // OUT propagation scans
  std::uint64_t backward_passes = 0;  // IN propagation scans
  // (node, region) records sorted by node id; region values cast from
  // BowtieRegion.
  std::string region_path;
};

// Decomposes `g` around its largest SCC, given the node-sorted
// (node, scc) labels at `scc_path` (as produced by core::RunExtScc).
// Returns InvalidArgument if the label file does not cover the graph,
// or if the graph is empty.
util::Result<BowtieResult> BowtieDecompose(io::IoContext* context,
                                           const graph::DiskGraph& g,
                                           const std::string& scc_path);

// Region sizes only, computed from the condensation DAG instead of the
// edge file: IN is the total size of SCCs that reach `core_index` in
// `dag` (excluding it), OUT the total it reaches, OTHER the rest. A
// node reaches the core iff its SCC does, so this matches
// BowtieDecompose's sizes exactly — at two in-memory BFS traversals
// instead of multi-pass edge scans (bowtie_test pins the agreement).
// `core_index` is the dense index of the core SCC in `dag`, and
// `scc_sizes[i]` the size of the SCC at dense index i.
struct DagBowtieSizes {
  std::uint64_t core_size = 0;
  std::uint64_t in_size = 0;
  std::uint64_t out_size = 0;
  std::uint64_t other_size = 0;
};
DagBowtieSizes BowtieSizesFromDag(const graph::Digraph& dag,
                                  const std::vector<std::uint64_t>& scc_sizes,
                                  std::size_t core_index);

}  // namespace extscc::app

#endif  // EXTSCC_APP_BOWTIE_H_
