// A DiskGraph is one level G_i of the contraction chain: a canonical
// (sorted unique) node file plus an edge file, with cached counts.
// Levels own scratch paths handed out by the IoContext's temp manager;
// the original input graph may reference user files.
#ifndef EXTSCC_GRAPH_DISK_GRAPH_H_
#define EXTSCC_GRAPH_DISK_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_types.h"
#include "io/io_context.h"

namespace extscc::graph {

struct DiskGraph {
  std::string node_path;
  std::string edge_path;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;

  std::string Describe() const { return DescribeGraph(num_nodes, num_edges); }
};

// Materializes a DiskGraph from in-memory vectors (tests, generators for
// small graphs). Node file = sorted unique union of `extra_nodes` and all
// edge endpoints.
DiskGraph MakeDiskGraph(io::IoContext* context, const std::vector<Edge>& edges,
                        const std::vector<NodeId>& extra_nodes = {});

}  // namespace extscc::graph

#endif  // EXTSCC_GRAPH_DISK_GRAPH_H_
