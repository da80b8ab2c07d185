// SCC-assignment files: (node, scc) records sorted by node id — the
// SCC_i streams that flow through the expansion phase (Algorithm 5).
#ifndef EXTSCC_GRAPH_SCC_FILE_H_
#define EXTSCC_GRAPH_SCC_FILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph_types.h"
#include "io/io_context.h"

namespace extscc::graph {

// Sorts arbitrary SccEntry records by node id into `output`.
void SortSccFileByNode(io::IoContext* context, const std::string& input,
                       const std::string& output);

// Merges two node-sorted SCC files with disjoint node sets into `output`
// (Algorithm 5 lines 5-6: SCC_i = SCC_{i+1} ∪ SCC_del).
void MergeSccFiles(io::IoContext* context, const std::string& a,
                   const std::string& b, const std::string& output);

// Loads an SCC file into a map for verification / small results.
std::unordered_map<NodeId, SccId> ReadSccFile(io::IoContext* context,
                                              const std::string& path);

}  // namespace extscc::graph

#endif  // EXTSCC_GRAPH_SCC_FILE_H_
