// Sorted node-id files (the V_i of the contraction phase) and the
// sequential set operations over them used by Get-E, Expansion and the
// driver: difference (removed batch V_i - V_{i+1}) and sortedness checks.
#ifndef EXTSCC_GRAPH_NODE_FILE_H_
#define EXTSCC_GRAPH_NODE_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_types.h"
#include "io/io_context.h"

namespace extscc::graph {

std::uint64_t CountNodes(io::IoContext* context, const std::string& path);

// Sorts + dedups arbitrary NodeId records into a canonical node file.
void SortNodeFile(io::IoContext* context, const std::string& input,
                  const std::string& output);

// Streams the sorted difference `a - b` into `output`; both inputs must
// be sorted unique node files. Returns the number of emitted nodes.
std::uint64_t NodeFileDifference(io::IoContext* context, const std::string& a,
                                 const std::string& b,
                                 const std::string& output);

// True iff `path` is strictly increasing (a valid node file).
bool IsNodeFileCanonical(io::IoContext* context, const std::string& path);

}  // namespace extscc::graph

#endif  // EXTSCC_GRAPH_NODE_FILE_H_
