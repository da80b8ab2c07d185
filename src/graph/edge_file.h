// Stream operations over edge files: the primitive vocabulary the paper's
// Algorithms 3-5 are phrased in (sorted edge lists E_in / E_out,
// counting). Everything here is sequential scans + external sorts only.
#ifndef EXTSCC_GRAPH_EDGE_FILE_H_
#define EXTSCC_GRAPH_EDGE_FILE_H_

#include <cstdint>
#include <string>

#include "graph/graph_types.h"
#include "io/io_context.h"

namespace extscc::graph {

// Number of edges in `path`.
std::uint64_t CountEdges(io::IoContext* context, const std::string& path);

// Writes `input` sorted by (src, dst) to `output` (the paper's E_out).
// When `dedup`, parallel edges collapse to one (§VII edge reduction).
void SortEdgesBySrc(io::IoContext* context, const std::string& input,
                    const std::string& output, bool dedup = false);

// Writes `input` sorted by (dst, src) to `output` (the paper's E_in).
void SortEdgesByDst(io::IoContext* context, const std::string& input,
                    const std::string& output, bool dedup = false);

// Produces both level orderings of `input` in one call: `by_dst_output`
// gets (dst, src) order (E_in) and `by_src_output` gets (src, dst)
// order (E_out). When `drop_self_loops`, self-loops are filtered inline
// during each sort's run formation — the driver's first level uses this
// instead of writing a filtered copy of E only to sort (and delete) it.
void SortEdgesBothOrders(io::IoContext* context, const std::string& input,
                         const std::string& by_dst_output,
                         const std::string& by_src_output,
                         bool dedup = false, bool drop_self_loops = false);

}  // namespace extscc::graph

#endif  // EXTSCC_GRAPH_EDGE_FILE_H_
