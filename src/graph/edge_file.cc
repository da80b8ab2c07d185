#include "graph/edge_file.h"

#include "extsort/external_sorter.h"
#include "io/record_stream.h"

namespace extscc::graph {

std::uint64_t CountEdges(io::IoContext* context, const std::string& path) {
  return io::NumRecordsInFile<Edge>(context, path);
}

void SortEdgesBySrc(io::IoContext* context, const std::string& input,
                    const std::string& output, bool dedup) {
  extsort::SortFile<Edge, EdgeBySrc>(context, input, output, EdgeBySrc(),
                                     dedup);
}

void SortEdgesByDst(io::IoContext* context, const std::string& input,
                    const std::string& output, bool dedup) {
  extsort::SortFile<Edge, EdgeByDst>(context, input, output, EdgeByDst(),
                                     dedup);
}

namespace {

// One ordering with the self-loop filter applied during run formation:
// a batched scan feeds a SortingWriter, so the filtered edge set never
// exists as a file of its own.
template <typename Less>
void SortEdgesDropSelfLoops(io::IoContext* context, const std::string& input,
                            const std::string& output, Less less,
                            bool dedup) {
  extsort::SortingWriter<Edge, Less> sorter(context, less, dedup);
  io::ForEachRecord<Edge>(context, input, [&](const Edge& e) {
    if (e.src != e.dst) sorter.Append(e);
  });
  sorter.FinishInto(output);
}

}  // namespace

void SortEdgesBothOrders(io::IoContext* context, const std::string& input,
                         const std::string& by_dst_output,
                         const std::string& by_src_output, bool dedup,
                         bool drop_self_loops) {
  if (!drop_self_loops) {
    SortEdgesByDst(context, input, by_dst_output, dedup);
    SortEdgesBySrc(context, input, by_src_output, dedup);
    return;
  }
  SortEdgesDropSelfLoops(context, input, by_dst_output, EdgeByDst(), dedup);
  SortEdgesDropSelfLoops(context, input, by_src_output, EdgeBySrc(), dedup);
}

}  // namespace extscc::graph
