#include "graph/disk_graph.h"

#include "graph/node_file.h"
#include "io/record_stream.h"

namespace extscc::graph {

DiskGraph MakeDiskGraph(io::IoContext* context, const std::vector<Edge>& edges,
                        const std::vector<NodeId>& extra_nodes) {
  DiskGraph g;
  g.edge_path = context->NewTempPath("edges");
  io::WriteAllRecords(context, g.edge_path, edges);

  const std::string staging = context->NewTempPath("nodestage");
  {
    io::RecordWriter<NodeId> writer(context, staging);
    for (const Edge& e : edges) {
      writer.Append(e.src);
      writer.Append(e.dst);
    }
    for (NodeId v : extra_nodes) writer.Append(v);
    writer.Finish();
  }
  g.node_path = context->NewTempPath("nodes");
  SortNodeFile(context, staging, g.node_path);
  context->temp_files().Remove(staging);

  g.num_nodes = CountNodes(context, g.node_path);
  g.num_edges = edges.size();
  return g;
}

}  // namespace extscc::graph
