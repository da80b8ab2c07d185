#include "graph/graph_builder.h"

#include "graph/node_file.h"
#include "util/logging.h"

namespace extscc::graph {

GraphBuilder::GraphBuilder(io::IoContext* context)
    : context_(context),
      edge_path_(context->NewTempPath("g_edges")),
      edge_writer_(
          std::make_unique<io::RecordWriter<Edge>>(context, edge_path_)),
      node_writer_(std::make_unique<extsort::SortingWriter<NodeId, NodeIdLess>>(
          context, NodeIdLess{}, /*dedup=*/true)) {}

void GraphBuilder::AddEdge(NodeId src, NodeId dst) {
  DCHECK(!finished_);
  edge_writer_->Append(Edge{src, dst});
  node_writer_->Append(src);
  node_writer_->Append(dst);
  ++edges_added_;
}

void GraphBuilder::AddNode(NodeId node) {
  DCHECK(!finished_);
  node_writer_->Append(node);
}

DiskGraph GraphBuilder::Finish() {
  CHECK(!finished_) << "GraphBuilder reused after Finish";
  finished_ = true;
  edge_writer_->Finish();

  DiskGraph g;
  g.edge_path = edge_path_;
  g.node_path = context_->NewTempPath("g_nodes");
  // The endpoint stream sorts/dedups straight out of the append buffer —
  // no staging node file to write and re-read.
  node_writer_->FinishInto(g.node_path);
  g.num_nodes = CountNodes(context_, g.node_path);
  g.num_edges = edges_added_;
  return g;
}

}  // namespace extscc::graph
