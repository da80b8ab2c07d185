#include "core/contraction.h"

#include <vector>

#include "core/membership_split.h"
#include "extsort/external_sorter.h"
#include "graph/graph_types.h"
#include "io/record_stream.h"
#include "util/logging.h"

namespace extscc::core {

namespace {

using graph::Edge;
using graph::EdgeByDst;
using graph::EdgeBySrc;
using graph::NodeId;

}  // namespace

ContractionResult ContractEdges(io::IoContext* context,
                                const std::string& ein_path,
                                const std::string& eout_path,
                                const std::string& cover_path,
                                const ContractionOptions& options) {
  ContractionResult result;

  // ---- Step 1: tail-membership split of E_out ------------------------
  // cov_tail: tail in cover (candidates for E_pre / E_del_in).
  // Edges with removed tails are only needed per removed node, i.e.
  // sorted by tail — E_out is already sorted by tail, so that side can
  // stream directly into E_del_out after a head-membership filter
  // (step 2 below needs head-in-cover, which E_in gives us instead).
  //
  // The whole chain — tail split, re-sort by head, head split — is one
  // fused pipeline: the tail split feeds a SortingWriter whose final
  // merge drains into the head-membership sink, so neither cov_tail nor
  // its by-head re-sort ever materializes (two write+read passes of the
  // candidate set gone versus the file-per-stage form).
  //
  // E_pre (both endpoints covered) and E_del_in (in-edges of removed
  // nodes with covered tails), the latter already grouped by removed
  // head.
  const std::string epre_path = context->NewTempPath("epre");
  const std::string edel_in_path = context->NewTempPath("edel_in");
  {
    extsort::SortingWriter<Edge, EdgeByDst> by_head(context, EdgeByDst());
    SplitByMembership(
        context, eout_path, cover_path, [](const Edge& e) { return e.src; },
        [&](const Edge& e) { by_head.Append(e); }, [](const Edge&) {});
    io::RecordWriter<Edge> epre(context, epre_path);
    io::RecordWriter<Edge> edel_in(context, edel_in_path);
    MembershipSplitSink head_split(
        context, cover_path, [](const Edge& e) { return e.dst; },
        [&](const Edge& e) { epre.Append(e); },
        [&](const Edge& e) { edel_in.Append(e); });
    by_head.FinishInto(head_split);
    result.preserved_edges = epre.count();
    epre.Finish();
    edel_in.Finish();
  }

  // ---- Step 2: E_del_out — out-edges of removed nodes, covered heads --
  // E_in is sorted by head: semijoin by head membership, keep covered
  // heads, then re-sort by tail and keep removed tails — fused the same
  // way as step 1.
  const std::string edel_out_path = context->NewTempPath("edel_out");
  {
    extsort::SortingWriter<Edge, EdgeBySrc> by_tail(context, EdgeBySrc());
    SplitByMembership(
        context, ein_path, cover_path, [](const Edge& e) { return e.dst; },
        [&](const Edge& e) { by_tail.Append(e); }, [](const Edge&) {});
    io::RecordWriter<Edge> edel_out(context, edel_out_path);
    MembershipSplitSink tail_split(
        context, cover_path, [](const Edge& e) { return e.src; },
        [](const Edge&) {}, [&](const Edge& e) { edel_out.Append(e); });
    by_tail.FinishInto(tail_split);
    edel_out.Finish();
  }

  // ---- Step 3: cross product per removed node (E_add) ----------------
  // E_del_in grouped by head (removed node), E_del_out grouped by tail
  // (removed node); merge the groups.
  result.edge_path = options.edge_output.empty()
                         ? context->NewTempPath("enext")
                         : options.edge_output;
  {
    io::RecordWriter<Edge> out(context, result.edge_path);
    // E_pre first (line 12's union is a concatenation).
    io::AppendAllRecords<Edge>(context, epre_path, &out);

    io::PeekableReader<Edge> del_in(context, edel_in_path);
    io::PeekableReader<Edge> del_out(context, edel_out_path);
    while (del_in.has_value() || del_out.has_value()) {
      NodeId v;
      if (!del_out.has_value()) {
        v = del_in.Peek().dst;
      } else if (!del_in.has_value()) {
        v = del_out.Peek().src;
      } else {
        v = std::min(del_in.Peek().dst, del_out.Peek().src);
      }
      ++result.removed_with_edges;
      // Buffer v's covered out-neighbours (deg bounded by Theorem 5.3).
      std::vector<NodeId> out_heads;
      while (del_out.has_value() && del_out.Peek().src == v) {
        out_heads.push_back(del_out.Pop().dst);
      }
      bool had_in = false;
      while (del_in.has_value() && del_in.Peek().dst == v) {
        const NodeId u = del_in.Pop().src;
        had_in = true;
        for (const NodeId w : out_heads) {
          if (u == w) continue;  // self-loop shortcut: see header comment
          out.Append(Edge{u, w});
          ++result.new_edges;
        }
      }
      (void)had_in;  // nodes with only one side simply add no shortcuts
    }
    result.num_edges = out.count();
    out.Finish();
  }
  context->temp_files().Remove(epre_path);
  context->temp_files().Remove(edel_in_path);
  context->temp_files().Remove(edel_out_path);
  return result;
}

}  // namespace extscc::core
