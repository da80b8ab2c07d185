#include "core/expansion.h"

#include <vector>

#include "core/membership_split.h"
#include "extsort/external_sorter.h"
#include "graph/scc_file.h"
#include "io/record_stream.h"
#include "util/logging.h"

namespace extscc::core {

namespace {

using graph::Edge;
using graph::EdgeByDst;
using graph::EdgeBySrc;
using graph::NodeId;
using graph::SccEntry;
using graph::SccEntryByNode;
using graph::SccId;

// The `augment` procedure (Alg. 5 lines 8-14) for one direction.
// `edge_path` must be sorted with the removed-node endpoint as group
// key; `removed_is_head` says which endpoint that is. Produces a
// (removed node, neighbour label) file sorted by (node, label),
// deduplicated.
//
// The four steps — membership filter, re-sort by neighbour, label
// attach, re-sort by (node, label) — run as one fused pipeline: the
// filter feeds a SortingWriter whose final merge drains into the
// label-attach callback, which feeds the output SortingWriter. Only the
// final (node, label) file materializes (the expansion intersect pulls
// from both directions at once, so it needs real files); the three
// intermediates of the stage-per-file form never exist, saving a
// write+read of the removed-side edge set three times over per
// direction.
std::string AugmentDirection(io::IoContext* context,
                             const std::string& edge_path,
                             bool removed_is_head,
                             const std::string& cover_path,
                             const std::string& scc_next_path) {
  extsort::SortingWriter<SccEntry, SccEntryByNode> labeled(
      context, SccEntryByNode(), /*dedup=*/true);
  {
    // Label attach (step 3): skip same-iteration removals — provably
    // Type-1 singletons that witness nothing. Receives edges in
    // neighbour order from the fused sort below, so the label stream
    // advances monotonically.
    io::PeekableReader<SccEntry> labels(context, scc_next_path);
    auto attach = extsort::MakeCallbackSink<Edge>([&](const Edge& e) {
      const NodeId neighbor = removed_is_head ? e.src : e.dst;
      const NodeId removed = removed_is_head ? e.dst : e.src;
      while (labels.has_value() && labels.Peek().node < neighbor) {
        labels.Pop();
      }
      if (labels.has_value() && labels.Peek().node == neighbor) {
        labeled.Append(SccEntry{removed, labels.Peek().scc});
      }
    });
    // Steps 1+2: keep only edges whose removed-side endpoint is NOT in
    // the cover, re-sorted by the *neighbour* endpoint for the lookup.
    const auto removed_key = [removed_is_head](const Edge& e) {
      return removed_is_head ? e.dst : e.src;
    };
    if (removed_is_head) {
      extsort::SortingWriter<Edge, EdgeBySrc> by_neighbor(context,
                                                          EdgeBySrc());
      SplitByMembership(context, edge_path, cover_path, removed_key,
                        [](const Edge&) {},
                        [&](const Edge& e) { by_neighbor.Append(e); });
      by_neighbor.FinishInto(attach);
    } else {
      extsort::SortingWriter<Edge, EdgeByDst> by_neighbor(context,
                                                          EdgeByDst());
      SplitByMembership(context, edge_path, cover_path, removed_key,
                        [](const Edge&) {},
                        [&](const Edge& e) { by_neighbor.Append(e); });
      by_neighbor.FinishInto(attach);
    }
  }

  // Step 4: sort by (removed node, label) and dedup (Alg. 5 line 13).
  const std::string out_path = context->NewTempPath("exp_nbrscc");
  labeled.FinishInto(out_path);
  return out_path;
}

}  // namespace

ExpansionResult ExpandLevel(io::IoContext* context,
                            const std::string& ein_path,
                            const std::string& eout_path,
                            const std::string& cover_path,
                            const std::string& removed_path,
                            const std::string& scc_next_path,
                            SccId* next_scc_id,
                            const std::string& scc_output) {
  ExpansionResult result;

  // E_in is grouped by head: removed-head edges give in-neighbour labels.
  const std::string in_labels_path = AugmentDirection(
      context, ein_path, /*removed_is_head=*/true, cover_path, scc_next_path);
  // E_out is grouped by tail: removed-tail edges give out-neighbour labels.
  const std::string out_labels_path =
      AugmentDirection(context, eout_path, /*removed_is_head=*/false,
                       cover_path, scc_next_path);

  // ---- Intersect per removed node (Alg. 5 line 4) --------------------
  const std::string scc_del_path = context->NewTempPath("scc_del");
  {
    io::PeekableReader<NodeId> removed(context, removed_path);
    io::PeekableReader<SccEntry> in_labels(context, in_labels_path);
    io::PeekableReader<SccEntry> out_labels(context, out_labels_path);
    io::RecordWriter<SccEntry> writer(context, scc_del_path);
    while (removed.has_value()) {
      const NodeId v = removed.Pop();
      // Both label streams are sorted by (node, label); intersect the two
      // sorted label groups of v with one merge pass.
      while (in_labels.has_value() && in_labels.Peek().node < v) {
        in_labels.Pop();
      }
      while (out_labels.has_value() && out_labels.Peek().node < v) {
        out_labels.Pop();
      }
      SccId common = graph::kInvalidScc;
      std::uint32_t matches = 0;
      while (in_labels.has_value() && in_labels.Peek().node == v &&
             out_labels.has_value() && out_labels.Peek().node == v) {
        const SccId a = in_labels.Peek().scc;
        const SccId b = out_labels.Peek().scc;
        if (a == b) {
          common = a;
          ++matches;
          in_labels.Pop();
          out_labels.Pop();
        } else if (a < b) {
          in_labels.Pop();
        } else {
          out_labels.Pop();
        }
      }
      // Lemma 6.2: the intersection holds at most one label.
      CHECK_LE(matches, 1u)
          << "removed node " << v
          << " intersects two distinct neighbour SCCs — SCC-preservable "
             "property violated";
      if (common != graph::kInvalidScc) {
        writer.Append(SccEntry{v, common});
        ++result.removed_in_existing_scc;
      } else {
        writer.Append(SccEntry{v, (*next_scc_id)++});
        ++result.removed_singletons;
      }
      // Drain any leftover labels of v.
      while (in_labels.has_value() && in_labels.Peek().node == v) {
        in_labels.Pop();
      }
      while (out_labels.has_value() && out_labels.Peek().node == v) {
        out_labels.Pop();
      }
    }
    writer.Finish();
  }
  context->temp_files().Remove(in_labels_path);
  context->temp_files().Remove(out_labels_path);

  // ---- SCC_i = SCC_{i+1} ∪ SCC_del, sorted by node (lines 5-6) --------
  result.scc_path =
      scc_output.empty() ? context->NewTempPath("scc_level") : scc_output;
  graph::MergeSccFiles(context, scc_next_path, scc_del_path, result.scc_path);
  context->temp_files().Remove(scc_del_path);
  return result;
}

}  // namespace extscc::core
