#include "core/vertex_cover.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "extsort/external_sorter.h"
#include "graph/graph_types.h"
#include "io/record_stream.h"
#include "util/logging.h"

namespace extscc::core {

namespace {

using graph::DegreeEntry;
using graph::Edge;
using graph::NodeId;

// Edge with the tail's degrees attached (the intermediate E_d of
// Algorithm 3 after line 5).
struct HalfDegEdge {
  NodeId u = 0;
  std::uint32_t u_in = 0;
  std::uint32_t u_out = 0;
  NodeId v = 0;
};

// Orders by (head, tail). The normalized key (record_traits.h) omits
// the degree payload like the comparator does; (v, u) determines the
// record (u's degrees are functions of u), so the order is total on the
// records that actually occur and the fused E_d sort radix-sorts.
struct HalfDegEdgeByHead {
  static std::uint64_t KeyOf(const HalfDegEdge& e) {
    return extsort::PackKey64(e.v, e.u);
  }
  bool operator()(const HalfDegEdge& a, const HalfDegEdge& b) const {
    return KeyOf(a) < KeyOf(b);
  }
};

// Builds V_d by merging the two grouped edge streams: E_in grouped by
// head yields deg_in, E_out grouped by tail yields deg_out (Alg. 3 l.4).
std::uint64_t BuildDegreeFile(io::IoContext* context,
                              const std::string& ein_path,
                              const std::string& eout_path,
                              const std::string& vd_path, bool type1) {
  io::PeekableReader<Edge> ein(context, ein_path);
  io::PeekableReader<Edge> eout(context, eout_path);
  io::RecordWriter<DegreeEntry> writer(context, vd_path);
  std::uint64_t emitted = 0;

  auto drain_group = [](auto& reader, NodeId node, auto key_of) {
    std::uint32_t count = 0;
    while (reader.has_value() && key_of(reader.Peek()) == node) {
      reader.Pop();
      ++count;
    }
    return count;
  };
  const auto head = [](const Edge& e) { return e.dst; };
  const auto tail = [](const Edge& e) { return e.src; };

  while (ein.has_value() || eout.has_value()) {
    NodeId node;
    if (!eout.has_value()) {
      node = ein.Peek().dst;
    } else if (!ein.has_value()) {
      node = eout.Peek().src;
    } else {
      node = std::min(ein.Peek().dst, eout.Peek().src);
    }
    DegreeEntry entry;
    entry.node = node;
    if (ein.has_value() && ein.Peek().dst == node) {
      entry.deg_in = drain_group(ein, node, head);
    }
    if (eout.has_value() && eout.Peek().src == node) {
      entry.deg_out = drain_group(eout, node, tail);
    }
    if (type1 && (entry.deg_in == 0 || entry.deg_out == 0)) {
      continue;  // Lemma 7.1: source/sink — a guaranteed singleton SCC.
    }
    writer.Append(entry);
    ++emitted;
  }
  writer.Finish();
  return emitted;
}

}  // namespace

CoverResult ComputeVertexCover(io::IoContext* context,
                               const std::string& ein_path,
                               const std::string& eout_path,
                               const CoverOptions& options) {
  CoverResult result;

  // ---- V_d: degrees per node (line 4) -------------------------------
  const std::string vd_path = context->NewTempPath("vd");
  result.degree_nodes =
      BuildDegreeFile(context, ein_path, eout_path, vd_path,
                      options.type1_reduction);

  // ---- E_d build, by-head re-sort, and selection (lines 5-9, fused) --
  // The stage-per-file form wrote E_d by tail, sorted it into a by-head
  // file, and scanned that for selection. Fused, the tail-degree
  // augmentation streams E_d straight into a SortingWriter whose final
  // merge drains into the selection sink — neither E_d ordering ever
  // materializes, saving two write+read passes of E_d (the largest
  // intermediate of Get-V). Cover candidates stream into a second
  // sorting writer that dedups (line 10).
  extsort::SortingWriter<NodeId, graph::NodeIdLess> cover_writer(
      context, graph::NodeIdLess{}, /*dedup=*/true);
  {
    // Dictionary T for the Type-2 reduction, sized from (half) the free
    // budget *before* the E_d sorting writer takes its reservation, and
    // reserved for its whole lifetime — it coexists with the fused
    // sort's buffers, so the sort must size itself from the remainder.
    std::unique_ptr<BoundedNodeCache> cache;
    std::optional<io::ScopedReservation> cache_reservation;
    if (options.type2_reduction) {
      const std::uint64_t cap = std::max<std::uint64_t>(
          16, context->memory().available_bytes() /
                  (2 * BoundedNodeCache::kBytesPerEntry));
      cache = std::make_unique<BoundedNodeCache>(
          static_cast<std::size_t>(cap), options.order);
      cache_reservation.emplace(
          &context->memory(),
          std::min<std::uint64_t>(cap * BoundedNodeCache::kBytesPerEntry,
                                  context->memory().available_bytes()));
    }
    extsort::SortingWriter<HalfDegEdge, HalfDegEdgeByHead> ed_by_head(
        context, HalfDegEdgeByHead());
    {
      // ---- E_d: augment tail degrees (line 5) ------------------------
      io::PeekableReader<Edge> eout(context, eout_path);
      io::PeekableReader<DegreeEntry> vd(context, vd_path);
      while (eout.has_value()) {
        const NodeId u = eout.Peek().src;
        while (vd.has_value() && vd.Peek().node < u) vd.Pop();
        if (!vd.has_value() || vd.Peek().node != u) {
          // Tail was Type-1-dropped: its edges cannot lie on a cycle.
          eout.Pop();
          continue;
        }
        const DegreeEntry u_deg = vd.Peek();
        while (eout.has_value() && eout.Peek().src == u) {
          const Edge e = eout.Pop();
          ed_by_head.Append(HalfDegEdge{u, u_deg.deg_in, u_deg.deg_out, e.dst});
        }
      }
    }

    // ---- Augment head degrees + selection (lines 7-9) ----------------
    // Push-mode consumer of E_d in (v, u) order: v's degree lookup
    // advances a fresh V_d reader monotonically, group by group.
    io::PeekableReader<DegreeEntry> vd(context, vd_path);
    NodeId cur_v = graph::kInvalidNode;
    bool v_present = false;
    DegreeEntry v_deg;
    auto select = extsort::MakeCallbackSink<HalfDegEdge>(
        [&](const HalfDegEdge& e) {
          if (e.v != cur_v || cur_v == graph::kInvalidNode) {
            cur_v = e.v;
            while (vd.has_value() && vd.Peek().node < cur_v) vd.Pop();
            v_present = vd.has_value() && vd.Peek().node == cur_v;
            if (v_present) v_deg = vd.Peek();
          }
          if (!v_present) return;  // head was Type-1-dropped
          const NodeKey u_key{e.u, e.u_in, e.u_out};
          const NodeKey v_key{cur_v, v_deg.deg_in, v_deg.deg_out};
          const bool u_greater = NodeGreater(u_key, v_key, options.order);
          const NodeKey& winner = u_greater ? u_key : v_key;
          const NodeKey& loser = u_greater ? v_key : u_key;
          if (cache != nullptr && cache->Contains(loser.id)) {
            // Edge already covered by its smaller endpoint (§VII Type-2).
            ++result.type2_skips;
            return;
          }
          cover_writer.Append(winner.id);
          if (cache != nullptr) cache->Insert(winner);
        });
    ed_by_head.FinishInto(select);
  }
  context->temp_files().Remove(vd_path);

  // ---- Sort + dedup (line 10) ----------------------------------------
  result.cover_path = options.cover_output.empty()
                          ? context->NewTempPath("cover")
                          : options.cover_output;
  io::RecordWriter<NodeId> cover_file(context, result.cover_path);
  cover_writer.FinishInto(cover_file);
  cover_file.Finish();
  result.cover_count = cover_file.count();
  return result;
}

}  // namespace extscc::core
