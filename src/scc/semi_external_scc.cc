#include "scc/semi_external_scc.h"

#include <algorithm>
#include <vector>

#include "io/record_stream.h"
#include "util/logging.h"
#include "util/status.h"

namespace extscc::scc {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccId;

}  // namespace

void TranslateEdgesToIndices(io::IoContext* context, const graph::DiskGraph& g,
                             const std::vector<NodeId>& ids,
                             std::span<std::uint32_t> directory,
                             const std::string& output_path) {
  const std::size_t n = ids.size();
  CHECK_EQ(directory.size(), n);
  const NodeId lo = n > 0 ? ids.front() : 0;
  const std::uint32_t extent = n > 0 ? ids.back() - lo : 0;
  // The smallest shift with (extent >> shift) + 1 <= n buckets. The
  // looser ((extent + 1) >> shift) <= n admits n + 1 of them: ids {0, 4}
  // at shift 1 make 3 buckets for 2 words.
  unsigned shift = 0;
  while (n > 0 && (extent >> shift) + std::size_t{1} > n) ++shift;
  const std::size_t buckets = n > 0 ? (extent >> shift) + std::size_t{1} : 0;
  DCHECK_LE(buckets, n);
  for (std::size_t i = 0, b = 0; i < n; ++i) {
    const std::size_t bucket = (ids[i] - lo) >> shift;
    while (b <= bucket) directory[b++] = static_cast<std::uint32_t>(i);
  }

  // Sets *index to the position of `id` in ids; false if it is absent.
  auto index_of = [&](NodeId id, NodeId* index) {
    const std::uint32_t offset = id - lo;  // ids below lo wrap past extent
    if (buckets == 0 || offset > extent) return false;
    const std::size_t b = offset >> shift;
    const auto first = ids.begin() + directory[b];
    const auto last =
        b + 1 < buckets ? ids.begin() + directory[b + 1] : ids.end();
    const auto it = std::lower_bound(first, last, id);
    if (it == last || *it != id) return false;
    *index = static_cast<NodeId>(it - ids.begin());
    return true;
  };

  io::RecordReader<Edge> reader(context, g.edge_path);
  io::RecordWriter<Edge> writer(context, output_path);
  std::uint64_t dropped = 0;
  NodeId first_missing = 0;
  Edge e;
  while (reader.Next(&e)) {
    Edge dense;
    if (index_of(e.src, &dense.src) && index_of(e.dst, &dense.dst)) {
      writer.Append(dense);
    } else if (dropped++ == 0) {
      first_missing = index_of(e.src, &dense.src) ? e.dst : e.src;
    }
  }
  writer.Finish();
  if (dropped > 0) {
    context->RecordIoError(util::Status::Corruption(
        "edge endpoint " + std::to_string(first_missing) + " in " +
        g.edge_path + " is not in node file " + g.node_path + " (" +
        std::to_string(dropped) + " edges dropped)"));
  }
}

bool SemiExternalScc::Fits(std::uint64_t num_nodes,
                           const io::MemoryBudget& memory) {
  return StateBytes(num_nodes) <= memory.total_bytes();
}

SemiSccStats SemiExternalScc::Run(io::IoContext* context,
                                  const graph::DiskGraph& g,
                                  const std::string& scc_output,
                                  SccId* next_scc_id) {
  CHECK(Fits(g.num_nodes, context->memory()))
      << "Semi-SCC invoked on " << g.num_nodes
      << " nodes with M=" << context->memory().total_bytes()
      << " — the contraction phase must shrink the node set first";
  io::ScopedReservation reservation(&context->memory(),
                                    StateBytes(g.num_nodes));

  // Dense per-node state, indexed by position in the sorted id array.
  // word[v] is v's colour while alive[v], and its SCC label once retired.
  const std::vector<NodeId> ids =
      io::ReadAllRecords<NodeId>(context, g.node_path);
  const std::size_t n = ids.size();
  CHECK_EQ(n, g.num_nodes);
  std::vector<std::uint32_t> word(n);
  std::vector<bool> alive(n, true), marked(n), has_in(n), has_out(n);
  CHECK_LE((ids.capacity() + word.capacity()) * sizeof(std::uint32_t) +
               (alive.capacity() + marked.capacity() + has_in.capacity() +
                has_out.capacity()) / 8,
           reservation.bytes())
      << "Semi-SCC holds more heap than it reserved";

  SemiSccStats stats;
  std::uint64_t live = n;

  // One-time endpoint translation to dense indices so the fixpoint scans
  // below are lookup-free. Costs one extra sequential pass; its id->index
  // directory lives in `word`, which no step reads before trim writes it.
  const std::string translated = context->NewTempPath("semi_edges_idx");
  TranslateEdgesToIndices(context, g, ids, word, translated);

  auto scan_edges = [&](auto&& per_edge) {
    ++stats.edge_scans;
    io::RecordReader<Edge> reader(context, translated);
    Edge e;
    while (reader.Next(&e)) per_edge(e);
  };

  // ---- 1. Trim ------------------------------------------------------
  // A node dies when it lacks a live in-edge or a live out-edge, so two
  // bitsets replace the degree counts.
  auto trim = [&]() {
    while (live > 0) {
      std::fill(has_in.begin(), has_in.end(), false);
      std::fill(has_out.begin(), has_out.end(), false);
      scan_edges([&](const Edge& e) {
        if (alive[e.src] && alive[e.dst]) {  // already dense indices
          has_out[e.src] = true;
          has_in[e.dst] = true;
        }
      });
      std::uint64_t killed = 0;
      for (std::size_t v = 0; v < n; ++v) {
        if (alive[v] && !(has_in[v] && has_out[v])) {
          word[v] = (*next_scc_id)++;
          alive[v] = false;
          ++killed;
        }
      }
      stats.trimmed += killed;
      stats.num_sccs += killed;
      live -= killed;
      if (killed == 0) break;
    }
  };

  trim();

  // ---- 2-4. Colour / mark / retire rounds ---------------------------
  while (live > 0) {
    ++stats.rounds;
    // Colour propagation: colour(v) = max over ancestors (Gauss-Seidel
    // within a pass, so chains aligned with edge order converge fast).
    // Retired nodes keep their labels; no scan reads a dead node's word.
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v]) word[v] = static_cast<std::uint32_t>(v);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      scan_edges([&](const Edge& e) {
        if (!alive[e.src] || !alive[e.dst]) return;
        if (word[e.src] > word[e.dst]) {
          word[e.dst] = word[e.src];
          changed = true;
        }
      });
    }

    // Backward mark within colour classes, seeded at the roots.
    std::fill(marked.begin(), marked.end(), false);
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v] && word[v] == static_cast<std::uint32_t>(v)) {
        marked[v] = true;
      }
    }
    changed = true;
    while (changed) {
      changed = false;
      scan_edges([&](const Edge& e) {
        if (!alive[e.src] || !alive[e.dst]) return;
        if (word[e.src] == word[e.dst] && marked[e.dst] && !marked[e.src]) {
          marked[e.src] = true;
          changed = true;
        }
      });
    }

    // Retire the SCC of every root, numbering classes in the order their
    // smallest member appears. A member's colour is its class root r,
    // and r >= the member (r is its largest ancestor), so the first
    // member met in ascending order parks the new label in r's word and
    // retires r early; later members find r dead and copy the label.
    std::uint64_t killed = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!alive[v] || !marked[v]) continue;
      const std::uint32_t root = word[v];
      if (root != v && !alive[root]) {
        word[v] = word[root];
      } else {
        word[v] = (*next_scc_id)++;
        ++stats.num_sccs;
        if (root != v) {
          word[root] = word[v];
          alive[root] = false;
          ++killed;
        }
      }
      alive[v] = false;
      ++killed;
    }
    CHECK_GT(killed, 0u) << "colouring round retired no node — bug";
    live -= killed;

    trim();
  }

  context->temp_files().Remove(translated);

  // ---- Output: ids are sorted, so the label file is node-sorted. -----
  io::RecordWriter<graph::SccEntry> writer(context, scc_output);
  for (std::size_t v = 0; v < n; ++v) {
    DCHECK(!alive[v]);
    writer.Append(graph::SccEntry{ids[v], word[v]});
  }
  writer.Finish();
  return stats;
}

}  // namespace extscc::scc
