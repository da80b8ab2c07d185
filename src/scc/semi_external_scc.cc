#include "scc/semi_external_scc.h"

#include <algorithm>
#include <vector>

#include "io/record_stream.h"
#include "util/logging.h"

namespace extscc::scc {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccId;

}  // namespace

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
  // below are lookup-free. Costs one extra sequential pass; the id->index
  // map is the node array we already hold (within the O(|V|) contract).
  const std::string translated = context->NewTempPath("semi_edges_idx");
  {
    auto index_of = [&](NodeId id) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      DCHECK(it != ids.end() && *it == id);
      return static_cast<NodeId>(it - ids.begin());
    };
    io::RecordReader<Edge> reader(context, g.edge_path);
    io::RecordWriter<Edge> writer(context, translated);
    Edge e;
    while (reader.Next(&e)) {
      writer.Append(Edge{index_of(e.src), index_of(e.dst)});
    }
    writer.Finish();
  }

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
