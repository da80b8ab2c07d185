#include "scc/br_tree_scc.h"

#include <algorithm>
#include <vector>

#include "io/record_stream.h"
#include "util/logging.h"

namespace extscc::scc {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccId;

// Virtual-root sentinel in the parent array (dense indices are < n).
constexpr std::uint32_t kRoot = 0xffffffffu;

// Union-find over dense indices with path halving. Unions are directed:
// the surviving representative is always the tree-path's top node, whose
// parent/depth stay valid for the merged group.
class DirectedUnionFind {
 public:
  explicit DirectedUnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }

  std::uint32_t Find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  // Merges the group of `from` into the representative `into_rep`.
  void MergeInto(std::uint32_t from, std::uint32_t into_rep) {
    parent_[Find(from)] = into_rep;
  }

  std::uint64_t HeapBytes() const {
    return parent_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

bool BrTreeScc::Fits(std::uint64_t num_nodes, const io::MemoryBudget& memory) {
  return StateBytes(num_nodes) <= memory.total_bytes();
}

BrTreeStats BrTreeScc::Run(io::IoContext* context, const graph::DiskGraph& g,
                           const std::string& scc_output,
                           SccId* next_scc_id) {
  CHECK(Fits(g.num_nodes, context->memory()))
      << "BR-tree Semi-SCC invoked on " << g.num_nodes
      << " nodes with M=" << context->memory().total_bytes()
      << " — the contraction phase must shrink the node set first";
  io::ScopedReservation reservation(&context->memory(),
                                    StateBytes(g.num_nodes));

  BrTreeStats stats;
  const std::vector<NodeId> ids =
      io::ReadAllRecords<NodeId>(context, g.node_path);
  const std::size_t n = ids.size();
  CHECK_EQ(n, g.num_nodes);

  if (n == 0) {
    io::RecordWriter<graph::SccEntry> writer(context, scc_output);
    writer.Finish();
    return stats;
  }

  // One-time endpoint translation to dense indices (the routine the
  // colouring backend uses too), so the fixpoint scans are lookup-free.
  // Its id->index directory lives in the depth array, set up only after.
  std::vector<std::uint32_t> depth(n);
  const std::string translated = context->NewTempPath("brt_edges_idx");
  TranslateEdgesToIndices(context, g, ids, depth, translated);

  DirectedUnionFind uf(n);
  // Spanning tree: every node starts as a child of the virtual root.
  // Parent links other than kRoot are only ever created from a real edge
  // (parent -> child), which is what makes tree paths real directed
  // paths and contraction sound.
  std::vector<std::uint32_t> parent(n, kRoot);
  std::fill(depth.begin(), depth.end(), 1);
  CHECK_LE((ids.capacity() + parent.capacity() + depth.capacity()) *
                   sizeof(std::uint32_t) +
               uf.HeapBytes(),
           reservation.bytes())
      << "BR-tree Semi-SCC holds more heap than it reserved";

  // Rep-normalized parent link of representative `x`.
  auto up = [&](std::uint32_t x) {
    const std::uint32_t p = parent[x];
    return p == kRoot ? kRoot : uf.Find(p);
  };

  // True ancestor test: walk rep-normalized parent links from `u` toward
  // the root, looking for `v`. Exactness matters — re-hanging v under a
  // strict descendant of v would close a parent-pointer cycle.
  auto is_ancestor = [&](std::uint32_t v_rep, std::uint32_t u_rep) {
    std::uint32_t x = u_rep;
    std::uint64_t hops = 0;
    while (x != kRoot) {
      if (x == v_rep) return true;
      x = up(x);
      CHECK_LE(++hops, static_cast<std::uint64_t>(n) + 1)
          << "parent-pointer cycle — BR-tree invariant broken";
    }
    return false;
  };

  // Generous safety valve. Every pass with work does a contraction
  // (<= n-1 total) or strictly increases some depth; random and web-like
  // graphs converge in a handful of passes (asserted in tests).
  const std::uint64_t max_passes = 4 * static_cast<std::uint64_t>(n) + 16;

  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.passes;
    CHECK_LE(stats.passes, max_passes)
        << "BR-tree fixpoint did not converge — invariant bug";
    io::RecordReader<Edge> reader(context, translated);
    Edge e;
    while (reader.Next(&e)) {
      const std::uint32_t u = uf.Find(e.src);
      const std::uint32_t v = uf.Find(e.dst);
      if (u == v) continue;
      // Fast path: the edge already points strictly downward. (Depths of
      // re-hung subtrees are stale within a pass; that only delays work
      // to a later pass, never unsoundly mutates the tree.)
      if (depth[v] > depth[u]) continue;
      if (is_ancestor(v, u)) {
        // The tree path u .. child-of-v plus edge (u, v) closes a real
        // directed cycle. Contract it into v, walking the path a second
        // time rather than buffering it (nothing moved since the test).
        for (std::uint32_t x = u; x != v;) {
          const std::uint32_t next = up(x);
          uf.MergeInto(x, v);
          x = next;
        }
        ++stats.contractions;
        changed = true;
      } else {
        parent[v] = u;
        depth[v] = depth[u] + 1;
        ++stats.rehangs;
        changed = true;
      }
    }
  }

  // Each surviving representative group is one SCC. Label densely in
  // representative order, then emit per original node (ids are sorted,
  // so the output is node-sorted as required). Depths are dead past the
  // fixpoint, so their array holds the labels.
  std::vector<SccId>& label = depth;
  std::fill(label.begin(), label.end(), graph::kInvalidScc);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t rep = uf.Find(static_cast<std::uint32_t>(i));
    if (label[rep] == graph::kInvalidScc) {
      label[rep] = (*next_scc_id)++;
      ++stats.num_sccs;
    }
    label[i] = label[rep];
  }

  context->temp_files().Remove(translated);

  io::RecordWriter<graph::SccEntry> writer(context, scc_output);
  for (std::size_t i = 0; i < n; ++i) {
    writer.Append(graph::SccEntry{ids[i], label[i]});
  }
  writer.Finish();
  return stats;
}

// ---- backend dispatch ---------------------------------------------------

const char* SemiSccBackendName(SemiSccBackend backend) {
  switch (backend) {
    case SemiSccBackend::kColoring:
      return "coloring";
    case SemiSccBackend::kBrTree:
      return "br-tree";
  }
  return "unknown";
}

std::uint64_t SemiSccStateBytes(SemiSccBackend backend,
                                std::uint64_t num_nodes) {
  switch (backend) {
    case SemiSccBackend::kColoring:
      return SemiExternalScc::StateBytes(num_nodes);
    case SemiSccBackend::kBrTree:
      return BrTreeScc::StateBytes(num_nodes);
  }
  LOG_FATAL << "unknown SemiSccBackend";
  return 0;
}

bool SemiSccFits(SemiSccBackend backend, std::uint64_t num_nodes,
                 const io::MemoryBudget& memory) {
  return SemiSccStateBytes(backend, num_nodes) <= memory.total_bytes();
}

SemiSccStats RunSemiScc(SemiSccBackend backend, io::IoContext* context,
                        const graph::DiskGraph& g,
                        const std::string& scc_output, SccId* next_scc_id) {
  CHECK(SemiSccFits(backend, g.num_nodes, context->memory()))
      << SemiSccBackendName(backend) << " Semi-SCC invoked on "
      << g.num_nodes << " nodes with M=" << context->memory().total_bytes()
      << " — the contraction phase must shrink the node set first";
  // The stop rule only bounds the node set. Whenever BR-tree's larger
  // state fits too it runs, for its fewer edge scans (5 against 14–20 on
  // web-like graphs).
  if (!BrTreeScc::Fits(g.num_nodes, context->memory())) {
    return SemiExternalScc::Run(context, g, scc_output, next_scc_id);
  }
  const BrTreeStats brt = BrTreeScc::Run(context, g, scc_output, next_scc_id);
  SemiSccStats stats;
  stats.backend = SemiSccBackend::kBrTree;
  stats.rounds = brt.passes;
  stats.edge_scans = brt.passes;
  stats.trimmed = brt.contractions;
  stats.num_sccs = brt.num_sccs;
  return stats;
}

}  // namespace extscc::scc
