// BR-tree semi-external SCC — the spanning-tree algorithm family of
// Zhang et al. [26] (SIGMOD'13, "1PB-SCC"), the base case the paper
// actually plugs into Ext-SCC.
//
// The algorithm keeps one spanning tree of G in memory (O(|V|) words: a
// parent pointer, a depth, and a union-find cell per node) rooted at a
// virtual node, and repeats sequential scans of the edge file. For each
// edge (u, v) between distinct partial-SCC representatives it restores
// the tree invariant "every edge points strictly downward in depth":
//
//   * v is an ancestor of u     -> the tree path v .. u plus (u, v) is a
//     real directed cycle (every parent link was created from a real
//     edge), so the whole path is contracted into one union-find group —
//     the paper's "each partial SCC can be contracted into one node".
//   * depth(v) <= depth(u)      -> re-hang v below u (parent(v) = u,
//     depth(v) = depth(u) + 1). Depths only grow, so the pass fixpoint
//     is well defined.
//
// At the fixpoint every surviving edge goes strictly downward, so no
// directed cycle can remain between representatives: each union-find
// group is exactly one SCC (groups of size one are singleton SCCs).
//
// The scans read dense (index, index) edges written once up front by
// TranslateEdgesToIndices (semi_external_scc.h), the routine the
// colouring backend uses too.
//
// Like SemiExternalScc (the colouring backend) this honours the Semi-SCC
// contract Ext-SCC relies on — c·|V| bytes of memory plus O(1) blocks,
// edge access by sequential scans only. It charges 16 B/node against
// colouring's ~8.5 but scans the edge file about a third as often on
// web-like graphs, so RunSemiScc (below) runs it whenever it fits M.
#ifndef EXTSCC_SCC_BR_TREE_SCC_H_
#define EXTSCC_SCC_BR_TREE_SCC_H_

#include <cstdint>
#include <string>

#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "scc/semi_external_scc.h"

namespace extscc::scc {

struct BrTreeStats {
  std::uint64_t passes = 0;        // sequential scans until fixpoint
  std::uint64_t contractions = 0;  // tree-path contractions (partial SCCs)
  std::uint64_t rehangs = 0;       // parent re-assignments
  std::uint64_t num_sccs = 0;
};

class BrTreeScc {
 public:
  // Exact heap of the per-node state Run holds for `num_nodes` nodes: a
  // 4-byte id, union-find cell, tree parent and depth (the depth array
  // holds TranslateEdgesToIndices' id->index directory before the scans
  // and the SCC labels once the fixpoint is reached). Run reserves
  // exactly this much.
  static constexpr std::uint64_t StateBytes(std::uint64_t num_nodes) {
    return 16 * num_nodes;
  }

  // True iff StateBytes(num_nodes) <= M.
  static bool Fits(std::uint64_t num_nodes, const io::MemoryBudget& memory);

  // Computes all SCCs of `g`, allocating labels from *next_scc_id, and
  // writes the (node, scc) file sorted by node id to `scc_output`.
  // CHECK-fails if !Fits(...) — see SemiExternalScc::Run.
  static BrTreeStats Run(io::IoContext* context, const graph::DiskGraph& g,
                         const std::string& scc_output,
                         graph::SccId* next_scc_id);
};

// ---- backend selection -----------------------------------------------
//
// Ext-SCC contracts until SemiSccFits(semi_backend, |V|, M) holds, then
// calls RunSemiScc, which runs BR-tree whenever BrTreeScc::Fits and
// colouring otherwise. The backend a caller names (SemiSccBackend, in
// semi_external_scc.h) therefore picks only the stop rule: kColoring, the
// default, stops at ~8.5 B/node and still gets BR-tree's fewer scans when
// the node set fits in M/16; kBrTree stops at 16 B/node, so it always
// runs BR-tree, after as many more contraction levels as that takes.

const char* SemiSccBackendName(SemiSccBackend backend);

// StateBytes(num_nodes) of the backend's stop rule: the colouring backend
// holds ~8.5 B/node, BR-tree 16 B/node.
std::uint64_t SemiSccStateBytes(SemiSccBackend backend,
                                std::uint64_t num_nodes);

// Stop-condition probe for `backend`:
// SemiSccStateBytes(backend, num_nodes) <= M.
bool SemiSccFits(SemiSccBackend backend, std::uint64_t num_nodes,
                 const io::MemoryBudget& memory);

// Ext-SCC's base case under `backend`'s stop rule: CHECK-fails unless
// SemiSccFits(backend, g.num_nodes, M), then runs BrTreeScc if it fits M
// and SemiExternalScc otherwise, whichever `backend` names. Normalizes
// the stats into SemiSccStats (backend <- the algorithm that ran, rounds
// <- colour rounds / BR passes, trimmed <- trims / contractions).
SemiSccStats RunSemiScc(SemiSccBackend backend, io::IoContext* context,
                        const graph::DiskGraph& g,
                        const std::string& scc_output,
                        graph::SccId* next_scc_id);

}  // namespace extscc::scc

#endif  // EXTSCC_SCC_BR_TREE_SCC_H_
