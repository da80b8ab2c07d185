// Semi-SCC: semi-external SCC computation — all nodes in memory
// (O(|V|) words), edges streamed from disk with sequential scans only.
//
// The paper plugs in 1PB-SCC [26] (SIGMOD'13) here. This library runs
// that spanning-tree algorithm (BrTreeScc, br_tree_scc.h) whenever its
// 16 B/node fits M, and otherwise the forward-backward colouring
// algorithm (Orzan-style) with iterative trimming below, which honours
// the identical contract Ext-SCC relies on: memory c·|V| (StateBytes
// below, ~8.5 B/node against the paper's c = 8) plus O(1) stream blocks,
// and edge-file access exclusively via sequential scans. Colouring's
// smaller footprint is the default contraction stop rule, so Ext-SCC
// contracts only until colouring fits; it scans the edge file three to
// four times as often as BR-tree on web-like graphs, so it runs only
// where BR-tree does not fit (scc::RunSemiScc).
//
// Algorithm sketch (each step is a fixpoint of sequential edge scans):
//   1. Trim: repeatedly give nodes with no live in- or out-edge their
//      own singleton SCC (they cannot lie on any cycle).
//   2. Colour: propagate colour(v) = max id over v's live ancestors
//      (including v). Fixpoint roots r (colour(r) = r) have no larger
//      ancestor; every node on a cycle through r holds colour r exactly.
//   3. Mark: within each colour class, propagate backward reachability to
//      the root; the marked set of class r is exactly SCC(r).
//   4. Retire all marked nodes, repeat from 1 until no node is live.
//
// Before step 1, TranslateEdgesToIndices (below, shared with the BR-tree
// backend) rewrites the edge file once as dense (index, index) pairs, so
// every scan indexes the per-node state directly.
#ifndef EXTSCC_SCC_SEMI_EXTERNAL_SCC_H_
#define EXTSCC_SCC_SEMI_EXTERNAL_SCC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"

namespace extscc::scc {

// The two semi-external algorithms. As ExtSccOptions::semi_backend a
// value names the contraction stop rule (scc::SemiSccFits); in
// SemiSccStats it names the algorithm that ran.
enum class SemiSccBackend {
  kColoring,  // forward-backward colouring (SemiExternalScc), ~8.5 B/node
  kBrTree,    // spanning-tree contraction (BrTreeScc), 16 B/node
};

struct SemiSccStats {
  SemiSccBackend backend = SemiSccBackend::kColoring;  // the one that ran
  std::uint64_t rounds = 0;       // outer colour/mark rounds
  std::uint64_t edge_scans = 0;   // sequential passes over the edge file
  std::uint64_t trimmed = 0;      // nodes retired by trimming
  std::uint64_t num_sccs = 0;
};

class SemiExternalScc {
 public:
  // Exact heap of the per-node state Run holds for `num_nodes` nodes: a
  // 4-byte id, one 4-byte word (the id->index directory during endpoint
  // translation, then the colour while the node is alive and its SCC
  // label once retired), and four bitsets (alive, marked, has a live
  // in-edge, has a live out-edge). Run reserves exactly this much.
  static constexpr std::uint64_t StateBytes(std::uint64_t num_nodes) {
    return 8 * num_nodes + 4 * 8 * ((num_nodes + 63) / 64);
  }

  // True iff StateBytes(num_nodes) <= M: the graph may be solved
  // semi-externally — the Ext-SCC driver's stop condition c·|V| <= M
  // (Alg. 2 line 2).
  static bool Fits(std::uint64_t num_nodes, const io::MemoryBudget& memory);

  // Computes all SCCs of `g`, appending labels from *next_scc_id, and
  // writes the (node, scc) file sorted by node id to `scc_output`.
  // CHECK-fails if !Fits(g.num_nodes, ...): calling this beyond the
  // budget is a driver bug, the exact situation Ext-SCC exists to avoid.
  static SemiSccStats Run(io::IoContext* context, const graph::DiskGraph& g,
                          const std::string& scc_output,
                          graph::SccId* next_scc_id);
};

// The one-time endpoint translation both semi-external backends share:
// streams g's edge file once and writes every edge to `output_path` as
// (index, index) into `ids`, g's sorted node array. Each endpoint costs
// O(1): bucket b of the directory covers ids ids[0] + [b·2^s, (b+1)·2^s)
// for the smallest shift s with at most ids.size() buckets, and
// directory[b] is the first index whose id lies in bucket b or later, so
// a lookup is one directory load and a binary search confined to one
// bucket (one id per bucket on dense ids). `directory` must hold
// ids.size() words; it is scratch, overwritten here and meaningless
// afterwards, so a backend lends it an array it does not read until the
// translation is done. An endpoint missing from the node file latches
// kCorruption on the context (IoContext::RecordIoError) and its edge is
// dropped; the driver's next latch poll returns the error.
void TranslateEdgesToIndices(io::IoContext* context, const graph::DiskGraph& g,
                             const std::vector<graph::NodeId>& ids,
                             std::span<std::uint32_t> directory,
                             const std::string& output_path);

}  // namespace extscc::scc

#endif  // EXTSCC_SCC_SEMI_EXTERNAL_SCC_H_
