// Ext-SCC (Algorithm 2): the paper's external SCC algorithm.
//
//   contraction phase: while the node set does not fit in memory,
//     V_{i+1} = Get-V(G_i)   (vertex cover; contractible + recoverable)
//     E_{i+1} = Get-E(G_i)   (shortcut rewiring; SCC-preservable)
//   base case:          Semi-SCC on G_l (all nodes fit in M)
//   expansion phase:    re-insert removed batches in reverse order,
//                       labelling each batch from its neighbours' SCCs.
//
// ExtSccOptions::Basic() is the paper's Ext-SCC; ::Optimized() is
// Ext-SCC-Op with all §VII reductions. Individual toggles exist for the
// ablation bench.
#ifndef EXTSCC_CORE_EXT_SCC_H_
#define EXTSCC_CORE_EXT_SCC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/node_order.h"
#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "scc/br_tree_scc.h"
#include "scc/semi_external_scc.h"
#include "util/status.h"

namespace extscc::core {

struct ExtSccOptions {
  // §VII toggles. Basic() leaves all off; Optimized() turns all on.
  bool type1_reduction = false;
  bool type2_reduction = false;
  bool refined_order = false;         // Definition 7.1 instead of 5.1
  bool dedup_parallel_edges = false;  // lazy, at each level's E_in/E_out sort
  // Self-loop elimination is unconditional (both modes): a self-loop node
  // could never leave the cover, breaking Lemma 5.2's strict shrinkage.

  // Semi-external base case (Alg. 2 line 5). The option picks the
  // contraction stop rule, the named backend's own c·|V| <= M
  // (scc::SemiSccStateBytes), so the iteration structure depends on it:
  // kColoring, this library's forward-backward default at ~8.5 B/node,
  // never needs more levels than kBrTree at 16 B/node. The base case
  // itself is the spanning-tree family the paper plugs in (1PB-SCC [26],
  // scc::BrTreeScc) whenever its 16 B/node fits M, and colouring
  // otherwise (scc::RunSemiScc), so kBrTree always ends in BR-tree.
  scc::SemiSccBackend semi_backend = scc::SemiSccBackend::kColoring;

  // Crash-safe checkpointing (checkpoint.h). Non-empty: phase-boundary
  // outputs land in this directory instead of scratch, and a CRC'd
  // manifest is durably published after every completed contraction
  // level, the semi base case, and every non-final expansion level.
  // With `resume`, a solve that finds a matching manifest re-does only
  // the phases after the last completed one; a manifest for a DIFFERENT
  // input/options/memory/block size fails with kFailedPrecondition
  // rather than splicing solves. Either way the solve runs the same
  // loop with the same model block I/Os; checkpoint costs appear only
  // in the sync_calls/checkpoint_* stats counters.
  std::string checkpoint_dir;
  bool resume = false;

  static ExtSccOptions Basic() { return {}; }
  static ExtSccOptions Optimized() {
    ExtSccOptions opt;
    opt.type1_reduction = true;
    opt.type2_reduction = true;
    opt.refined_order = true;
    opt.dedup_parallel_edges = true;
    return opt;
  }
};

struct ContractionIterationStats {
  std::uint32_t level = 0;      // i: this iteration built G_{i+1} from G_i
  std::uint64_t nodes = 0;      // |V_i|
  std::uint64_t edges = 0;      // |E_i| (after lazy dedup in Op mode)
  std::uint64_t cover_nodes = 0;  // |V_{i+1}|
  std::uint64_t next_edges = 0;   // |E_{i+1}|
  std::uint64_t new_edges = 0;    // |E_add|
  std::uint64_t type2_skips = 0;
  double seconds = 0;
  std::uint64_t ios = 0;
};

struct ExtSccStats {
  std::vector<ContractionIterationStats> iterations;
  scc::SemiSccStats semi;
  std::uint64_t semi_nodes = 0;  // |V_l| handed to Semi-SCC
  std::uint64_t num_sccs = 0;
  double contraction_seconds = 0;
  double semi_seconds = 0;
  double expansion_seconds = 0;
  std::uint64_t total_ios = 0;
  double total_seconds = 0;

  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(iterations.size());
  }
};

// Computes all SCCs of `input`, writing the (node, scc) file sorted by
// node id to `scc_output`. Labels are dense in [0, stats.num_sccs).
//
// Returns ResourceExhausted when the context's I/O budget trips (the
// paper's INF censoring), the latched error when a device fails, a
// failed checkpoint write, and, with options.resume, the refusal of a
// checkpoint it cannot use (CheckpointSession::Start: FailedPrecondition
// for another solve's manifest or a missing or resized file, Corruption
// for a damaged manifest).
util::Result<ExtSccStats> RunExtScc(io::IoContext* context,
                                    const graph::DiskGraph& input,
                                    const std::string& scc_output,
                                    const ExtSccOptions& options);

}  // namespace extscc::core

#endif  // EXTSCC_CORE_EXT_SCC_H_
