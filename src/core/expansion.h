// Expansion (Algorithm 5): given G_i, the cover V_{i+1}, and the SCC
// labels SCC_{i+1} of all surviving nodes, computes SCC_i — labels for
// every node of G_i.
//
// For each removed node v (Lemmas 6.1-6.4):
//   SCC(v) = the unique common label of SCC(nbr_in(v)) ∩ SCC(nbr_out(v))
//            when that intersection is non-empty (Lemma 6.2 proves it has
//            at most one element), else a fresh singleton label.
//
// Pipeline (the `augment` procedure of Alg. 5, run once per direction):
//   in-side : E_in ✶ V_{i+1} keeps in-edges of removed nodes; re-sort by
//             tail; ✶ SCC_{i+1} attaches the tail's label; re-sort by
//             (removed node, label) and dedup — a sorted stream of
//             (v, label of an in-neighbour).
//   out-side: symmetric on E_out (the paper reverses E_i and reuses
//             augment; same computation).
//   Tails/heads that are not in SCC_{i+1} were removed in the same
//   iteration; such edges are incident to Type-1 singletons and cannot
//   witness an SCC, so they are skipped.
//   Finally the two streams are intersected per removed node — driven by
//   the removed-node file so nodes with no incident edges also get their
//   singleton label — and merged with SCC_{i+1} (lines 4-6).
#ifndef EXTSCC_CORE_EXPANSION_H_
#define EXTSCC_CORE_EXPANSION_H_

#include <cstdint>
#include <string>

#include "graph/graph_types.h"
#include "io/io_context.h"

namespace extscc::core {

struct ExpansionResult {
  std::string scc_path;  // SCC_i, sorted by node id
  std::uint64_t removed_in_existing_scc = 0;  // joined a surviving SCC
  std::uint64_t removed_singletons = 0;       // fresh singleton SCCs
};

// `ein_path`/`eout_path`: G_i's edges sorted by (dst,src) / (src,dst).
// `cover_path`: V_{i+1} sorted unique; `removed_path`: V_i - V_{i+1}
// sorted unique; `scc_next_path`: SCC_{i+1} sorted by node.
// Fresh singleton labels are allocated from *next_scc_id.
// `scc_output` (optional) names the file to write SCC_i to — the driver
// passes its final output path for the outermost level so SCC_1 is
// emitted in place instead of being copied out of scratch; when empty, a
// scratch path is allocated and returned in ExpansionResult::scc_path.
ExpansionResult ExpandLevel(io::IoContext* context,
                            const std::string& ein_path,
                            const std::string& eout_path,
                            const std::string& cover_path,
                            const std::string& removed_path,
                            const std::string& scc_next_path,
                            graph::SccId* next_scc_id,
                            const std::string& scc_output = "");

}  // namespace extscc::core

#endif  // EXTSCC_CORE_EXPANSION_H_
