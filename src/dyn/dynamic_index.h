// Incremental SCC maintenance under edge-insert batches (the dynamic
// subsystem — docs/dynamic.md). The persisted state is exactly the
// PR 7 serve artifact (node→SCC map on disk; condensation DAG,
// interval labels, sizes, summary resident) plus the sidecar
// pending-edge count (delta_log.h). Inserts can only MERGE SCCs — the
// merge-only direction of dynamic SCC — so a batch is maintained as:
//
//   1. translate endpoints to SCC ids with one same-SCC query per edge
//      through serve::QueryEngine::RunBatch: one sorted probe pass +
//      ONE sequential sweep of the node→SCC map section (the only I/O
//      proportional to |V|);
//   2. classify each edge: intra-SCC or duplicating an existing
//      condensation edge → no structural change; otherwise it is a new
//      condensation edge (a "backward" one closes a cycle);
//   3. a batch with no new nodes and no new condensation edges adds its
//      size to the sidecar's pending-edge count (one durably replaced
//      block) and returns — no artifact rewrite;
//   4. otherwise run the localized merge pass IN MEMORY on the
//      condensation DAG (resident by construction: the artifact loads
//      it on open): Tarjan over old-DAG ∪ new edges finds the merged
//      components, and a single merge-scan of the old map (+ sorted
//      new nodes) writes the new node→SCC map with canonical
//      first-occurrence labels into "<path>.tmp" under a bumped data
//      version; serve::WriteDerivedSections, the same call build-index
//      makes, writes every derived section (DAG, interval labels,
//      sizes, summary, bow-tie) from the new condensation;
//   5. publish through serve::ArtifactReader::Publish: a full reader
//      open + map sweep of the candidate, then one durable rename over
//      the old version. A crash or fault before the rename leaves the
//      old version live, never a torn artifact; the validated reader
//      becomes the live one, so nothing after the rename can fail the
//      batch.
//
// Because build-index writes canonical labels (core/canonical_labels.h)
// and every derived section is a deterministic function of the graph,
// the artifact after a rewrite is BYTE-IDENTICAL to build-index over
// the union graph — the oracle the tests pin.
//
// Cost per batch (b edges, map of m blocks, r blocks of resident
// sections): the translate sweep is <= m sequential block reads; a
// non-structural batch adds one block write, however many edges are
// pending; a structural rewrite adds the merge-scan (m reads), the new
// artifact (m + r writes) and its validation (m + r reads) — still far
// below a full re-solve, which pays the multi-pass contraction/expansion
// hierarchy on the EDGE file (edges >> nodes on web-like graphs).
#ifndef EXTSCC_DYN_DYNAMIC_INDEX_H_
#define EXTSCC_DYN_DYNAMIC_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_types.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "util/status.h"

namespace extscc::dyn {

struct UpdateBatchStats {
  std::uint64_t edges_in = 0;
  std::uint64_t intra_scc = 0;       // endpoints already in one SCC
  std::uint64_t duplicate_dag = 0;   // (scc_u, scc_v) already a DAG edge
  std::uint64_t new_dag_edges = 0;   // edges needing a structural pass
  std::uint64_t new_nodes = 0;       // endpoints the artifact never saw
  std::uint64_t merge_groups = 0;    // cycles closed (merged components)
  std::uint64_t merged_sccs = 0;     // old/new SCCs consumed by merges
  std::uint64_t swept_blocks = 0;    // map blocks read translating endpoints
  std::uint64_t batch_ios = 0;       // total model block I/Os of the batch
  bool rewrote_artifact = false;
  std::uint64_t published_version = 0;  // live data version after the batch
};

class DynamicSccIndex {
 public:
  // Opens the artifact at `artifact_path` plus its pending-edge count
  // (a missing or stale sidecar = nothing pending). The artifact must
  // live on a device supporting Rename (every device model does).
  static util::Result<DynamicSccIndex> Open(io::IoContext* context,
                                            const std::string& artifact_path);

  DynamicSccIndex(DynamicSccIndex&&) = default;
  DynamicSccIndex& operator=(DynamicSccIndex&&) = default;

  // Applies one insert batch (duplicate edges and self-loops welcome).
  // On success the on-disk state reflects the batch: either the
  // pending-edge count grew (no structural change) or a bumped artifact
  // version was published atomically. On error the previously published
  // version and count are still live and intact — the failed attempt's
  // temp file is removed.
  util::Result<UpdateBatchStats> ApplyBatch(
      const std::vector<graph::Edge>& batch);

  // The live artifact reader (the validated candidate of the last
  // published rewrite).
  const serve::ArtifactReader& reader() const { return *reader_; }
  std::uint64_t data_version() const { return reader_->data_version(); }
  // Edges applied but not yet folded into the artifact (the sidecar
  // count). Invariant: reader().summary().graph_edges +
  // pending_delta_edges() == edges of the union graph.
  std::uint64_t pending_delta_edges() const { return pending_edges_; }
  const std::string& path() const { return path_; }

 private:
  DynamicSccIndex() = default;

  io::IoContext* context_ = nullptr;
  std::string path_;
  std::optional<serve::ArtifactReader> reader_;
  std::uint64_t pending_edges_ = 0;
};

}  // namespace extscc::dyn

#endif  // EXTSCC_DYN_DYNAMIC_INDEX_H_
