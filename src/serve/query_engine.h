// Batched queries over an open serve artifact: same-SCC membership,
// reachability, and per-component statistics.
//
// The engine answers a batch with the engine's own sort-then-sweep
// idiom instead of one seek per query: every queried endpoint becomes a
// NodeProbe keyed by node id, the probes are sorted (SortingWriter — in
// budget this is a pure in-memory sort), and the whole batch resolves
// its node→SCC lookups in ONE merge sweep of the artifact's node-sorted
// map section. Per-batch block I/O is therefore bounded by the section
// size — sublinear in batch count, countable in IoStats — and
// reachability then resolves on the small resident interval labels with
// zero further I/O.
//
// RunBatch is const and touches only per-call state; one QueryEngine
// over one immutable artifact serves N reader threads concurrently
// (each batch opens its own SccMapScanner / file handle).
//
// A node the artifact never labelled yields known=false — never a
// made-up answer; a corrupt section surfaces as kCorruption for the
// whole batch.
#ifndef EXTSCC_SERVE_QUERY_ENGINE_H_
#define EXTSCC_SERVE_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>

#include "app/interval_labels.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "util/status.h"

namespace extscc::serve {

enum class QueryType : std::uint8_t {
  kSameScc = 0,    // are u and v in the same SCC?
  kReachable = 1,  // does u reach v?
  kSccStat = 2,    // SCC label and size of u
};

struct Query {
  QueryType type = QueryType::kSameScc;
  graph::NodeId u = 0;
  graph::NodeId v = 0;  // unused for kSccStat
};

struct QueryAnswer {
  // Every queried endpoint was labelled at build time. When false the
  // verdict fields are meaningless (and result is false) — unknown
  // nodes are reported, not guessed.
  bool known = false;
  bool result = false;  // same-SCC / reachability verdict
  graph::SccId scc_u = graph::kInvalidScc;
  graph::SccId scc_v = graph::kInvalidScc;
  std::uint64_t scc_size = 0;  // kSccStat: |SCC(u)|
};

struct QueryBatchStats {
  std::uint64_t queries = 0;
  std::uint64_t probes = 0;         // endpoint lookups submitted
  std::uint64_t unknown_nodes = 0;  // queries with an unlabelled endpoint
  std::uint64_t swept_blocks = 0;   // node→SCC blocks read (<= section)
  std::uint64_t probe_spill_runs = 0;  // probe sorts that left memory
  app::IntervalLabelCounters labels;   // reachability breakdown

  QueryBatchStats& operator+=(const QueryBatchStats& other);
};

class QueryEngine {
 public:
  // The artifact must outlive the engine and is never mutated.
  explicit QueryEngine(const ArtifactReader* artifact)
      : artifact_(artifact) {}

  // Answers queries[0..n) into answers[0..n) (caller-allocated).
  // Thread-safe; each call sorts and sweeps independently.
  util::Status RunBatch(io::IoContext* context, const Query* queries,
                        std::size_t n, QueryAnswer* answers,
                        QueryBatchStats* stats = nullptr) const;

  const ArtifactReader& artifact() const { return *artifact_; }

 private:
  const ArtifactReader* artifact_;
};

}  // namespace extscc::serve

#endif  // EXTSCC_SERVE_QUERY_ENGINE_H_
