// GRAIL-style randomized interval labels over a condensation DAG
// (Yildirim, Chaoji, Zaki — the paper's [25]): k independent random
// post-order traversals, each assigning node x the interval
// [min-rank-in-subtree(x), rank(x)]. Interval containment is a
// necessary condition for reachability, so any round whose intervals
// do NOT nest refutes a query immediately; nested rounds fall back to
// a pruned DFS.
//
// This is the serve artifact's resident query core (built once by
// serve::WriteDerivedSections, reassembled by every ArtifactReader::Open):
// it owns the DAG plus the label arrays and nothing else.
// Every query method is const and touches only per-call state, so one
// IntervalLabels may serve concurrent reader threads; callers that
// want the hit/refutation breakdown pass their own counters.
#ifndef EXTSCC_APP_INTERVAL_LABELS_H_
#define EXTSCC_APP_INTERVAL_LABELS_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/graph_types.h"
#include "util/status.h"

namespace extscc::app {

// Per-call query breakdown (the caller owns and aggregates these —
// the labels themselves hold no mutable state).
struct IntervalLabelCounters {
  std::uint64_t queries = 0;
  std::uint64_t same_scc_hits = 0;        // answered by label equality
  std::uint64_t interval_refutations = 0;  // answered by non-nesting
  std::uint64_t dfs_fallbacks = 0;         // needed a pruned DFS
};

class IntervalLabels {
 public:
  // Empty labels over an empty DAG.
  IntervalLabels();

  // Builds `num_rounds` independent random labelings over `dag`
  // (random root order, random child order, post-order ranks).
  // Requires num_rounds >= 1.
  static IntervalLabels Build(graph::Digraph dag, std::uint32_t num_rounds,
                              std::uint64_t seed);

  // Reassembles labels from serialized parts (the serve artifact
  // reader). Each of `ranks` and `mins` must hold num_rounds vectors
  // of dag.num_nodes() entries with num_rounds >= 1; shape mismatches
  // return kInvalidArgument (readers of untrusted bytes map this to
  // their corruption handling).
  static util::Result<IntervalLabels> FromParts(
      graph::Digraph dag, std::vector<std::vector<std::uint32_t>> ranks,
      std::vector<std::vector<std::uint32_t>> mins);

  // True iff SCC `from` reaches SCC `to` in the DAG. Both must be
  // nodes of the DAG (CHECK otherwise). Thread-safe: const, per-call
  // scratch only.
  bool SccReachable(graph::SccId from, graph::SccId to,
                    IntervalLabelCounters* counters = nullptr) const;

  const graph::Digraph& dag() const { return dag_; }
  std::uint32_t num_rounds() const {
    return static_cast<std::uint32_t>(ranks_.size());
  }
  // Serialization accessors: round r's post-order ranks / subtree
  // minima, indexed by dense DAG node index.
  const std::vector<std::uint32_t>& ranks(std::size_t round) const {
    return ranks_[round];
  }
  const std::vector<std::uint32_t>& mins(std::size_t round) const {
    return mins_[round];
  }

 private:
  // Necessary condition for from -> to in every round:
  // [min(to), rank(to)] subset of [min(from), rank(from)].
  bool IntervalsNest(std::size_t from_idx, std::size_t to_idx) const;

  graph::Digraph dag_;
  std::vector<std::vector<std::uint32_t>> ranks_;
  std::vector<std::vector<std::uint32_t>> mins_;
};

}  // namespace extscc::app

#endif  // EXTSCC_APP_INTERVAL_LABELS_H_
