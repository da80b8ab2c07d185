#include "serve/query_engine.h"

#include <vector>

#include "extsort/external_sorter.h"
#include "extsort/record_sink.h"
#include "extsort/record_traits.h"
#include "util/logging.h"

namespace extscc::serve {

namespace {

// One endpoint occurrence of a batch: sorted by node for the sweep,
// slot routes the resolved label back to its query.
struct NodeProbe {
  graph::NodeId node = 0;
  std::uint32_t slot = 0;  // query_index * 2 + (0 for u, 1 for v)
};

struct NodeProbeByNode {
  static std::uint64_t KeyOf(const NodeProbe& p) {
    return extsort::PackKey64(p.node, p.slot);
  }
  bool operator()(const NodeProbe& a, const NodeProbe& b) const {
    return KeyOf(a) < KeyOf(b);
  }
};

}  // namespace

QueryBatchStats& QueryBatchStats::operator+=(const QueryBatchStats& other) {
  queries += other.queries;
  probes += other.probes;
  unknown_nodes += other.unknown_nodes;
  swept_blocks += other.swept_blocks;
  probe_spill_runs += other.probe_spill_runs;
  labels.queries += other.labels.queries;
  labels.same_scc_hits += other.labels.same_scc_hits;
  labels.interval_refutations += other.labels.interval_refutations;
  labels.dfs_fallbacks += other.labels.dfs_fallbacks;
  return *this;
}

util::Status QueryEngine::RunBatch(io::IoContext* context,
                                   const Query* queries, std::size_t n,
                                   QueryAnswer* answers,
                                   QueryBatchStats* stats) const {
  QueryBatchStats local_stats;
  QueryBatchStats& st = stats != nullptr ? *stats : local_stats;
  st.queries += n;
  if (n == 0) return util::Status::Ok();

  // Probe slots: query i resolves SCC(u) into 2i, SCC(v) into 2i + 1.
  std::vector<graph::SccId> resolved(2 * n, graph::kInvalidScc);
  extsort::SortingWriter<NodeProbe, NodeProbeByNode> sorter(context,
                                                            NodeProbeByNode{});
  for (std::size_t i = 0; i < n; ++i) {
    const Query& q = queries[i];
    sorter.Append({q.u, static_cast<std::uint32_t>(2 * i)});
    ++st.probes;
    if (q.type != QueryType::kSccStat) {
      sorter.Append({q.v, static_cast<std::uint32_t>(2 * i + 1)});
      ++st.probes;
    }
  }

  // One merge sweep: probes drain out of the sort in node order while
  // the scanner walks the node-sorted map section once. The sweep
  // early-exits its reads when the last probe resolves.
  SccMapScanner scanner = artifact_->OpenNodeSccScan();
  graph::SccEntry cur{};
  bool have = scanner.Next(&cur);
  auto sink = extsort::MakeCallbackSink<NodeProbe>([&](const NodeProbe& p) {
    while (have && cur.node < p.node) have = scanner.Next(&cur);
    if (have && cur.node == p.node) resolved[p.slot] = cur.scc;
  });
  auto sort_info = sorter.FinishInto(sink);
  RETURN_IF_ERROR(sort_info.status);
  RETURN_IF_ERROR(scanner.status());
  st.swept_blocks += scanner.blocks_read();
  // An in-budget probe sort stays resident and reports one (or zero)
  // runs; only an overflow spills, and a spill always forms >= 2.
  if (sort_info.num_runs > 1) st.probe_spill_runs += sort_info.num_runs;

  // Resolve the batch on the resident structures — no further I/O.
  const app::IntervalLabels& labels = artifact_->labels();
  for (std::size_t i = 0; i < n; ++i) {
    const Query& q = queries[i];
    QueryAnswer& a = answers[i];
    a = QueryAnswer{};
    a.scc_u = resolved[2 * i];
    a.scc_v = resolved[2 * i + 1];
    switch (q.type) {
      case QueryType::kSccStat:
        a.known = a.scc_u != graph::kInvalidScc;
        a.result = a.known;
        if (a.known) a.scc_size = artifact_->scc_size(a.scc_u);
        break;
      case QueryType::kSameScc:
        a.known = a.scc_u != graph::kInvalidScc &&
                  a.scc_v != graph::kInvalidScc;
        a.result = a.known && a.scc_u == a.scc_v;
        break;
      case QueryType::kReachable:
        a.known = a.scc_u != graph::kInvalidScc &&
                  a.scc_v != graph::kInvalidScc;
        a.result =
            a.known && labels.SccReachable(a.scc_u, a.scc_v, &st.labels);
        break;
    }
    if (!a.known) ++st.unknown_nodes;
  }
  return util::Status::Ok();
}

}  // namespace extscc::serve
