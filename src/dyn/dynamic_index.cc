#include "dyn/dynamic_index.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dyn/delta_log.h"
#include "extsort/record_traits.h"
#include "graph/digraph.h"
#include "scc/tarjan.h"
#include "serve/artifact_format.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "util/logging.h"

namespace extscc::dyn {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccEntry;
using graph::SccId;
using serve::ArtifactSummary;
using serve::SectionId;

}  // namespace

util::Result<DynamicSccIndex> DynamicSccIndex::Open(
    io::IoContext* context, const std::string& artifact_path) {
  // GC a "<path>.tmp" orphaned by an updater that died between writing
  // the candidate and renaming it: it was never published, so removing
  // it is always safe — and only the updater may do this (a serving
  // process must not, or it would race a LIVE updater's publish).
  // Delete ignores missing files on every device.
  (void)context->ResolveDevice(artifact_path)->Delete(artifact_path + ".tmp");
  (void)context->ResolveDevice(artifact_path)
      ->Delete(DeltaLogPathFor(artifact_path) + ".tmp");
  auto reader = serve::ArtifactReader::Open(context, artifact_path);
  RETURN_IF_ERROR(reader.status());
  DynamicSccIndex index;
  index.context_ = context;
  index.path_ = artifact_path;
  index.reader_.emplace(std::move(reader).value());
  // Dense-label invariant the whole updater leans on: condensation node
  // ids are exactly 0..S-1 in order, so a DAG node's dense index IS its
  // SCC id (RunExtScc labels densely; canonicalization keeps density).
  const graph::Digraph& dag = index.reader_->labels().dag();
  for (std::size_t s = 0; s < dag.num_nodes(); ++s) {
    if (dag.id_of(s) != s) {
      return util::Status::Corruption(
          "artifact condensation labels are not dense");
    }
  }
  auto pending = ReadDeltaLog(context, DeltaLogPathFor(artifact_path),
                              index.reader_->data_version());
  RETURN_IF_ERROR(pending.status());
  index.pending_edges_ = pending.value().pending_edges;
  return index;
}

util::Result<UpdateBatchStats> DynamicSccIndex::ApplyBatch(
    const std::vector<Edge>& batch) {
  UpdateBatchStats stats;
  stats.edges_in = batch.size();
  stats.published_version = reader_->data_version();
  if (batch.empty()) return stats;
  const io::IoStats before = context_->stats();

  // 1. Translate endpoints to SCC ids: one same-SCC query per edge, so
  // the query engine's sort-sweep resolves both endpoints (probe slots
  // 2i and 2i + 1) against ONE sequential sweep of the node-sorted map.
  std::vector<serve::Query> queries(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    queries[i] = {serve::QueryType::kSameScc, batch[i].src, batch[i].dst};
  }
  std::vector<serve::QueryAnswer> resolved(batch.size());
  {
    serve::QueryBatchStats query_stats;
    RETURN_IF_ERROR(serve::QueryEngine(&*reader_).RunBatch(
        context_, queries.data(), queries.size(), resolved.data(),
        &query_stats));
    stats.swept_blocks = query_stats.swept_blocks;
  }

  // 2. Unseen endpoints become provisional singleton SCCs, ids
  // S_old + rank in sorted node order.
  const SccId old_sccs = static_cast<SccId>(reader_->num_sccs());
  std::vector<NodeId> new_nodes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (resolved[i].scc_u == graph::kInvalidScc) {
      new_nodes.push_back(batch[i].src);
    }
    if (resolved[i].scc_v == graph::kInvalidScc) {
      new_nodes.push_back(batch[i].dst);
    }
  }
  std::sort(new_nodes.begin(), new_nodes.end());
  new_nodes.erase(std::unique(new_nodes.begin(), new_nodes.end()),
                  new_nodes.end());
  stats.new_nodes = new_nodes.size();
  const auto provisional_of = [&](NodeId node) {
    const auto it =
        std::lower_bound(new_nodes.begin(), new_nodes.end(), node);
    DCHECK(it != new_nodes.end() && *it == node);
    return static_cast<SccId>(old_sccs + (it - new_nodes.begin()));
  };

  // 3. Classify each edge against the resident condensation.
  const graph::Digraph& dag = reader_->labels().dag();
  std::unordered_set<std::uint64_t> dag_edge_keys;
  dag_edge_keys.reserve(2 * dag.num_edges());
  for (std::size_t s = 0; s < dag.num_nodes(); ++s) {
    for (const std::uint32_t t : dag.out_neighbors(s)) {
      dag_edge_keys.insert(
          extsort::PackKey64(static_cast<std::uint32_t>(s), t));
    }
  }
  std::vector<Edge> new_inter;  // over provisional SCC ids
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SccId su = resolved[i].scc_u != graph::kInvalidScc
                         ? resolved[i].scc_u
                         : provisional_of(batch[i].src);
    const SccId sv = resolved[i].scc_v != graph::kInvalidScc
                         ? resolved[i].scc_v
                         : provisional_of(batch[i].dst);
    if (su == sv) {
      ++stats.intra_scc;
    } else if (dag_edge_keys.count(extsort::PackKey64(su, sv)) > 0) {
      ++stats.duplicate_dag;
    } else {
      new_inter.push_back(Edge{su, sv});
      ++stats.new_dag_edges;
    }
  }

  // 4. The cheap path: nothing structural — every edge is intra-SCC or
  // duplicates a condensation edge, so the partition, the DAG, and
  // every label are already correct. Durably replace the pending-edge
  // count (keeping the union edge count reconstructible) and stop; the
  // in-memory count moves only once the new one is published.
  if (new_nodes.empty() && new_inter.empty()) {
    const std::uint64_t pending = pending_edges_ + batch.size();
    RETURN_IF_ERROR(WriteDeltaLog(context_, DeltaLogPathFor(path_),
                                  reader_->data_version(), pending));
    pending_edges_ = pending;
    stats.batch_ios = (context_->stats() - before).total_ios();
    return stats;
  }

  // 5. Localized merge pass, in memory on the condensation: Tarjan over
  // old DAG ∪ new inter-SCC edges. A new "forward" edge only appears in
  // the DAG; a "backward" one closes a cycle and its component merges.
  const SccId num_provisional =
      old_sccs + static_cast<SccId>(new_nodes.size());
  std::vector<Edge> h_edges;
  h_edges.reserve(dag.num_edges() + new_inter.size());
  for (std::size_t s = 0; s < dag.num_nodes(); ++s) {
    for (const std::uint32_t t : dag.out_neighbors(s)) {
      h_edges.push_back(Edge{static_cast<NodeId>(s), t});
    }
  }
  h_edges.insert(h_edges.end(), new_inter.begin(), new_inter.end());
  std::vector<SccId> comp;
  SccId num_comps = 0;
  {
    std::vector<NodeId> h_nodes(num_provisional);
    std::iota(h_nodes.begin(), h_nodes.end(), 0);
    const graph::Digraph merged(std::move(h_nodes), h_edges);
    // merged's ids are 0..P-1, so its dense index == provisional id.
    comp = scc::TarjanSccDense(merged, &num_comps);
  }
  {
    std::vector<std::uint32_t> members(num_comps, 0);
    for (const SccId c : comp) ++members[c];
    for (const std::uint32_t m : members) {
      if (m >= 2) {
        ++stats.merge_groups;
        stats.merged_sccs += m;
      }
    }
  }

  // 6. Rewrite the node→SCC map into "<path>.tmp" with a bumped data
  // version. Canonical labels are assigned by first occurrence in node
  // order during the single merge-scan of the old map + sorted new
  // nodes — exactly what build-index writes for the union graph, byte
  // for byte — and every derived section comes from the same
  // serve::WriteDerivedSections build-index calls.
  const std::uint64_t new_version = reader_->data_version() + 1;
  const std::string tmp_path = path_ + ".tmp";
  const ArtifactSummary& old_summary = reader_->summary();
  const util::Status written = [&]() -> util::Status {
    serve::ArtifactWriter writer(context_, tmp_path, new_version);
    RETURN_IF_ERROR(writer.status());
    std::vector<SccId> canon(num_comps, graph::kInvalidScc);
    std::vector<std::uint64_t> sizes;
    sizes.reserve(num_comps);
    {
      auto sink = writer.BeginSection<SccEntry>(SectionId::kNodeSccMap);
      serve::SccMapScanner scanner = reader_->OpenNodeSccScan();
      SccEntry cur{};
      bool have = scanner.Next(&cur);
      std::size_t new_at = 0;
      while (have || new_at < new_nodes.size()) {
        SccEntry entry;
        if (have &&
            (new_at == new_nodes.size() || cur.node < new_nodes[new_at])) {
          entry = cur;
          have = scanner.Next(&cur);
        } else {
          entry = SccEntry{new_nodes[new_at],
                           static_cast<SccId>(old_sccs + new_at)};
          ++new_at;
        }
        SccId& mapped = canon[comp[entry.scc]];
        if (mapped == graph::kInvalidScc) {
          mapped = static_cast<SccId>(sizes.size());
          sizes.push_back(0);
        }
        ++sizes[mapped];
        sink.Append(SccEntry{entry.node, mapped});
      }
      RETURN_IF_ERROR(scanner.status());
      writer.EndSection();
    }
    // Every component holds at least one node, so the scan assigned
    // every canonical label.
    CHECK_EQ(sizes.size(), num_comps);

    // Condensation edges over canonical labels: sorted by (src, dst),
    // loops dropped, dedupped — BuildCondensation's exact byte layout.
    std::vector<Edge> dag_edges;
    dag_edges.reserve(h_edges.size());
    for (const Edge& e : h_edges) {
      const SccId a = canon[comp[e.src]];
      const SccId b = canon[comp[e.dst]];
      if (a != b) dag_edges.push_back(Edge{a, b});
    }
    std::sort(dag_edges.begin(), dag_edges.end(), graph::EdgeBySrc{});
    dag_edges.erase(std::unique(dag_edges.begin(), dag_edges.end()),
                    dag_edges.end());
    // Raw (pre-dedup) union edge count: the folded pending edges plus
    // this batch, matching DiskGraph::num_edges of the union edge file.
    serve::WriteDerivedSections(
        &writer, dag_edges, sizes,
        old_summary.graph_edges + pending_edges_ + batch.size(),
        old_summary.num_label_rounds, old_summary.label_seed);
    return writer.Finish();
  }();
  if (!written.ok()) {
    (void)context_->ResolveDevice(tmp_path)->Delete(tmp_path);
    return written;
  }

  // 7. Validate the candidate end to end and durably rename it over the
  // live version. A version is only ever published after it proved
  // readable, and the validated reader is the one served from here on:
  // nothing after the rename can fail the batch.
  auto published = serve::ArtifactReader::Publish(context_, tmp_path, path_);
  RETURN_IF_ERROR(published.status());

  // 8. Published. The pending edges are folded into the new version;
  // drop the sidecar (stale-by-version even if the delete fails).
  RemoveDeltaLog(context_, DeltaLogPathFor(path_));
  reader_.emplace(std::move(published).value());
  pending_edges_ = 0;

  stats.rewrote_artifact = true;
  stats.published_version = new_version;
  stats.batch_ios = (context_->stats() - before).total_ios();
  return stats;
}

}  // namespace extscc::dyn
