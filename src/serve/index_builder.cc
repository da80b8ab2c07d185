#include "serve/index_builder.h"

#include <numeric>
#include <vector>

#include "app/bowtie.h"
#include "app/interval_labels.h"
#include "core/canonical_labels.h"
#include "extsort/record_sink.h"
#include "graph/digraph.h"
#include "io/record_stream.h"
#include "scc/condensation.h"

namespace extscc::serve {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccEntry;

// build-index's interval labeling. An updated artifact keeps the rounds
// and seed its summary records.
constexpr std::uint32_t kLabelRounds = 3;
constexpr std::uint64_t kLabelSeed = 1;

}  // namespace

ArtifactSummary WriteDerivedSections(ArtifactWriter* writer,
                                     const std::vector<Edge>& dag_edges,
                                     const std::vector<std::uint64_t>& sizes,
                                     std::uint64_t graph_edges,
                                     std::uint32_t label_rounds,
                                     std::uint64_t label_seed) {
  std::vector<NodeId> dag_nodes(sizes.size());
  std::iota(dag_nodes.begin(), dag_nodes.end(), 0);
  const app::IntervalLabels labels = app::IntervalLabels::Build(
      graph::Digraph(dag_nodes, dag_edges), label_rounds, label_seed);
  const std::size_t dag_n = dag_nodes.size();

  ArtifactSummary summary{};
  summary.graph_edges = graph_edges;
  summary.num_sccs = sizes.size();
  summary.dag_nodes = sizes.size();
  summary.dag_edges = dag_edges.size();
  summary.num_label_rounds = label_rounds;
  summary.label_seed = label_seed;
  summary.largest_scc = graph::kInvalidScc;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    summary.graph_nodes += sizes[s];
    if (sizes[s] > summary.largest_scc_size) {
      summary.largest_scc_size = sizes[s];
      summary.largest_scc = static_cast<graph::SccId>(s);
    }
    if (sizes[s] == 1) ++summary.num_singletons;
  }
  // A node reaches the core iff its SCC does, so two BFS sweeps over the
  // resident DAG give BowtieDecompose's region sizes exactly.
  const app::DagBowtieSizes bowtie =
      app::BowtieSizesFromDag(labels.dag(), sizes, summary.largest_scc);
  summary.bowtie_computed = 1;
  summary.core_scc = summary.largest_scc;
  summary.core_size = bowtie.core_size;
  summary.in_size = bowtie.in_size;
  summary.out_size = bowtie.out_size;
  summary.other_size = bowtie.other_size;

  {
    auto sink = writer->BeginSection<NodeId>(SectionId::kDagNodes);
    sink.AppendBatch(dag_nodes.data(), dag_n);
    writer->EndSection();
  }
  {
    auto sink = writer->BeginSection<Edge>(SectionId::kDagEdges);
    sink.AppendBatch(dag_edges.data(), dag_edges.size());
    writer->EndSection();
  }
  {
    auto sink = writer->BeginSection<std::uint32_t>(SectionId::kLabelRanks);
    for (std::uint32_t r = 0; r < label_rounds; ++r) {
      sink.AppendBatch(labels.ranks(r).data(), dag_n);
    }
    writer->EndSection();
  }
  {
    auto sink = writer->BeginSection<std::uint32_t>(SectionId::kLabelMins);
    for (std::uint32_t r = 0; r < label_rounds; ++r) {
      sink.AppendBatch(labels.mins(r).data(), dag_n);
    }
    writer->EndSection();
  }
  {
    auto sink = writer->BeginSection<std::uint64_t>(SectionId::kSccSizes);
    sink.AppendBatch(sizes.data(), sizes.size());
    writer->EndSection();
  }
  {
    auto sink = writer->BeginSection<ArtifactSummary>(SectionId::kSummary);
    sink.Append(summary);
    writer->EndSection();
  }
  return summary;
}

util::Result<BuildArtifactResult> BuildArtifact(
    io::IoContext* context, const graph::DiskGraph& g,
    const std::string& artifact_path) {
  if (g.num_nodes == 0) {
    return util::Status::InvalidArgument(
        "cannot build a serve artifact over an empty graph");
  }
  BuildArtifactResult result;

  // 1. The expensive out-of-core step: Ext-SCC labels, node-sorted.
  const std::string raw_scc_path = context->NewTempPath("serve_scc");
  {
    auto solved = core::RunExtScc(context, g, raw_scc_path,
                                  core::ExtSccOptions::Optimized());
    RETURN_IF_ERROR(solved.status());
    result.solve_stats = solved.value();
  }

  // 2. Canonicalize: the solver's label VALUES depend on its internal
  // traversal order, so rewrite them dense-by-first-occurrence in node
  // order. Every artifact section downstream is then a pure function of
  // the graph — the property that lets the incremental updater
  // (src/dyn/) produce artifacts byte-identical to a full re-solve.
  const std::string scc_path = context->NewTempPath("serve_canon");
  RETURN_IF_ERROR(core::CanonicalizeLabels(
      context, raw_scc_path, result.solve_stats.num_sccs, scc_path));

  // 3. Condensation edges, loaded resident (small by construction). The
  // labels are dense, so the DAG's nodes are exactly 0..S-1.
  const auto condensation = scc::BuildCondensation(context, g, scc_path);
  const auto dag_edges =
      io::ReadAllRecords<Edge>(context, condensation.dag.edge_path);

  // 4. Stream the map into "<path>.tmp", counting SCC sizes on the way,
  // then the derived sections; publish by validated durable rename, so
  // a build killed or faulted mid-write never leaves a torn file at
  // the artifact path.
  const std::string tmp_path = artifact_path + ".tmp";
  const util::Status written = [&]() -> util::Status {
    ArtifactWriter writer(context, tmp_path);
    RETURN_IF_ERROR(writer.status());
    std::vector<std::uint64_t> sizes(result.solve_stats.num_sccs, 0);
    bool in_range = true;
    auto section = writer.BeginSection<SccEntry>(SectionId::kNodeSccMap);
    auto counting = extsort::MakeCallbackSink<SccEntry>(
        [&](const SccEntry& entry) {
          if (entry.scc < sizes.size()) {
            ++sizes[entry.scc];
          } else {
            in_range = false;
          }
          section.Append(entry);
        });
    util::Status read_status;
    const std::uint64_t streamed = extsort::SinkAppendAllRecords<SccEntry>(
        context, scc_path, counting, &read_status);
    RETURN_IF_ERROR(read_status);
    if (streamed != g.num_nodes || !in_range) {
      return util::Status::Corruption(
          "solver label file does not cover the graph");
    }
    writer.EndSection();
    result.summary = WriteDerivedSections(&writer, dag_edges, sizes,
                                          g.num_edges, kLabelRounds,
                                          kLabelSeed);
    return writer.Finish();
  }();
  if (!written.ok()) {
    (void)context->ResolveDevice(tmp_path)->Delete(tmp_path);
    return written;
  }
  RETURN_IF_ERROR(
      ArtifactReader::Publish(context, tmp_path, artifact_path).status());
  return result;
}

}  // namespace extscc::serve
