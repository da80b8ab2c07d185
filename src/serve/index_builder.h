// build-index: one Ext-SCC solve persisted as a serve artifact, and the
// section assembly every artifact writer shares.
//
// BuildArtifact runs the full pipeline — RunExtScc (node→SCC labels),
// canonical relabelling, condensation — streams the node→SCC map into
// an ArtifactWriter while counting SCC sizes, hands the condensation
// to WriteDerivedSections, and publishes through
// ArtifactReader::Publish. The incremental updater (src/dyn/) writes
// its own map and then calls the same two helpers, which is why its
// artifacts are byte-identical to a rebuild. Solve once, answer query
// traffic forever after at scan bandwidth (query_engine.h).
#ifndef EXTSCC_SERVE_INDEX_BUILDER_H_
#define EXTSCC_SERVE_INDEX_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ext_scc.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "serve/artifact_format.h"
#include "util/status.h"

namespace extscc::serve {

struct BuildArtifactResult {
  core::ExtSccStats solve_stats;
  ArtifactSummary summary{};
};

// Solves `g` and publishes the artifact at `artifact_path` (any path;
// its storage device is resolved like every other file) with data
// version 0 and 3 interval-label rounds seeded 1. Intermediate scratch
// lives and dies in `context`'s temp space.
util::Result<BuildArtifactResult> BuildArtifact(
    io::IoContext* context, const graph::DiskGraph& g,
    const std::string& artifact_path);

// Writes every section after the node→SCC map for a condensation with
// dense labels (DAG nodes 0..S-1, S = sizes.size(), `sizes[s]` = nodes
// in SCC s): `dag_edges` (sorted, loop-free, deduplicated), interval
// labels (`label_rounds` rounds seeded `label_seed`), the size table and
// the summary — largest SCC (lowest label on a tie), singletons, and the
// bow-tie around the largest SCC from app::BowtieSizesFromDag;
// `graph_edges` is the raw edge count it reports. Returns the summary;
// write errors are sticky in the writer and surface at Finish.
ArtifactSummary WriteDerivedSections(ArtifactWriter* writer,
                                     const std::vector<graph::Edge>& dag_edges,
                                     const std::vector<std::uint64_t>& sizes,
                                     std::uint64_t graph_edges,
                                     std::uint32_t label_rounds,
                                     std::uint64_t label_seed);

}  // namespace extscc::serve

#endif  // EXTSCC_SERVE_INDEX_BUILDER_H_
