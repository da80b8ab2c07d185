#include "core/ext_scc.h"

#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "core/contraction.h"
#include "core/expansion.h"
#include "core/vertex_cover.h"
#include "graph/edge_file.h"
#include "graph/node_file.h"
#include "io/record_stream.h"
#include "util/logging.h"
#include "util/timer.h"

namespace extscc::core {

namespace {

using graph::DiskGraph;

// Polled between phases (and once per contraction/expansion level): the
// storage layer never aborts on an I/O failure — errors park in stream
// statuses and the context's first-error latch while the affected sort
// drains as truncated (error-as-EOF, see block_file.h) — so the driver
// is where a latched failure turns into a returned Status instead of a
// wrong answer.
util::Status BudgetCheck(io::IoContext* context, const char* where) {
  if (context->has_io_error()) return context->io_error();
  if (context->io_budget_exceeded()) {
    return util::Status::ResourceExhausted(
        std::string("Ext-SCC exceeded the I/O budget during ") + where);
  }
  return util::Status::Ok();
}

}  // namespace

// The solve's whole state is one CheckpointSession::Progress, which
// begins fresh or from a checkpoint and is mutated in place. The session
// decides where each phase output lives and whether Save records
// anything, so this is Algorithm 2 alone.
util::Result<ExtSccStats> RunExtScc(io::IoContext* context,
                                    const DiskGraph& input,
                                    const std::string& scc_output,
                                    const ExtSccOptions& options) {
  util::Timer total_timer;
  const std::uint64_t start_ios = context->stats().total_ios();

  CoverOptions cover_options;
  cover_options.order = options.refined_order ? OrderVariant::kDegreeFanoutId
                                              : OrderVariant::kDegreeId;
  cover_options.type1_reduction = options.type1_reduction;
  cover_options.type2_reduction = options.type2_reduction;
  ContractionOptions contraction_options;

  CheckpointSession ckpt(
      context, options.checkpoint_dir,
      SolveDataVersion(input, options, context->block_size(),
                       context->memory().total_bytes()));
  auto started = ckpt.Start(input, options.resume);
  if (!started.ok()) return started.status();
  CheckpointSession::Progress& progress = started.value();

  // ---- Contraction phase (Alg. 2 lines 1-4) ---------------------------
  if (progress.phase == CheckpointSession::kContracting) {
    while (!scc::SemiSccFits(options.semi_backend, progress.current.num_nodes,
                             context->memory())) {
      util::Timer iter_timer;
      const std::uint64_t iter_start_ios = context->stats().total_ios();
      const std::size_t li = progress.levels.size();

      LevelFiles level;
      // Self-loops carry no SCC information and would pin their nodes
      // into every cover (see contraction.h); strip them from the input
      // once, inline with the first level's E_in/E_out sorts (no
      // filtered copy of E is written). Contraction never re-creates
      // them, so later levels are clean.
      level.ein = ckpt.LevelPath(li, "ein");
      level.eout = ckpt.LevelPath(li, "eout");
      graph::SortEdgesBothOrders(context, progress.current.edge_path,
                                 level.ein, level.eout,
                                 options.dedup_parallel_edges,
                                 /*drop_self_loops=*/li == 0);
      const std::uint64_t level_edges = graph::CountEdges(context, level.ein);

      cover_options.cover_output = ckpt.LevelPath(li, "cover");
      const CoverResult cover =
          ComputeVertexCover(context, level.ein, level.eout, cover_options);
      // Checked before the Lemma 5.2 invariant: a truncated edge stream
      // can legitimately produce a non-shrinking cover, and that must
      // surface as the I/O failure it is, not as an invariant abort.
      RETURN_IF_ERROR(BudgetCheck(context, "vertex cover"));
      CHECK_LT(cover.cover_count, progress.current.num_nodes)
          << "cover did not shrink the node set (Lemma 5.2 violated)";
      level.cover = cover.cover_path;

      // In Op mode the contraction output IS the level's edge file; in
      // basic mode it is a pre-dedup scratch intermediate, and the
      // deduped copy below is the level's edge file.
      contraction_options.edge_output = options.dedup_parallel_edges
                                            ? ckpt.LevelPath(li, "enext")
                                            : std::string();
      ContractionResult contraction = ContractEdges(
          context, level.ein, level.eout, level.cover, contraction_options);

      // Parallel-edge elimination. The cross product of Get-E multiplies
      // parallel wedges, so leaving duplicates across levels grows |E_i|
      // geometrically (Example 5.1's base run also removes them). The
      // base algorithm pays an eager dedup pass here; Op mode instead
      // folds the dedup into the next level's E_in/E_out sorts (§VII
      // "lazy" edge reduction), saving this pass — part of the measured
      // Op advantage.
      if (!options.dedup_parallel_edges) {
        const std::string deduped = ckpt.LevelPath(li, "enext");
        graph::SortEdgesBySrc(context, contraction.edge_path, deduped,
                              /*dedup=*/true);
        context->temp_files().Remove(contraction.edge_path);
        contraction.edge_path = deduped;
        contraction.num_edges = graph::CountEdges(context, deduped);
      }

      level.removed = ckpt.LevelPath(li, "removed");
      graph::NodeFileDifference(context, progress.current.node_path,
                                level.cover, level.removed);

      ContractionIterationStats iter;
      iter.level = static_cast<std::uint32_t>(li + 1);
      iter.nodes = progress.current.num_nodes;
      iter.edges = level_edges;
      iter.cover_nodes = cover.cover_count;
      iter.next_edges = contraction.num_edges;
      iter.new_edges = contraction.new_edges;
      iter.type2_skips = cover.type2_skips;
      iter.seconds = iter_timer.ElapsedSeconds();
      iter.ios = context->stats().total_ios() - iter_start_ios;
      progress.stats.iterations.push_back(iter);
      progress.stats.contraction_seconds += iter.seconds;

      progress.levels.push_back(level);
      progress.current = DiskGraph{level.cover, contraction.edge_path,
                                   cover.cover_count, contraction.num_edges};
      RETURN_IF_ERROR(BudgetCheck(context, "graph contraction"));
      RETURN_IF_ERROR(ckpt.Save(progress, {level.ein, level.eout, level.cover,
                                           level.removed,
                                           contraction.edge_path}));
    }

    // ---- Semi-external base case (Alg. 2 line 5) ----------------------
    // With no contraction level run, nothing has polled the latch yet: an
    // input built through a failing device must not reach the base case,
    // whose endpoint translation trusts the node file.
    RETURN_IF_ERROR(BudgetCheck(context, "graph contraction"));
    util::Timer semi_timer;
    progress.scc_path = ckpt.SemiSccPath();
    progress.stats.semi_nodes = progress.current.num_nodes;
    progress.stats.semi =
        scc::RunSemiScc(options.semi_backend, context, progress.current,
                        progress.scc_path, &progress.next_scc_id);
    progress.stats.semi_seconds += semi_timer.ElapsedSeconds();
    RETURN_IF_ERROR(BudgetCheck(context, "semi-external base case"));
    progress.phase = CheckpointSession::kSemiDone;
    RETURN_IF_ERROR(ckpt.Save(progress, {progress.scc_path}));
  }

  // ---- Expansion phase (Alg. 2 lines 6-9) ------------------------------
  // Levels re-enter innermost first. The outermost level writes SCC_1
  // straight to `scc_output` (line 10 fused into the final merge) — no
  // copy out of scratch. Intermediate labels are checkpointed; the final
  // one is not (once the outermost expansion runs, the solve is one
  // output publish from done, and a re-run of just that level is cheaper
  // than checkpointing every run).
  util::Timer expansion_timer;
  const std::size_t num_levels = progress.levels.size();
  while (progress.expand_done < num_levels) {
    const LevelFiles& level =
        progress.levels[num_levels - 1 - progress.expand_done];
    const bool outermost = progress.expand_done + 1 == num_levels;
    const ExpansionResult expanded = ExpandLevel(
        context, level.ein, level.eout, level.cover, level.removed,
        progress.scc_path, &progress.next_scc_id,
        outermost ? scc_output : ckpt.ExpandSccPath(progress.expand_done));
    ckpt.Discard(progress.scc_path);
    progress.scc_path = expanded.scc_path;
    ++progress.expand_done;
    progress.phase = CheckpointSession::kExpanding;
    RETURN_IF_ERROR(BudgetCheck(context, "graph expansion"));
    if (!outermost) RETURN_IF_ERROR(ckpt.Save(progress, {progress.scc_path}));
  }
  progress.stats.expansion_seconds = expansion_timer.ElapsedSeconds();

  // ---- Emit SCC_1 (line 10) -------------------------------------------
  if (num_levels == 0) {
    // No contraction happened: the base case's labels are SCC_1.
    io::CopyAllRecords<graph::SccEntry>(context, progress.scc_path,
                                        scc_output);
    ckpt.Discard(progress.scc_path);
  }

  RETURN_IF_ERROR(BudgetCheck(context, "SCC output"));
  ckpt.Finish(num_levels);

  progress.stats.num_sccs = progress.next_scc_id;
  progress.stats.total_ios = context->stats().total_ios() - start_ios;
  progress.stats.total_seconds = total_timer.ElapsedSeconds();
  return std::move(progress.stats);
}

}  // namespace extscc::core
