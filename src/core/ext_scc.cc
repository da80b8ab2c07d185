#include "core/ext_scc.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

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
using graph::SccId;

// Everything the expansion phase needs to re-open level i.
struct LevelFiles {
  std::string ein;      // E_i by (dst, src)
  std::string eout;     // E_i by (src, dst)
  std::string cover;    // V_{i+1}
  std::string removed;  // V_i - V_{i+1}
};

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

util::Result<ExtSccStats> RunExtScc(io::IoContext* context,
                                    const DiskGraph& input,
                                    const std::string& scc_output,
                                    const ExtSccOptions& options) {
  ExtSccStats stats;
  util::Timer total_timer;
  const std::uint64_t start_ios = context->stats().total_ios();

  CoverOptions cover_options;
  cover_options.order = options.refined_order ? OrderVariant::kDegreeFanoutId
                                              : OrderVariant::kDegreeId;
  cover_options.type1_reduction = options.type1_reduction;
  cover_options.type2_reduction = options.type2_reduction;
  ContractionOptions contraction_options;

  const std::uint64_t data_version =
      SolveDataVersion(input, options, context->block_size());
  CheckpointSession ckpt(context, options.checkpoint_dir, data_version);

  std::vector<LevelFiles> levels;
  DiskGraph current = input;
  SccId next_scc_id = 0;
  std::string scc_path;
  std::uint32_t resume_phase = CheckpointSession::kContracting;
  std::uint64_t expand_done = 0;

  if (ckpt.enabled() && options.resume) {
    auto loaded = ckpt.Load();
    if (loaded.ok()) {
      CheckpointSession::ResumeState st = std::move(loaded.value());
      if (st.data_version != data_version ||
          st.block_size != context->block_size()) {
        return util::Status::FailedPrecondition(
            "checkpoint in " + options.checkpoint_dir +
            " was written by a different solve (input shape, options, or "
            "block size changed) — remove the directory or drop --resume");
      }
      for (std::uint64_t i = 0; i < st.levels_done; ++i) {
        levels.push_back(LevelFiles{ckpt.LevelPath(i, "ein"),
                                    ckpt.LevelPath(i, "eout"),
                                    ckpt.LevelPath(i, "cover"),
                                    ckpt.LevelPath(i, "removed")});
      }
      stats.iterations = std::move(st.iterations);
      stats.contraction_seconds = st.contraction_seconds;
      stats.semi_seconds = st.semi_seconds;
      if (st.levels_done > 0) {
        current = DiskGraph{ckpt.LevelPath(st.levels_done - 1, "cover"),
                            ckpt.LevelPath(st.levels_done - 1, "enext"),
                            st.current_num_nodes, st.current_num_edges};
      }
      resume_phase = st.phase;
      next_scc_id = static_cast<SccId>(st.next_scc_id);
      expand_done = st.expand_done;
      if (resume_phase >= CheckpointSession::kSemiDone) {
        stats.semi_nodes = st.semi_nodes;
        scc_path = expand_done == 0 ? ckpt.SemiSccPath()
                                    : ckpt.ExpandSccPath(expand_done - 1);
      }
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      // A damaged manifest or a directory that no longer matches it:
      // refuse rather than silently starting over — the operator asked
      // to resume, and quietly discarding the checkpoint hides whatever
      // damaged it. `fsck --checkpoint-dir` diagnoses and repairs.
      return loaded.status();
    }
    // kNotFound: no checkpoint yet — a fresh run that will create one.
  }

  // ---- Contraction phase (Alg. 2 lines 1-4) ---------------------------
  util::Timer phase_timer;
  // Durably records that `phase` completed with `new_files` written. A
  // contraction-phase save also counts the level time so far.
  const auto save_checkpoint =
      [&](std::uint32_t phase,
          const std::vector<std::string>& new_files) -> util::Status {
    CheckpointSession::ResumeState st;
    st.phase = phase;
    st.block_size = context->block_size();
    st.levels_done = levels.size();
    st.expand_done = expand_done;
    st.next_scc_id = next_scc_id;
    st.semi_nodes = stats.semi_nodes;
    st.current_num_nodes = current.num_nodes;
    st.current_num_edges = current.num_edges;
    st.contraction_seconds = stats.contraction_seconds;
    if (phase == CheckpointSession::kContracting) {
      st.contraction_seconds += phase_timer.ElapsedSeconds();
    }
    st.semi_seconds = stats.semi_seconds;
    st.iterations = stats.iterations;
    return ckpt.Save(st, new_files);
  };
  if (resume_phase == CheckpointSession::kContracting) {
    while (!scc::SemiSccFits(options.semi_backend, current.num_nodes,
                             context->memory())) {
      if (levels.size() >= options.max_iterations) {
        return util::Status::FailedPrecondition(
            "contraction did not converge within max_iterations — this "
            "contradicts Lemma 5.2 and indicates a bug or absurd budget");
      }
      util::Timer iter_timer;
      const std::uint64_t iter_start_ios = context->stats().total_ios();
      const std::size_t li = levels.size();

      LevelFiles level;
      // Self-loops carry no SCC information and would pin their nodes
      // into every cover (see contraction.h); strip them from the input
      // once, inline with the first level's E_in/E_out sorts (no
      // filtered copy of E is written). Contraction never re-creates
      // them, so later levels are clean.
      level.ein = ckpt.enabled() ? ckpt.LevelPath(li, "ein")
                                 : context->NewTempPath("ein");
      level.eout = ckpt.enabled() ? ckpt.LevelPath(li, "eout")
                                  : context->NewTempPath("eout");
      graph::SortEdgesBothOrders(context, current.edge_path, level.ein,
                                 level.eout, options.dedup_parallel_edges,
                                 /*drop_self_loops=*/levels.empty());
      const std::uint64_t level_edges = graph::CountEdges(context, level.ein);

      cover_options.cover_output =
          ckpt.enabled() ? ckpt.LevelPath(li, "cover") : std::string();
      const CoverResult cover =
          ComputeVertexCover(context, level.ein, level.eout, cover_options);
      // Checked before the Lemma 5.2 invariant: a truncated edge stream
      // can legitimately produce a non-shrinking cover, and that must
      // surface as the I/O failure it is, not as an invariant abort.
      RETURN_IF_ERROR(BudgetCheck(context, "vertex cover"));
      CHECK_LT(cover.cover_count, current.num_nodes)
          << "cover did not shrink the node set (Lemma 5.2 violated)";
      level.cover = cover.cover_path;

      // In Op mode the contraction output IS the level's edge file; in
      // basic mode it is a pre-dedup intermediate, so only the deduped
      // copy below goes to the checkpoint directory.
      contraction_options.edge_output =
          (ckpt.enabled() && options.dedup_parallel_edges)
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
        const std::string deduped = ckpt.enabled()
                                        ? ckpt.LevelPath(li, "enext")
                                        : context->NewTempPath("enext_dedup");
        graph::SortEdgesBySrc(context, contraction.edge_path, deduped,
                              /*dedup=*/true);
        context->temp_files().Remove(contraction.edge_path);
        contraction.edge_path = deduped;
        contraction.num_edges = graph::CountEdges(context, deduped);
      }

      level.removed = ckpt.enabled() ? ckpt.LevelPath(li, "removed")
                                     : context->NewTempPath("removed");
      graph::NodeFileDifference(context, current.node_path, level.cover,
                                level.removed);

      ContractionIterationStats iter;
      iter.level = static_cast<std::uint32_t>(levels.size() + 1);
      iter.nodes = current.num_nodes;
      iter.edges = level_edges;
      iter.cover_nodes = cover.cover_count;
      iter.next_edges = contraction.num_edges;
      iter.new_edges = contraction.new_edges;
      iter.type2_skips = cover.type2_skips;
      iter.seconds = iter_timer.ElapsedSeconds();
      iter.ios = context->stats().total_ios() - iter_start_ios;
      stats.iterations.push_back(iter);

      levels.push_back(level);
      current = DiskGraph{level.cover, contraction.edge_path,
                          cover.cover_count, contraction.num_edges};
      RETURN_IF_ERROR(BudgetCheck(context, "graph contraction"));

      if (ckpt.enabled()) {
        RETURN_IF_ERROR(save_checkpoint(
            CheckpointSession::kContracting,
            {level.ein, level.eout, level.cover, level.removed,
             current.edge_path}));
      }
    }
    stats.contraction_seconds += phase_timer.ElapsedSeconds();

    // ---- Semi-external base case (Alg. 2 line 5) ----------------------
    // With no contraction level run, nothing has polled the latch yet: an
    // input built through a failing device must not reach the base case,
    // whose endpoint translation trusts the node file.
    RETURN_IF_ERROR(BudgetCheck(context, "graph contraction"));
    phase_timer.Restart();
    next_scc_id = 0;
    scc_path = ckpt.enabled() ? ckpt.SemiSccPath()
                              : context->NewTempPath("scc_semi");
    stats.semi_nodes = current.num_nodes;
    stats.semi = scc::RunSemiScc(options.semi_backend, context, current,
                                 scc_path, &next_scc_id);
    stats.semi_seconds += phase_timer.ElapsedSeconds();
    RETURN_IF_ERROR(BudgetCheck(context, "semi-external base case"));

    if (ckpt.enabled()) {
      RETURN_IF_ERROR(
          save_checkpoint(CheckpointSession::kSemiDone, {scc_path}));
    }
  }

  // ---- Expansion phase (Alg. 2 lines 6-9) ------------------------------
  // The outermost level writes SCC_1 straight to `scc_output` (line 10
  // fused into the final merge) — no copy out of scratch. Intermediate
  // labels are checkpointed; the final one is not (once the outermost
  // expansion runs, the solve is one output publish from done, and a
  // re-run of just that level is cheaper than checkpointing every run).
  phase_timer.Restart();
  for (auto it = levels.rbegin() + static_cast<std::ptrdiff_t>(expand_done);
       it != levels.rend(); ++it) {
    const bool outermost = std::next(it) == levels.rend();
    std::string out;
    if (outermost) {
      out = scc_output;
    } else if (ckpt.enabled()) {
      out = ckpt.ExpandSccPath(expand_done);
    }
    const ExpansionResult expanded =
        ExpandLevel(context, it->ein, it->eout, it->cover, it->removed,
                    scc_path, &next_scc_id, out);
    if (!ckpt.enabled()) context->temp_files().Remove(scc_path);
    scc_path = expanded.scc_path;
    ++expand_done;
    RETURN_IF_ERROR(BudgetCheck(context, "graph expansion"));
    if (ckpt.enabled() && !outermost) {
      RETURN_IF_ERROR(
          save_checkpoint(CheckpointSession::kExpanding, {scc_path}));
    }
  }
  stats.expansion_seconds = phase_timer.ElapsedSeconds();

  // ---- Emit SCC_1 (line 10) -------------------------------------------
  if (levels.empty()) {
    // No contraction happened: the base case's labels are SCC_1.
    io::CopyAllRecords<graph::SccEntry>(context, scc_path, scc_output);
    if (!ckpt.enabled()) context->temp_files().Remove(scc_path);
  }

  RETURN_IF_ERROR(BudgetCheck(context, "SCC output"));

  if (ckpt.enabled()) ckpt.Finish(levels.size());

  stats.num_sccs = next_scc_id;
  stats.total_ios = context->stats().total_ios() - start_ios;
  stats.total_seconds = total_timer.ElapsedSeconds();
  return stats;
}

}  // namespace extscc::core
