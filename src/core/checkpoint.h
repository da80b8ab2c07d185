// Where an Ext-SCC solve's phase outputs live, and checkpoint/resume
// for long solves. CheckpointSession is the only code that knows
// whether a solve is checkpointed. Without a checkpoint directory its
// path helpers return fresh scratch paths, Discard removes consumed
// outputs, and Save and Finish do nothing. With one, the phase-boundary
// outputs (level files, semi-external labels, intermediate expansion
// labels) land in that directory, and after each completed phase Save
// publishes a small CRC'd MANIFEST naming the phase reached and the
// exact files (with sizes) a resume needs. The manifest is published
// with the same durable protocol as serve artifacts — write
// "MANIFEST.tmp", fsync, rename, fsync the parent directory — so a
// crash at ANY instant leaves either the previous manifest or the new
// one, never a torn mix, and `extscc_tool solve --resume` re-does only
// the phases after the last completed one.
//
// The manifest carries a data_version (a hash of the input identity,
// the solve options, the memory budget and the block size). A resume
// whose recomputed version differs refuses with kFailedPrecondition
// instead of silently splicing phases of two different solves together.
//
// Checkpoint writes never touch the Aggarwal-Vitter model I/O columns:
// the phase outputs cost exactly the block I/Os they always cost (same
// writes, different path), and manifest traffic + fsyncs land in the
// dedicated checkpoint_writes / checkpoint_reads / sync_calls counters
// (io_stats.h).
#ifndef EXTSCC_CORE_CHECKPOINT_H_
#define EXTSCC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ext_scc.h"
#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "util/status.h"

namespace extscc::core {

// Identity hash binding a checkpoint to one solve. FNV-1a over the
// input node/edge counts, the §VII toggles, the semi backend, the
// memory budget M (it decides how deep the contraction goes) and the
// block size — deliberately NOT the input paths, which are per-session
// scratch names that differ between a crashed solve and its resume; the
// manifest's exact-size file validation carries the binding to the
// bytes.
std::uint64_t SolveDataVersion(const graph::DiskGraph& input,
                               const ExtSccOptions& options,
                               std::size_t block_size,
                               std::uint64_t memory_bytes);

// Everything the expansion phase needs to re-open level i.
struct LevelFiles {
  std::string ein;      // E_i by (dst, src)
  std::string eout;     // E_i by (src, dst)
  std::string cover;    // V_{i+1}
  std::string removed;  // V_i - V_{i+1}
};

// One solve's phase outputs: where each lives (the checkpoint directory
// or scratch) and, with a directory, the manifest a resume starts from.
class CheckpointSession {
 public:
  // Solve phases in completion order. kContracting with L levels means
  // L contraction levels are durable; kSemiDone additionally has the
  // semi-external labels; kExpanding with expand_done=K has K expansion
  // levels folded in.
  enum Phase : std::uint32_t {
    kContracting = 0,
    kSemiDone = 1,
    kExpanding = 2,
  };

  // A solve's state between phases: RunExtScc mutates it in place, Save
  // records it, Start hands back the one to begin from.
  struct Progress {
    std::uint32_t phase = kContracting;
    std::vector<LevelFiles> levels;  // completed contraction levels
    graph::DiskGraph current;        // G_L, the next phase's input
    std::string scc_path;            // labels so far (from kSemiDone)
    graph::SccId next_scc_id = 0;
    std::uint64_t expand_done = 0;  // expansion levels folded in
    ExtSccStats stats;  // iterations, semi_nodes and seconds persist
  };

  // A manifest as Load reads it: the solve identity it was written
  // under and the progress it records.
  struct Manifest {
    std::uint64_t data_version = 0;
    std::uint64_t block_size = 0;
    Progress progress;
  };

  // `dir` empty: checkpointing is off (see the file comment).
  CheckpointSession(io::IoContext* context, std::string dir,
                    std::uint64_t data_version);

  std::string ManifestPath() const;

  // The directory scheme. With checkpointing off, each call returns a
  // fresh scratch path tagged `kind` / "scc_semi" / "scc_level" instead.
  // Level files: "l<i>.ein|.eout|.cover|.removed" plus "l<i>.enext"
  // (the contracted edge file feeding level i+1).
  std::string LevelPath(std::size_t level, const char* kind) const;
  // Semi-external base-case labels: "scc_semi".
  std::string SemiSccPath() const;
  // Labels after the k-th expansion (0-based): "scc_x<k>". The
  // outermost expansion writes straight to the caller's scc_output and
  // is never checkpointed — once it runs, the solve is one durable
  // publish from done.
  std::string ExpandSccPath(std::size_t k) const;

  // Removes a consumed phase output if it is scratch; checkpoint files
  // stay until Finish.
  void Discard(const std::string& path) const;

  // The progress a solve of `input` begins from: fresh (current =
  // `input`) when checkpointing is off, `resume` is false or there is
  // no manifest; the manifest's progress when its data version and
  // block size match this solve; kFailedPrecondition when they do not;
  // Load's error when the manifest or its files are damaged.
  util::Result<Progress> Start(const graph::DiskGraph& input, bool resume);

  // Loads and validates the manifest, rebuilding the level and label
  // paths from the directory scheme (current's paths stay empty when no
  // level is done: they are the solve's input's). kNotFound: no manifest
  // (fresh run). kCorruption: manifest damaged (magic/CRC).
  // kFailedPrecondition: manifest intact but a referenced file is
  // missing or resized.
  util::Result<Manifest> Load();

  // Durably publishes `progress`. `new_files` are the files completed
  // since the previous Save; they are fsynced BEFORE the manifest
  // references them (a manifest must never point at data still in the
  // page cache). All costs land in checkpoint/sync counters.
  util::Status Save(const Progress& progress,
                    const std::vector<std::string>& new_files);

  // Solve finished: best-effort removal of the manifest (first — a
  // crash mid-cleanup must not leave a manifest naming deleted files)
  // and all checkpoint files for `num_levels` levels.
  void Finish(std::size_t num_levels);

 private:
  bool enabled() const { return !dir_.empty(); }

  // The relative file names `progress` obligates a resume to find,
  // matching the needs of the phase: contraction needs every level so
  // far plus the live edge file, expansion drops already-folded levels.
  std::vector<std::string> RequiredFiles(const Progress& progress) const;

  io::IoContext* context_;
  std::string dir_;
  std::uint64_t data_version_;
};

}  // namespace extscc::core

#endif  // EXTSCC_CORE_CHECKPOINT_H_
