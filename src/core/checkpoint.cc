#include "core/checkpoint.h"

#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "io/checksum.h"
#include "io/crash_point.h"
#include "io/durability.h"
#include "io/storage.h"

namespace extscc::core {

namespace {

constexpr char kManifestMagic[8] = {'E', 'X', 'S', 'C', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kManifestVersion = 1;
static_assert(sizeof(ContractionIterationStats) == 72,
              "ContractionIterationStats is written raw into checkpoint "
              "manifests: bump kManifestVersion when its layout changes");

void AppendBytes(std::vector<unsigned char>* out, const void* p,
                 std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  out->insert(out->end(), bytes, bytes + n);
}

template <typename T>
void AppendPod(std::vector<unsigned char>* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendBytes(out, &value, sizeof(value));
}

// Bounds-checked sequential reader over the manifest blob; any overrun
// flips ok to false and every later read is a no-op, so the caller
// checks once at the end.
struct Cursor {
  const unsigned char* p;
  std::size_t left;
  bool ok = true;

  bool Take(void* dst, std::size_t n) {
    if (!ok || n > left) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  template <typename T>
  bool Pod(T* dst) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Take(dst, sizeof(T));
  }
};

// FNV-1a, the same construction the artifact layer uses for content
// hashes — cheap, stable across platforms, and good enough to make
// accidental checkpoint/input mismatches vanishingly unlikely.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Mix(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    const std::uint64_t n = s.size();
    Pod(n);
    Mix(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t SolveDataVersion(const graph::DiskGraph& input,
                               const ExtSccOptions& options,
                               std::size_t block_size,
                               std::uint64_t memory_bytes) {
  // Deliberately NOT the input paths: the driver imports the edge list
  // into per-session scratch, so paths differ between the crashed run
  // and its resume even though the graph is the same. The shape hash
  // plus the manifest's exact-size file validation is what binds a
  // checkpoint to its solve.
  Fnv f;
  f.Pod(input.num_nodes);
  f.Pod(input.num_edges);
  f.Pod(static_cast<std::uint8_t>(options.type1_reduction));
  f.Pod(static_cast<std::uint8_t>(options.type2_reduction));
  f.Pod(static_cast<std::uint8_t>(options.refined_order));
  f.Pod(static_cast<std::uint8_t>(options.dedup_parallel_edges));
  f.Pod(static_cast<std::uint32_t>(options.semi_backend));
  f.Pod(static_cast<std::uint64_t>(block_size));
  f.Pod(memory_bytes);
  return f.h;
}

CheckpointSession::CheckpointSession(io::IoContext* context, std::string dir,
                                     std::uint64_t data_version)
    : context_(context), dir_(std::move(dir)), data_version_(data_version) {}

std::string CheckpointSession::ManifestPath() const {
  return dir_ + "/MANIFEST";
}

std::string CheckpointSession::LevelPath(std::size_t level,
                                         const char* kind) const {
  if (!enabled()) return context_->NewTempPath(kind);
  return dir_ + "/l" + std::to_string(level) + "." + kind;
}

std::string CheckpointSession::SemiSccPath() const {
  if (!enabled()) return context_->NewTempPath("scc_semi");
  return dir_ + "/scc_semi";
}

std::string CheckpointSession::ExpandSccPath(std::size_t k) const {
  if (!enabled()) return context_->NewTempPath("scc_level");
  return dir_ + "/scc_x" + std::to_string(k);
}

void CheckpointSession::Discard(const std::string& path) const {
  if (!enabled()) context_->temp_files().Remove(path);
}

std::vector<std::string> CheckpointSession::RequiredFiles(
    const Progress& progress) const {
  std::vector<std::string> names;
  const std::uint64_t levels_done = progress.levels.size();
  // Expansion consumes levels outermost-last: after expand_done
  // expansions, levels [levels_done - expand_done, levels_done) are
  // folded into the labels and their files are no longer needed.
  const std::uint64_t levels_needed =
      progress.phase == kExpanding ? levels_done - progress.expand_done
                                   : levels_done;
  for (std::uint64_t i = 0; i < levels_needed; ++i) {
    std::string prefix = "l";
    prefix += std::to_string(i);
    names.push_back(prefix + ".ein");
    names.push_back(prefix + ".eout");
    names.push_back(prefix + ".cover");
    names.push_back(prefix + ".removed");
  }
  if (progress.phase == kContracting && levels_done > 0) {
    // Contraction (or the base case) still consumes G_L's edges.
    std::string name = "l";
    name += std::to_string(levels_done - 1);
    names.push_back(name + ".enext");
  }
  if (progress.phase == kSemiDone) {
    names.push_back("scc_semi");
  } else if (progress.phase == kExpanding) {
    names.push_back(progress.expand_done == 0
                        ? std::string("scc_semi")
                        : "scc_x" + std::to_string(progress.expand_done - 1));
  }
  return names;
}

util::Result<CheckpointSession::Progress> CheckpointSession::Start(
    const graph::DiskGraph& input, bool resume) {
  Progress fresh;
  fresh.current = input;
  if (!enabled() || !resume) return fresh;
  auto loaded = Load();
  if (!loaded.ok()) {
    // kNotFound: no checkpoint yet, a fresh run that will create one.
    // Anything else refuses rather than silently starting over: quietly
    // discarding the checkpoint hides whatever damaged it, and `fsck
    // --checkpoint-dir` diagnoses and repairs.
    if (loaded.status().code() == util::StatusCode::kNotFound) return fresh;
    return loaded.status();
  }
  Manifest& manifest = loaded.value();
  if (manifest.data_version != data_version_ ||
      manifest.block_size != context_->block_size()) {
    return util::Status::FailedPrecondition(
        "checkpoint in " + dir_ +
        " was written by a different solve (input shape, options, memory "
        "or block size changed) — remove the directory or drop --resume");
  }
  if (manifest.progress.levels.empty()) manifest.progress.current = input;
  return std::move(manifest.progress);
}

util::Result<CheckpointSession::Manifest> CheckpointSession::Load() {
  io::StorageDevice* device = context_->ResolveDevice(ManifestPath());
  std::unique_ptr<io::StorageFile> file;
  util::Status open_status = device->Open(ManifestPath(), io::OpenMode::kRead,
                                          &file);
  if (!open_status.ok()) {
    if (open_status.sys_errno() == ENOENT) {
      return util::Status::NotFound("no checkpoint manifest in " + dir_);
    }
    return open_status;
  }
  const std::uint64_t size = file->size_bytes();
  if (size < sizeof(kManifestMagic) + 2 * sizeof(std::uint32_t) +
                 sizeof(std::uint32_t)) {
    return util::Status::Corruption("checkpoint manifest too short: " +
                                    ManifestPath());
  }
  std::vector<unsigned char> blob(static_cast<std::size_t>(size));
  RETURN_IF_ERROR(file->ReadAt(0, blob.data(), blob.size()));
  file.reset();
  {
    std::lock_guard<std::mutex> lock(context_->stats_mutex());
    context_->stats().checkpoint_reads += 1;
    device->stats().checkpoint_reads += 1;
  }

  if (std::memcmp(blob.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return util::Status::Corruption("not an extscc checkpoint manifest: " +
                                    ManifestPath());
  }
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, blob.data() + blob.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (io::Crc32(blob.data(), blob.size() - sizeof(stored_crc)) != stored_crc) {
    return util::Status::Corruption("checkpoint manifest checksum mismatch: " +
                                    ManifestPath());
  }

  Cursor cur{blob.data() + sizeof(kManifestMagic),
             blob.size() - sizeof(kManifestMagic) - sizeof(stored_crc)};
  std::uint32_t version = 0;
  cur.Pod(&version);
  if (cur.ok && version != kManifestVersion) {
    return util::Status::InvalidArgument(
        "unsupported checkpoint manifest version " + std::to_string(version));
  }
  Manifest manifest;
  Progress& progress = manifest.progress;
  std::uint64_t levels_done = 0;
  std::uint64_t next_scc_id = 0;
  cur.Pod(&progress.phase);
  cur.Pod(&manifest.data_version);
  cur.Pod(&manifest.block_size);
  cur.Pod(&levels_done);
  cur.Pod(&progress.expand_done);
  cur.Pod(&next_scc_id);
  cur.Pod(&progress.stats.semi_nodes);
  cur.Pod(&progress.current.num_nodes);
  cur.Pod(&progress.current.num_edges);
  cur.Pod(&progress.stats.contraction_seconds);
  cur.Pod(&progress.stats.semi_seconds);
  std::uint64_t num_iters = 0;
  cur.Pod(&num_iters);
  if (cur.ok && num_iters * sizeof(ContractionIterationStats) <= cur.left) {
    progress.stats.iterations.resize(static_cast<std::size_t>(num_iters));
    cur.Take(progress.stats.iterations.data(),
             num_iters * sizeof(ContractionIterationStats));
  } else {
    cur.ok = false;
  }
  std::uint64_t num_files = 0;
  cur.Pod(&num_files);
  std::vector<std::pair<std::string, std::uint64_t>> files;
  for (std::uint64_t i = 0; cur.ok && i < num_files; ++i) {
    std::uint32_t len = 0;
    cur.Pod(&len);
    if (!cur.ok || len > cur.left) {
      cur.ok = false;
      break;
    }
    std::string name(len, '\0');
    cur.Take(name.data(), len);
    std::uint64_t file_size = 0;
    cur.Pod(&file_size);
    files.emplace_back(std::move(name), file_size);
  }
  if (!cur.ok) {
    return util::Status::Corruption("checkpoint manifest truncated: " +
                                    ManifestPath());
  }

  // The manifest is intact; now hold it to its word. Every referenced
  // file must exist at exactly its recorded size — anything else means
  // the directory was tampered with or partially cleaned, and resuming
  // over it would corrupt the solve.
  for (const auto& [name, expected_size] : files) {
    const std::string path = dir_ + "/" + name;
    std::unique_ptr<io::StorageFile> f;
    util::Status st = device->Open(path, io::OpenMode::kRead, &f);
    if (!st.ok()) {
      return util::Status::FailedPrecondition(
          "checkpoint manifest references missing file " + path + ": " +
          st.message());
    }
    if (f->size_bytes() != expected_size) {
      return util::Status::FailedPrecondition(
          "checkpoint file " + path + " is " +
          std::to_string(f->size_bytes()) + " bytes, manifest recorded " +
          std::to_string(expected_size));
    }
  }

  // The paths follow from the directory scheme; only counts persist.
  progress.next_scc_id = static_cast<graph::SccId>(next_scc_id);
  for (std::uint64_t i = 0; i < levels_done; ++i) {
    progress.levels.push_back({LevelPath(i, "ein"), LevelPath(i, "eout"),
                               LevelPath(i, "cover"), LevelPath(i, "removed")});
  }
  if (levels_done > 0) {
    progress.current.node_path = LevelPath(levels_done - 1, "cover");
    progress.current.edge_path = LevelPath(levels_done - 1, "enext");
  }
  if (progress.phase >= kSemiDone) {
    progress.scc_path = progress.expand_done == 0
                            ? SemiSccPath()
                            : ExpandSccPath(progress.expand_done - 1);
  }
  return manifest;
}

util::Status CheckpointSession::Save(
    const Progress& progress, const std::vector<std::string>& new_files) {
  if (!enabled()) return util::Status::Ok();
  io::StorageDevice* device = context_->ResolveDevice(ManifestPath());

  // 1. Harden the data files completed since the last Save. The
  // manifest must never name bytes that are still only in the page
  // cache — a power cut would then resume from files the manifest
  // vouches for but the disk never received.
  for (const std::string& path : new_files) {
    std::unique_ptr<io::StorageFile> f;
    RETURN_IF_ERROR(device->Open(path, io::OpenMode::kReadWrite, &f));
    io::CrashPointHit("ckpt.file.sync");
    RETURN_IF_ERROR(f->Sync());
    std::lock_guard<std::mutex> lock(context_->stats_mutex());
    context_->stats().sync_calls += 1;
    device->stats().sync_calls += 1;
  }

  // 2. Serialize, recording the exact size of every file a resume will
  // trust.
  const ExtSccStats& stats = progress.stats;
  std::vector<unsigned char> blob;
  AppendBytes(&blob, kManifestMagic, sizeof(kManifestMagic));
  AppendPod(&blob, kManifestVersion);
  AppendPod(&blob, progress.phase);
  AppendPod(&blob, data_version_);
  AppendPod(&blob, static_cast<std::uint64_t>(context_->block_size()));
  AppendPod(&blob, static_cast<std::uint64_t>(progress.levels.size()));
  AppendPod(&blob, progress.expand_done);
  AppendPod(&blob, static_cast<std::uint64_t>(progress.next_scc_id));
  AppendPod(&blob, stats.semi_nodes);
  AppendPod(&blob, progress.current.num_nodes);
  AppendPod(&blob, progress.current.num_edges);
  AppendPod(&blob, stats.contraction_seconds);
  AppendPod(&blob, stats.semi_seconds);
  AppendPod(&blob, static_cast<std::uint64_t>(stats.iterations.size()));
  for (const ContractionIterationStats& iter : stats.iterations) {
    AppendPod(&blob, iter);
  }
  const std::vector<std::string> names = RequiredFiles(progress);
  AppendPod(&blob, static_cast<std::uint64_t>(names.size()));
  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    std::unique_ptr<io::StorageFile> f;
    RETURN_IF_ERROR(device->Open(path, io::OpenMode::kRead, &f));
    AppendPod(&blob, static_cast<std::uint32_t>(name.size()));
    AppendBytes(&blob, name.data(), name.size());
    AppendPod(&blob, f->size_bytes());
  }
  AppendPod(&blob, io::Crc32(blob.data(), blob.size()));

  // 3. Durable publish: tmp, fsync, rename, fsync parent — identical
  // protocol to the serve artifact, identical crash-window guarantees.
  const std::string tmp = ManifestPath() + ".tmp";
  {
    std::unique_ptr<io::StorageFile> f;
    io::CrashPointHit("ckpt.manifest.write");
    RETURN_IF_ERROR(device->Open(tmp, io::OpenMode::kTruncateWrite, &f));
    RETURN_IF_ERROR(f->WriteAt(0, blob.data(), blob.size()));
    io::CrashPointHit("ckpt.manifest.sync");
    RETURN_IF_ERROR(f->Sync());
  }
  {
    std::lock_guard<std::mutex> lock(context_->stats_mutex());
    context_->stats().checkpoint_writes += 1;
    context_->stats().sync_calls += 1;
    device->stats().checkpoint_writes += 1;
    device->stats().sync_calls += 1;
  }
  return io::DurableRename(context_, tmp, ManifestPath());
}

void CheckpointSession::Finish(std::size_t num_levels) {
  if (!enabled()) return;
  io::StorageDevice* device = context_->ResolveDevice(ManifestPath());
  // Manifest first: once it is gone, a crash mid-cleanup leaves only
  // orphan data files, which the next run overwrites (or fsck reports),
  // never a manifest naming files that no longer exist.
  (void)device->Delete(ManifestPath());
  (void)device->Delete(ManifestPath() + ".tmp");
  (void)device->SyncDir(dir_);
  for (std::size_t i = 0; i < num_levels; ++i) {
    (void)device->Delete(LevelPath(i, "ein"));
    (void)device->Delete(LevelPath(i, "eout"));
    (void)device->Delete(LevelPath(i, "cover"));
    (void)device->Delete(LevelPath(i, "removed"));
    (void)device->Delete(LevelPath(i, "enext"));
  }
  (void)device->Delete(SemiSccPath());
  for (std::size_t k = 0; k < num_levels; ++k) {
    (void)device->Delete(ExpandSccPath(k));
  }
}

}  // namespace extscc::core
