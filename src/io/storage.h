// Pluggable storage devices. Every byte the library moves goes through a
// StorageDevice: BlockFile resolves its path to a device at open and
// issues ReadAt/WriteAt against the device's StorageFile handle, counting
// each block transfer both in the IoContext's aggregate IoStats and in
// the device's own IoStats — so layers above can reason about *which*
// device a stream lives on (round-robin run placement, per-device
// accounting and the busiest-device critical path).
//
// Two implementations here, plus one wrapper in fault_injection.h:
//  - PosixDevice: the real filesystem (pread/pwrite), the production
//    backing.
//  - MemDevice: RAM-backed scratch for tests and page-cache-free
//    microbenches. Block accounting is identical to PosixDevice byte for
//    byte; the backing store is ordinary heap memory *outside* the
//    simulated MemoryBudget (it models the disk, not M).
//  - FaultInjectingDevice (fault_injection.h): wraps either one with a
//    seeded fault schedule for the chaos tests.
#ifndef EXTSCC_IO_STORAGE_H_
#define EXTSCC_IO_STORAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/io_stats.h"
#include "util/status.h"

namespace extscc::io {

// Open modes. kReadWrite supports the random-access structures
// (buffered repository tree, external DFS adjacency fetches).
enum class OpenMode { kRead, kTruncateWrite, kReadWrite };

class StorageDevice;

// An open file on some device. Offsets are byte offsets; BlockFile is
// the only caller and never reads past the size it tracks, so ReadAt
// transfers exactly `bytes` bytes or returns a non-OK Status (a short
// transfer is an errno-carrying IoError, never a crash — the retry and
// failover machinery above decides what survives). Handles of one file
// may be used from different threads at once (each serving query thread
// opens its own scan of the shared artifact), so implementations keep
// shared per-file state under a lock.
class StorageFile {
 public:
  virtual ~StorageFile() = default;
  virtual util::Status ReadAt(std::uint64_t offset, void* buf,
                              std::size_t bytes) = 0;
  virtual util::Status WriteAt(std::uint64_t offset, const void* data,
                               std::size_t bytes) = 0;
  // Size of the file at Open time; growth afterwards is tracked by the
  // owning BlockFile.
  virtual std::uint64_t size_bytes() const = 0;

  // Flushes previously written data to durable storage (the fsync /
  // fdatasync family). The default is an Ok no-op: MemDevice's
  // durability domain is process RAM, and the simulated devices have
  // nothing more durable to reach. PosixFile overrides with fdatasync;
  // wrappers delegate (never fault — process-death injection is
  // CrashPoint's job, not the device model's). Only publish and
  // checkpoint paths call this; scratch files never do, which is what
  // keeps the fast path byte-identical.
  virtual util::Status Sync() { return util::Status::Ok(); }
};

// A scratch/storage backend with its own I/O statistics. stats() follows
// the same locking convention as IoContext::stats(): BlockFile mutates
// it under IoContext::stats_mutex(); readers racing a live sorter must
// hold that mutex, quiesced snapshots may skip it.
class StorageDevice {
 public:
  explicit StorageDevice(std::string name) : name_(std::move(name)) {}
  virtual ~StorageDevice() = default;

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  const std::string& name() const { return name_; }
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  // Opens `path` on this device into *out, or returns an errno-carrying
  // IoError (NotFound-shaped opens are IoError with sys_errno ENOENT so
  // the caller can tell a vanished scratch file from a dead device).
  // *out is untouched on error.
  virtual util::Status Open(const std::string& path, OpenMode mode,
                            std::unique_ptr<StorageFile>* out) = 0;

  // Deletes the file if it exists (missing files are not an error;
  // failing to delete an existing file is).
  virtual util::Status Delete(const std::string& path) = 0;

  // Atomically renames `from` to `to` on this device, replacing any
  // existing `to` — the publish primitive of the dynamic-update path
  // (src/dyn/): an updated serve artifact is written beside the live
  // one and swapped in with a single rename, so a concurrent reader
  // sees either the old version or the new one, never a torn mix.
  // Missing `from` is an ENOENT-carrying IoError. The base default is
  // kUnimplemented for devices without an atomic swap.
  virtual util::Status Rename(const std::string& from, const std::string& to);

  // Flushes the directory entry metadata of `dir` to durable storage —
  // the second half of a durable atomic publish: rename(tmp, final)
  // makes the swap atomic, fsync(parent dir) makes it survive power
  // loss. The base default is an Ok no-op (MemDevice and the simulated
  // wrappers have no directory metadata to harden); PosixDevice opens
  // the directory and fsyncs it.
  virtual util::Status SyncDir(const std::string& dir);

  // Creates and returns a fresh session namespace (a directory on disk
  // devices, a key prefix on MemDevice) for scratch files.
  virtual std::string CreateSessionRoot() = 0;

  // Recursively removes a session root created above.
  virtual void RemoveTree(const std::string& root) = 0;

 private:
  std::string name_;
  IoStats stats_;
};

// Real filesystem. `parent_dir` is where CreateSessionRoot places
// session directories ("" = $TMPDIR or /tmp); Open accepts arbitrary
// filesystem paths, so a parent-less PosixDevice doubles as the default
// device for non-scratch files (user-facing graph/label files).
class PosixDevice : public StorageDevice {
 public:
  explicit PosixDevice(std::string name, std::string parent_dir = "");

  util::Status Open(const std::string& path, OpenMode mode,
                    std::unique_ptr<StorageFile>* out) override;
  util::Status Delete(const std::string& path) override;
  util::Status Rename(const std::string& from, const std::string& to) override;
  util::Status SyncDir(const std::string& dir) override;
  std::string CreateSessionRoot() override;
  void RemoveTree(const std::string& root) override;

 private:
  std::string parent_dir_;
};

// RAM-backed device. Paths are opaque keys ("mem://<name>/s<k>/..." for
// scratch); file contents live in a hash map guarded by a device mutex,
// with per-file locks so a spill worker and the producing thread can
// touch different files concurrently.
class MemDevice : public StorageDevice {
 public:
  explicit MemDevice(std::string name);

  util::Status Open(const std::string& path, OpenMode mode,
                    std::unique_ptr<StorageFile>* out) override;
  util::Status Delete(const std::string& path) override;
  util::Status Rename(const std::string& from, const std::string& to) override;
  std::string CreateSessionRoot() override;
  void RemoveTree(const std::string& root) override;

 private:
  struct FileData {
    std::mutex mu;
    std::vector<char> bytes;
  };

  std::mutex mu_;
  std::uint64_t next_session_ = 0;
  std::unordered_map<std::string, std::shared_ptr<FileData>> files_;
};

// One PosixDevice ("disk<i>") per entry of `scratch_parents`, or a
// single one under `parent_dir` ("" = $TMPDIR or /tmp) when the list is
// empty: IoContext's posix scratch set.
std::vector<std::unique_ptr<StorageDevice>> MakePosixScratchDevices(
    const std::string& parent_dir,
    const std::vector<std::string>& scratch_parents);

// Removes session scratch roots under `parent` whose owning process is
// dead, and returns how many were reaped. A root is reapable when its
// name matches the extscc_<pid>_<seq> scheme AND the pid (from the
// root's .pid file when readable, else from the name) no longer exists
// (kill(pid, 0) == ESRCH). Live pids and unparseable names are left
// untouched. Closes the SIGKILL gap of InstallScratchSignalCleanup:
// PosixDevice::CreateSessionRoot calls this before creating the new
// root, so the next run of any tool sharing the scratch parent reclaims
// the space. Best-effort — reaping failures are ignored.
std::size_t ReapOrphanScratchRoots(const std::string& parent);

// ---- device-model configuration -------------------------------------

enum class DeviceModel { kPosix, kMem, kFaulty };

// Seeded, deterministic fault schedule for FaultInjectingDevice
// (fault_injection.h). Every decision derives from (seed, device op
// ordinal) alone, so a given configuration injects the same faults at
// the same ops on every run — the property the chaos tests key on.
struct FaultSpec {
  std::uint64_t seed = 1;
  double read_fault_rate = 0.0;   // transient EIO per read op
  double write_fault_rate = 0.0;  // transient EIO per write op
  double short_rate = 0.0;        // torn transfer, then transient EIO
  double corrupt_rate = 0.0;      // silent bit flip in a read payload
  // > 0: from device op ordinal N on, writes fail persistently with
  // ENOSPC (the disk filled up) / reads with EIO (the disk died).
  std::uint64_t fail_writes_after = 0;
  std::uint64_t fail_reads_after = 0;
  // Only paths containing this substring fault ("" = all). Scratch
  // files are named "<seq>_<tag>", so a placement tag like "sortrun"
  // targets exactly the spill path.
  std::string path_tag;
  // >= 0: only scratch device with this index faults (its wrapper gets
  // the schedule; siblings are built clean) — the single-bad-disk
  // failover scenario.
  int device_index = -1;
  // What backs the wrapper: kPosix (default) or kMem.
  DeviceModel inner = DeviceModel::kPosix;
};

struct DeviceModelSpec {
  DeviceModel model = DeviceModel::kPosix;
  // FaultInjectingDevice parameters (kFaulty only).
  FaultSpec fault;
};

// Parses "posix" | "mem" | "faulty[:key=value[,key=value...]]" into
// *out. Returns "" on
// success, else an error message naming the bad spec. Used by the
// --device-model flags and the test-env override. Faulty keys: seed=N,
// rate=R (read and write transient rate), read_rate=R, write_rate=R,
// short=R, corrupt=R, wfail_after=N, rfail_after=N, tag=S, device=N,
// inner=posix|mem.
std::string ParseDeviceModelSpec(const std::string& text,
                                 DeviceModelSpec* out);

// True when `status` is a transient I/O failure worth retrying at the
// BlockFile layer: an errno-carrying IoError whose errno is EIO, EINTR,
// EAGAIN or ETIMEDOUT. ENOSPC, open failures surfaced as ENOENT,
// truncated transfers (no errno) and kCorruption are persistent — they
// propagate (and may quarantine the device) instead of burning retries.
bool IsRetryableIoError(const util::Status& status);

// Returns "" when every entry is an existing writable directory, else a
// message naming the first bad entry (ValidateMachineOptions' check).
std::string ValidateScratchParents(const std::vector<std::string>& parents);

}  // namespace extscc::io

#endif  // EXTSCC_IO_STORAGE_H_
