// Pluggable storage devices. Every byte the library moves goes through a
// StorageDevice: BlockFile resolves its path to a device at open and
// issues ReadAt/WriteAt against the device's StorageFile handle, counting
// each block transfer both in the IoContext's aggregate IoStats and in
// the device's own IoStats — so layers above can reason about *which*
// device a stream lives on (round-robin run placement, per-device
// accounting and the busiest-device critical path).
//
// Three implementations:
//  - PosixDevice: the real filesystem (pread/pwrite), current behavior.
//  - MemDevice: RAM-backed scratch for tests and page-cache-free
//    microbenches. Block accounting is identical to PosixDevice byte for
//    byte; the backing store is ordinary heap memory *outside* the
//    simulated MemoryBudget (it models the disk, not M).
//  - ThrottledDevice: wraps another device and charges simulated
//    per-operation latency plus bandwidth time, so multi-disk speedup is
//    measurable without real spindles. Debt is accumulated and slept in
//    chunks, keeping the distortion of sub-scheduler-quantum sleeps out
//    of the model.
#ifndef EXTSCC_IO_STORAGE_H_
#define EXTSCC_IO_STORAGE_H_

#include <chrono>
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

// Simulated-latency wrapper: delegates storage to `inner` and charges
// `latency_us` per block operation plus transfer time at `mb_per_sec`
// (0 = unlimited bandwidth). The device keeps a virtual busy-until
// clock: each operation reserves the next `cost` span of the device's
// timeline under the per-device mutex, then sleeps to its own end time
// OUTSIDE every lock. Concurrent operations on ONE device therefore
// serialize in simulated time (two readers share the spindle's
// bandwidth), while operations on DISTINCT devices overlap fully — two
// throttled devices sustain twice one device's bandwidth. Sleeps
// shorter than a
// scheduler quantum are deferred (the clock simply runs ahead of real
// time until >= 1 ms is owed), so sub-quantum sleep_for slack does not
// distort the simulated rate; oversleep self-corrects because the next
// operation starts from real `now` again.
class ThrottledDevice : public StorageDevice {
 public:
  ThrottledDevice(std::string name, std::unique_ptr<StorageDevice> inner,
                  std::uint64_t latency_us, std::uint64_t mb_per_sec);

  util::Status Open(const std::string& path, OpenMode mode,
                    std::unique_ptr<StorageFile>* out) override;
  util::Status Delete(const std::string& path) override;
  util::Status Rename(const std::string& from, const std::string& to) override;
  util::Status SyncDir(const std::string& dir) override;
  std::string CreateSessionRoot() override;
  void RemoveTree(const std::string& root) override;

  // Charges the simulated cost of one operation moving `bytes` bytes and
  // sleeps it off. Callers must not hold any lock shared with another
  // device's operations — sleeping under a shared lock would serialize
  // devices that the simulation promises are independent.
  void ChargeOp(std::size_t bytes);

 private:
  std::unique_ptr<StorageDevice> inner_;
  std::uint64_t latency_ns_;
  double ns_per_byte_;
  // Guards the clock state only; never held across a sleep or an inner
  // op. `unslept_` carries sub-quantum cost that was charged but not
  // yet slept across idle re-anchors of the timeline, so a consumer
  // slower than the device still experiences the configured rate.
  std::mutex clock_mu_;
  std::chrono::steady_clock::time_point busy_until_{};
  std::chrono::nanoseconds unslept_{0};
};

// One PosixDevice ("disk<i>") per entry of `scratch_parents`, or a
// single one under `parent_dir` ("" = $TMPDIR or /tmp) when the list is
// empty. The one construction path shared by the TempFileManager
// convenience ctor and IoContext's options path, so both produce
// identical device sets (names, parents, order).
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

enum class DeviceModel { kPosix, kMem, kThrottled, kFaulty };

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
  // ThrottledDevice parameters (kThrottled only).
  std::uint64_t throttle_latency_us = 100;
  std::uint64_t throttle_mb_per_sec = 1024;
  // FaultInjectingDevice parameters (kFaulty only).
  FaultSpec fault;
};

// Parses "posix" | "mem" | "throttled[:latency_us[:mb_per_s]]" |
// "faulty[:key=value[,key=value...]]" into *out. Returns "" on
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
