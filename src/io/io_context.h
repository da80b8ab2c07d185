// IoContext bundles the external-memory machine model: block size B,
// memory budget M, the storage devices and scratch-file manager, the I/O
// statistics, and an optional I/O budget used to censor runaway
// algorithms the way the paper censors DFS-SCC at 24 hours ("INF").
#ifndef EXTSCC_IO_IO_CONTEXT_H_
#define EXTSCC_IO_IO_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "io/io_stats.h"
#include "io/memory_budget.h"
#include "io/storage.h"
#include "io/temp_file_manager.h"

namespace extscc::io {

struct IoContextOptions {
  // Disk block size B in bytes. The paper's testbed uses 256 KB; the
  // scaled default here is 64 KB so block counts stay meaningful on
  // 10^5-10^6-node graphs.
  std::size_t block_size = 64 * 1024;

  // Simulated memory size M in bytes. Must satisfy M >= 2 * block_size.
  std::uint64_t memory_bytes = 400 * 1024;

  // 0 = unlimited. When > 0, total_ios() beyond this trips
  // io_budget_exceeded(); long-running algorithms poll it and return
  // ResourceExhausted, which benches print as the paper's INF.
  std::uint64_t io_budget = 0;

  // Scratch directory parent ("" = $TMPDIR or /tmp).
  std::string temp_parent_dir;

  // Multi-disk scratch: when non-empty, one scratch StorageDevice is
  // built per listed parent directory (one entry per spindle/NVMe
  // namespace) and new scratch files are assigned round-robin across
  // them, so consecutive sort runs land on distinct devices. Overrides
  // temp_parent_dir. (Under device_model kMem the entries only set the
  // device *count*; the backing is RAM.)
  std::vector<std::string> scratch_dirs;

  // What backs the scratch devices: real files (kPosix, the default and
  // production backing), RAM (kMem — page-cache-free tests and
  // microbenches), or seeded fault injection (kFaulty — the chaos
  // suites). The model never changes the block accounting, only where
  // the bytes live.
  DeviceModelSpec device_model;

  // ---- fault tolerance (docs/robustness.md) --------------------------
  // Transient device faults are retried by BlockFile under a fixed
  // bounded-backoff policy (RunWithRetries in block_file.cc); retries
  // are counted in IoStats::{read,write}_retries, never as model I/Os.

  // Append a CRC32 trailer to every scratch block and verify it on
  // read (mismatch = kCorruption, never retried — re-reading flipped
  // bits re-reads flipped bits). Off by default: checksummed scratch
  // files have a different physical stride (block_size + 4), so the
  // default keeps scratch files byte-identical to the fault-oblivious
  // engine. Applies to scratch streams only (kRead/kTruncateWrite);
  // user-facing graph/label files and random-access kReadWrite files
  // stay raw.
  bool checksum_blocks = false;
};

// ---- machine options ---------------------------------------------------
// The two options every front end offers for the machines it builds —
// extscc_tool's global flags, the benches' flags and EXTSCC_BENCH_*
// variables, the test suites' EXTSCC_TEST_* variables — parsed once,
// here:
//
//   flag                     variable suffix   field
//   --scratch-dirs=a,b,...   SCRATCH_DIRS      scratch_dirs
//   --device-model=MODEL     DEVICE_MODEL      device_model
//
// MODEL is ParseDeviceModelSpec's syntax (storage.h). Each parser
// returns "" on success, else an error naming the offending option.

// Command-line form: applies `flag` (--NAME=VALUE) to *options. A flag
// without a value, or one that names no machine option, is an error
// too, so callers with flags of their own test those first.
std::string ParseMachineFlag(const std::string& flag,
                             IoContextOptions* options);

// Environment form: applies every `<prefix><SUFFIX>` variable that is
// set and non-empty, in table order; the error names the variable.
std::string ParseMachineEnv(const std::string& prefix,
                            IoContextOptions* options);

// Rejects a --scratch-dirs entry that is not a writable directory under
// a file-backed device model, naming it — so the tools fail up front
// instead of CHECK-failing deep inside TempFileManager. Under kMem (and
// faulty over mem) the entries only set the device count.
std::string ValidateMachineOptions(const IoContextOptions& options);

class IoContext {
 public:
  explicit IoContext(const IoContextOptions& options);

  IoContext(const IoContext&) = delete;
  IoContext& operator=(const IoContext&) = delete;

  std::size_t block_size() const { return options_.block_size; }
  bool checksum_blocks() const { return options_.checksum_blocks; }

  // The stats object itself; serve's query threads (serve::RunQueries)
  // count I/Os concurrently, so all mutation (and any read racing a
  // live batch) must hold stats_mutex(). BlockFile is the only mutator;
  // callers snapshotting between phases (no query batch live) may read
  // without the lock.
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  std::mutex& stats_mutex() { return stats_mu_; }

  MemoryBudget& memory() { return memory_; }
  TempFileManager& temp_files() { return temp_files_; }

  // The device that owns `path`: the scratch device whose session root
  // contains it, or the context's default PosixDevice for non-scratch
  // (user-supplied) paths. Never nullptr.
  StorageDevice* ResolveDevice(const std::string& path) {
    StorageDevice* device = temp_files_.DeviceForPath(path);
    return device != nullptr ? device : &base_device_;
  }

  // Per-device statistics view: the default device first, then the
  // scratch devices in configuration order. Same locking convention as
  // stats(): snapshot between phases, or hold stats_mutex() while a
  // query batch is live.
  struct DeviceStatsRow {
    std::string name;
    IoStats stats;
  };
  std::vector<DeviceStatsRow> DeviceStats() const;

  // Critical-path metric for multi-device scratch: with devices
  // operating independently, a phase's lower bound is the busiest
  // device's I/O count, not the aggregate.
  std::uint64_t max_per_device_ios() const;

  // Unique scratch path with a descriptive tag ("ein", "run", ...).
  std::string NewTempPath(const std::string& tag) {
    return temp_files_.NewPath(tag);
  }

  // I/O budget censoring.
  void set_io_budget(std::uint64_t budget) { options_.io_budget = budget; }
  std::uint64_t io_budget() const { return options_.io_budget; }
  bool io_budget_exceeded() const {
    return io_budget_exceeded_.load(std::memory_order_relaxed);
  }
  void reset_io_budget_flag() {
    io_budget_exceeded_.store(false, std::memory_order_relaxed);
  }

  // Called by BlockFile after every counted I/O (under stats_mutex()).
  void OnIo();

  // ---- I/O error latch ------------------------------------------------
  // First-wins record of an unrecovered I/O error anywhere in the
  // context (a failed spill, a failed read or write). The long-running
  // algorithms poll has_io_error() at phase boundaries — the same
  // discipline as io_budget_exceeded() — so an error parked deep in a
  // stream surfaces as a typed Status on the driver API instead of a
  // crash or a silent wrong answer.

  // Records `status` if the latch is empty (no-op for OK and for an
  // already-latched context).
  void RecordIoError(const util::Status& status);

  // Lock-free poll.
  bool has_io_error() const {
    return has_io_error_.load(std::memory_order_acquire);
  }

  // Copy of the latched error (OK when the latch is empty).
  util::Status io_error() const;

  // Clears the latch iff the latched error's code and message match
  // `recovered` — the failover path's absorb step: after a quarantined
  // device's lost run is re-formed elsewhere, the error that triggered
  // the failover is consumed so the recovered solve doesn't fail on a
  // stale latch. An error recorded by an UNRELATED failure in the
  // meantime stays latched. Returns true when the latch was cleared.
  bool AbsorbIoError(const util::Status& recovered);

  // Test hook: unconditionally clears the latch.
  void reset_io_error();

 private:
  IoContextOptions options_;
  IoStats stats_;
  std::mutex stats_mu_;
  MemoryBudget memory_;
  // Default device for BlockFile paths outside every scratch root —
  // user-facing graph/label files on the real filesystem.
  PosixDevice base_device_{"base"};
  TempFileManager temp_files_;
  // Atomic: set under stats_mutex() by whichever thread trips the
  // budget, polled lock-free by the algorithm's main loop.
  std::atomic<bool> io_budget_exceeded_{false};
  // I/O error latch: the Status under its own mutex (never held across
  // device I/O), the flag mirroring it for lock-free polling.
  mutable std::mutex io_error_mu_;
  util::Status io_error_;
  std::atomic<bool> has_io_error_{false};
};

}  // namespace extscc::io

#endif  // EXTSCC_IO_IO_CONTEXT_H_
