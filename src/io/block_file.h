// Block-granular file abstraction. All disk traffic in the library flows
// through BlockFile so the IoContext can count I/Os in the external-memory
// model: one counted I/O per block read/written, classified sequential or
// random by adjacency to the previous access of the same file+direction.
//
// BlockFile is seated on a StorageDevice (storage.h): the path resolves
// to the device whose session root contains it (the context's default
// PosixDevice for non-scratch paths), raw transfers go through the
// device's StorageFile handle, and every counted I/O lands in the
// device's own IoStats as well as the context aggregate — the basis of
// the per-device accounting and the parallel-bandwidth model.
//
// BlockFile is also the fault-tolerance seam (docs/robustness.md):
// every raw device transfer runs under the context's bounded
// exponential-backoff retry policy (transient faults are retried and
// counted in IoStats::{read,write}_retries — never as model I/Os),
// persistent failures park a sticky per-file status() AND latch the
// context's I/O error (IoContext::RecordIoError), and — when
// IoContextOptions::checksum_blocks is on — scratch blocks carry a
// CRC32 trailer verified on read (mismatch = kCorruption, not
// retried). The block-returning ReadBlock/WriteBlock signatures are
// unchanged: on error they report EOF-shaped results (0 bytes / no-op)
// and the caller observes the failure through status(), so the hot
// loops above stay branch-light and the error still cannot be lost.
#ifndef EXTSCC_IO_BLOCK_FILE_H_
#define EXTSCC_IO_BLOCK_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "io/storage.h"
#include "util/status.h"

namespace extscc::io {

class IoContext;
class ReadScheduler;
class ScheduledStream;

class BlockFile {
 public:
  // Opens `path` on the device the context resolves for it. On an open
  // failure the file is constructed dead: status() carries the
  // errno-typed IoError (also latched on the context), reads return 0
  // and writes no-op. Callers opening user-supplied paths should check
  // Exists()/status() (graph_io does).
  BlockFile(IoContext* context, const std::string& path, OpenMode mode);
  ~BlockFile();

  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  // Reads block `block_index` into `buf` (must hold block_size bytes).
  // Returns the number of valid bytes (< block_size only for the final,
  // partial block; 0 past EOF — and 0 on a parked error, see status()).
  // Counts one I/O per successfully consumed block.
  std::size_t ReadBlock(std::uint64_t block_index, void* buf);

  // Writes `bytes` bytes (<= block_size) at block `block_index`.
  // Counts one I/O. A no-op once an error is parked.
  void WriteBlock(std::uint64_t block_index, const void* data,
                  std::size_t bytes);

  // Arranges read-ahead for a sequential scan of blocks
  // `start_block`..EOF. kRead files only. With io_threads > 0 the file
  // registers a stream with the context's shared ReadScheduler (one I/O
  // worker per device keeps up to prefetch_depth blocks in flight). I/O
  // statistics are still recorded on the consumer thread as each block
  // is consumed by ReadBlock, so the model accounting is identical with
  // and without read-ahead. A no-op at io_threads == 0 or when the
  // MemoryBudget cannot cover a ring slot; ReadBlock falls back to a
  // direct device read whenever a request leaves the sequential order
  // (sequential readers never do).
  void StartSequentialPrefetch(std::uint64_t start_block = 0);

  // Routes subsequent WriteBlock calls through the device's I/O worker
  // with one block in flight (double buffering): the device write of
  // block N overlaps the production of block N+1, and a slow device
  // backpressures the producer. Write statistics are counted on the
  // submitting thread in submission order, so IoStats are identical to
  // the synchronous path. A no-op without a ReadScheduler
  // (io_threads == 0) or when the budget cannot cover the slot. The
  // caller must not read the file until it is closed (the streaming
  // writers never do).
  void EnableOverlappedWrites();

  // Drains any in-flight async write, closes the device handle, and
  // returns the file's final status — the error-checked shutdown the
  // destructor performs unchecked. Idempotent; the file is dead
  // afterwards.
  util::Status Close();

  // Flushes every written block to durable storage (StorageFile::Sync,
  // draining an in-flight overlapped write first). Counted in
  // IoStats::sync_calls — never as a model I/O: an fsync moves no
  // blocks in the Aggarwal-Vitter model. Publish and checkpoint paths
  // call this before the atomic rename; scratch streams never do.
  util::Status Sync();

  // First error this file hit (open failure, exhausted retries,
  // checksum mismatch, failed async write), or OK. Sticky; also
  // latched on the context at record time.
  util::Status status() const;

  // Logical file size in bytes / in blocks (payload only — checksum
  // trailers are invisible above the raw layer).
  std::uint64_t size_bytes() const { return size_bytes_; }
  std::uint64_t num_blocks() const;

  std::size_t block_size() const { return block_size_; }
  const std::string& path() const { return path_; }
  IoContext* context() const { return context_; }
  StorageDevice* device() const { return device_; }

 private:
  friend class ReadScheduler;  // PreadBlock / RawWriteAt on its workers

  // The stripe member devices when this file lives on a StripedDevice
  // (block b is owned by member b % D), else nullptr. Immutable per
  // open handle.
  const std::vector<StorageDevice*>* StripeDevices() const {
    return file_ != nullptr ? file_->stripe_devices() : nullptr;
  }

  // The device charged for an I/O on `block_index`: the stripe member
  // owning that block, or the file's own device. Keeps per-device rows
  // summing to the aggregate — the StripedDevice's own stats stay zero.
  StorageDevice* StatsDevice(std::uint64_t block_index) const {
    const std::vector<StorageDevice*>* stripe = StripeDevices();
    return stripe != nullptr ? (*stripe)[block_index % stripe->size()]
                             : device_;
  }

  // Records the model accounting for a consumed read of `block_index`
  // carrying `bytes` payload bytes (shared by the direct and read-ahead
  // paths; always runs on the consumer thread).
  void CountRead(std::uint64_t block_index, std::size_t bytes);

  // Ditto for a write of `bytes` payload bytes, on the producing thread.
  void CountWrite(std::uint64_t block_index, std::size_t bytes);

  // Uncounted raw read of one block into `buf`; *bytes gets the payload
  // size (0 past EOF). Runs the retry policy and the checksum check.
  // Thread-safe (positional device read, thread-local staging) — the
  // scheduler's device workers use it directly.
  util::Status PreadBlock(std::uint64_t block_index, void* buf,
                          std::size_t* bytes);

  // Uncounted raw device write of one block's payload (retry policy and
  // checksum trailer included), used by the scheduler's device workers
  // and the sync write path. Touches no BlockFile state (the submitter
  // already advanced size_bytes_), so it is safe off-thread.
  util::Status RawWriteAt(std::uint64_t block_index, const void* data,
                          std::size_t bytes);

  // Parks `status` as this file's sticky error (first wins) and latches
  // it on the context. Thread-safe; OK is ignored.
  void MarkError(const util::Status& status);

  // Physical byte offset of `block_index` (stride block_size_ + 4 when
  // checksummed).
  std::uint64_t PhysicalOffset(std::uint64_t block_index) const;

  IoContext* context_;
  std::string path_;
  StorageDevice* device_;
  std::unique_ptr<StorageFile> file_;
  std::size_t block_size_;
  std::uint64_t size_bytes_ = 0;
  // Scratch stream with CRC32 trailers (checksum_blocks option).
  bool checksummed_ = false;
  // Sequential/random classification state.
  std::int64_t last_read_block_ = -2;
  std::int64_t last_write_block_ = -2;
  // Sticky first error; guarded by status_mu_ (scheduler workers park
  // errors concurrently with the consumer).
  mutable std::mutex status_mu_;
  util::Status status_;
  // Scheduler streams (io_threads > 0): read-ahead ring / async writes.
  ScheduledStream* sched_reader_ = nullptr;
  ScheduledStream* sched_writer_ = nullptr;
};

}  // namespace extscc::io

#endif  // EXTSCC_IO_BLOCK_FILE_H_
