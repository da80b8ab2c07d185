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
// the per-device accounting.
//
// BlockFile is also the fault-tolerance seam (docs/robustness.md):
// every raw device transfer runs under a bounded exponential-backoff
// retry policy (transient faults are retried and
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

  // Closes the device handle and returns the file's final status — the
  // error-checked shutdown the destructor performs unchecked.
  // Idempotent; the file is dead afterwards.
  util::Status Close();

  // Flushes every written block to durable storage (StorageFile::Sync).
  // Counted in IoStats::sync_calls — never as a model I/O: an fsync
  // moves no blocks in the Aggarwal-Vitter model. Publish and
  // checkpoint paths call this before the atomic rename; scratch
  // streams never do.
  util::Status Sync();

  // First error this file hit (open failure, exhausted retries,
  // checksum mismatch), or OK. Sticky; also latched on the context at
  // record time.
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
  // Records the model accounting for a read of `block_index` carrying
  // `bytes` payload bytes.
  void CountRead(std::uint64_t block_index, std::size_t bytes);

  // Ditto for a write of `bytes` payload bytes.
  void CountWrite(std::uint64_t block_index, std::size_t bytes);

  // Uncounted raw read of one block into `buf`; *bytes gets the payload
  // size (0 past EOF). Runs the retry policy and the checksum check.
  util::Status PreadBlock(std::uint64_t block_index, void* buf,
                          std::size_t* bytes);

  // Uncounted raw device write of one block's payload (retry policy and
  // checksum trailer included).
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
  // Sticky first error; guarded by status_mu_ (status() may be polled
  // from another thread than the one doing the I/O).
  mutable std::mutex status_mu_;
  util::Status status_;
};

}  // namespace extscc::io

#endif  // EXTSCC_IO_BLOCK_FILE_H_
