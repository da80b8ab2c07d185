#include "io/block_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "io/checksum.h"
#include "io/io_context.h"
#include "io/read_scheduler.h"
#include "util/logging.h"

namespace extscc::io {

namespace {

// Bounded exponential backoff around one raw device transfer. Only
// transient errors (IsRetryableIoError) burn attempts; each retry is
// counted in the retry counters of both the context aggregate and the
// device (under stats_mutex), never as a model I/O. Callers hold no
// locks here (the backoff sleeps).
template <typename Op>
util::Status RunWithRetries(IoContext* context, StorageDevice* device,
                            bool is_read, Op&& op) {
  const std::size_t max_attempts =
      std::max<std::size_t>(1, context->io_retry_attempts());
  std::uint64_t backoff_us = context->io_retry_backoff_initial_us();
  for (std::size_t attempt = 1;; ++attempt) {
    util::Status status = op();
    if (status.ok() || attempt >= max_attempts ||
        !IsRetryableIoError(status)) {
      return status;
    }
    {
      std::lock_guard<std::mutex> lock(context->stats_mutex());
      IoStats& stats = context->stats();
      IoStats& device_stats = device->stats();
      if (is_read) {
        stats.read_retries += 1;
        device_stats.read_retries += 1;
      } else {
        stats.write_retries += 1;
        device_stats.write_retries += 1;
      }
    }
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
    backoff_us = std::min(std::max<std::uint64_t>(1, backoff_us) * 2,
                          context->io_retry_backoff_max_us());
  }
}

// Payload bytes in a checksummed file whose on-device size is
// `physical`: N full strides carry N full blocks; a trailing partial
// stride carries its bytes minus the trailer. (A partial stride of
// <= 4 bytes is a torn final write; treating its payload as 0 lets the
// reader surface the problem as a short file instead of crashing.)
std::uint64_t LogicalSizeFromPhysical(std::uint64_t physical,
                                      std::size_t block_size) {
  const std::uint64_t stride = block_size + kChecksumTrailerBytes;
  const std::uint64_t full = physical / stride;
  const std::uint64_t rem = physical % stride;
  return full * block_size +
         (rem > kChecksumTrailerBytes ? rem - kChecksumTrailerBytes : 0);
}

// Per-thread staging buffer for checksummed transfers: PreadBlock runs
// concurrently on the consumer and the scheduler's device workers, so
// the staging area cannot be per-file state.
std::vector<char>& ChecksumStaging(std::size_t block_size) {
  static thread_local std::vector<char> staging;
  if (staging.size() < block_size + kChecksumTrailerBytes) {
    staging.resize(block_size + kChecksumTrailerBytes);
  }
  return staging;
}

}  // namespace

BlockFile::BlockFile(IoContext* context, const std::string& path,
                     OpenMode mode)
    : context_(context),
      path_(path),
      device_(context->ResolveDevice(path)),
      block_size_(context->block_size()) {
  // Checksums cover sequential scratch streams only: user-facing files
  // must stay raw bytes, and kReadWrite random-access rewrites would
  // need read-modify-write of interior trailers.
  checksummed_ = context->checksum_blocks() &&
                 mode != OpenMode::kReadWrite &&
                 context->temp_files().DeviceForPath(path) != nullptr;
  const util::Status open_status = device_->Open(path, mode, &file_);
  if (!open_status.ok()) {
    MarkError(open_status);
    return;
  }
  size_bytes_ = checksummed_
                    ? LogicalSizeFromPhysical(file_->size_bytes(), block_size_)
                    : file_->size_bytes();
  if (mode == OpenMode::kTruncateWrite) {
    std::lock_guard<std::mutex> lock(context_->stats_mutex());
    context_->stats().files_created += 1;
    // Striped files charge their creation to the member owning block 0,
    // keeping per-device rows summing to the aggregate.
    StatsDevice(0)->stats().files_created += 1;
  }
}

BlockFile::~BlockFile() {
  // Unchecked shutdown: Close() already routed any drain error through
  // MarkError, so nothing is lost — it sits latched on the context.
  (void)Close();
}

util::Status BlockFile::Close() {
  // Unregister drains a pending async write before the handle closes,
  // so a run file reopened for merging sees every submitted block.
  if (sched_reader_ != nullptr) {
    context_->read_scheduler()->Unregister(sched_reader_);
    sched_reader_ = nullptr;
  }
  if (sched_writer_ != nullptr) {
    context_->read_scheduler()->Unregister(sched_writer_);
    sched_writer_ = nullptr;
  }
  file_.reset();
  return status();
}

util::Status BlockFile::Sync() {
  if (file_ == nullptr) return status();
  // Drain a pending overlapped write first: fsync hardens only bytes
  // the device has already accepted.
  if (sched_writer_ != nullptr) {
    context_->read_scheduler()->Unregister(sched_writer_);
    sched_writer_ = nullptr;
  }
  const util::Status sync_status = RunWithRetries(
      context_, StatsDevice(0), /*is_read=*/false,
      [&] { return file_->Sync(); });
  {
    std::lock_guard<std::mutex> lock(context_->stats_mutex());
    context_->stats().sync_calls += 1;
    StatsDevice(0)->stats().sync_calls += 1;
  }
  if (!sync_status.ok()) MarkError(sync_status);
  return sync_status;
}

util::Status BlockFile::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_;
}

void BlockFile::MarkError(const util::Status& status) {
  if (status.ok()) return;
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    if (status_.ok()) status_ = status;
  }
  context_->RecordIoError(status);
}

std::uint64_t BlockFile::num_blocks() const {
  return (size_bytes_ + block_size_ - 1) / block_size_;
}

std::uint64_t BlockFile::PhysicalOffset(std::uint64_t block_index) const {
  const std::uint64_t stride =
      checksummed_ ? block_size_ + kChecksumTrailerBytes : block_size_;
  return block_index * stride;
}

void BlockFile::StartSequentialPrefetch(std::uint64_t start_block) {
  // Read-ahead runs on the context's shared ReadScheduler; the serial
  // engine (io_threads == 0) reads directly. Register degrades to
  // nullptr (direct reads) when the budget cannot cover even one ring
  // slot.
  ReadScheduler* scheduler = context_->read_scheduler();
  if (scheduler == nullptr || sched_reader_ != nullptr) return;
  if (file_ == nullptr) return;  // dead open: nothing to read ahead
  if (start_block >= num_blocks()) return;  // nothing to read ahead
  sched_reader_ = scheduler->RegisterReader(this, start_block);
}

util::Status BlockFile::PreadBlock(std::uint64_t block_index, void* buf,
                                   std::size_t* bytes) {
  *bytes = 0;
  if (file_ == nullptr) return status();  // dead open
  const std::uint64_t offset = block_index * block_size_;
  if (offset >= size_bytes_) return util::Status::Ok();  // past EOF
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(block_size_, size_bytes_ - offset));
  if (!checksummed_) {
    // Retries (like the model I/O itself) are charged to the device
    // that owns this block's stripe.
    RETURN_IF_ERROR(RunWithRetries(context_, StatsDevice(block_index),
                                   /*is_read=*/true, [&] {
                                     return file_->ReadAt(offset, buf, want);
                                   }));
    *bytes = want;
    return util::Status::Ok();
  }
  // Checksummed: pull payload + trailer in one transfer, verify, then
  // hand the caller the payload. A mismatch is kCorruption and is NOT
  // retried — re-reading flipped bits yields the same flipped bits; the
  // point is to refuse to merge them into an answer.
  std::vector<char>& staging = ChecksumStaging(block_size_);
  const std::uint64_t phys = PhysicalOffset(block_index);
  RETURN_IF_ERROR(RunWithRetries(
      context_, StatsDevice(block_index), /*is_read=*/true, [&] {
        return file_->ReadAt(phys, staging.data(),
                             want + kChecksumTrailerBytes);
      }));
  const std::uint32_t expected = DecodeChecksumTrailer(staging.data() + want);
  const std::uint32_t actual = Crc32(staging.data(), want);
  if (expected != actual) {
    return util::Status::Corruption(
        "block checksum mismatch in " + path_ + " block " +
        std::to_string(block_index) + " (stored " + std::to_string(expected) +
        ", computed " + std::to_string(actual) + ")");
  }
  std::memcpy(buf, staging.data(), want);
  *bytes = want;
  return util::Status::Ok();
}

void BlockFile::CountRead(std::uint64_t block_index, std::size_t bytes) {
  // Sequential/random classification is per-file state (one thread per
  // open file); only the shared IoStats needs the context lock — a
  // sort_threads spill worker counts its run writes concurrently with
  // the producer's input reads.
  const bool sequential =
      static_cast<std::int64_t>(block_index) == last_read_block_ + 1;
  last_read_block_ = static_cast<std::int64_t>(block_index);
  std::lock_guard<std::mutex> lock(context_->stats_mutex());
  IoStats& stats = context_->stats();
  IoStats& device_stats = StatsDevice(block_index)->stats();
  if (sequential) {
    stats.sequential_reads += 1;
    device_stats.sequential_reads += 1;
  } else {
    stats.random_reads += 1;
    device_stats.random_reads += 1;
  }
  stats.bytes_read += bytes;
  device_stats.bytes_read += bytes;
  context_->OnIo();
}

void BlockFile::EnableOverlappedWrites() {
  if (sched_writer_ != nullptr) return;
  if (file_ == nullptr) return;  // dead open: stay on the no-op sync path
  ReadScheduler* scheduler = context_->read_scheduler();
  if (scheduler == nullptr) return;
  sched_writer_ = scheduler->RegisterWriter(this);  // nullptr: stay sync
}

std::size_t BlockFile::ReadBlock(std::uint64_t block_index, void* buf) {
  DCHECK(sched_writer_ == nullptr)
      << "read from a file with overlapped writes still open";
  if (sched_reader_ != nullptr) {
    std::size_t bytes = 0;
    if (context_->read_scheduler()->TakeBlock(sched_reader_, block_index,
                                              buf, &bytes)) {
      if (bytes == 0) return 0;  // past EOF or parked error: uncounted
      CountRead(block_index, bytes);
      return bytes;
    }
    // Off-sequence request: the stream is no longer sequential, so the
    // read-ahead is useless — drop it and serve directly from here on.
    context_->read_scheduler()->Unregister(sched_reader_);
    sched_reader_ = nullptr;
  }
  std::size_t bytes = 0;
  const util::Status status = PreadBlock(block_index, buf, &bytes);
  if (!status.ok()) {
    MarkError(status);
    return 0;
  }
  if (bytes == 0) return 0;
  CountRead(block_index, bytes);
  return bytes;
}

void BlockFile::CountWrite(std::uint64_t block_index, std::size_t bytes) {
  // Re-writing the same (tail) block counts as sequential append traffic.
  const bool sequential =
      static_cast<std::int64_t>(block_index) == last_write_block_ + 1 ||
      static_cast<std::int64_t>(block_index) == last_write_block_;
  last_write_block_ = static_cast<std::int64_t>(block_index);
  std::lock_guard<std::mutex> lock(context_->stats_mutex());
  IoStats& stats = context_->stats();
  IoStats& device_stats = StatsDevice(block_index)->stats();
  if (sequential) {
    stats.sequential_writes += 1;
    device_stats.sequential_writes += 1;
  } else {
    stats.random_writes += 1;
    device_stats.random_writes += 1;
  }
  stats.bytes_written += bytes;
  device_stats.bytes_written += bytes;
  context_->OnIo();
}

util::Status BlockFile::RawWriteAt(std::uint64_t block_index,
                                   const void* data, std::size_t bytes) {
  if (file_ == nullptr) return status();  // dead open
  if (!checksummed_) {
    return RunWithRetries(context_, StatsDevice(block_index),
                          /*is_read=*/false, [&] {
      return file_->WriteAt(block_index * block_size_, data, bytes);
    });
  }
  // Stage payload + CRC trailer and write them as one transfer, so a
  // torn write cannot leave a block whose trailer postdates its
  // payload. The retry re-stages nothing: the staging content is
  // deterministic in (data, bytes).
  std::vector<char>& staging = ChecksumStaging(block_size_);
  std::memcpy(staging.data(), data, bytes);
  EncodeChecksumTrailer(Crc32(data, bytes), staging.data() + bytes);
  const std::uint64_t phys = PhysicalOffset(block_index);
  return RunWithRetries(context_, StatsDevice(block_index),
                        /*is_read=*/false, [&] {
    return file_->WriteAt(phys, staging.data(),
                          bytes + kChecksumTrailerBytes);
  });
}

void BlockFile::WriteBlock(std::uint64_t block_index, const void* data,
                           std::size_t bytes) {
  CHECK_LE(bytes, block_size_);
  {
    // Once an error is parked the file is dead: stop issuing device
    // writes (one ENOSPC is information, a thousand are noise) and let
    // the caller observe status().
    std::lock_guard<std::mutex> lock(status_mu_);
    if (!status_.ok()) return;
  }
  const std::uint64_t offset = block_index * block_size_;
  if (sched_writer_ != nullptr) {
    // Advance size_bytes_ BEFORE the hand-off (RawWriteAt's off-thread
    // safety contract), then give the block to the device worker
    // (blocks while the previous write is in flight — the
    // double-buffer bound) and account it here in submission order, so
    // IoStats match the synchronous path.
    size_bytes_ = std::max(size_bytes_, offset + bytes);
    context_->read_scheduler()->SubmitWrite(sched_writer_, block_index,
                                            data, bytes);
    CountWrite(block_index, bytes);
    return;
  }
  // Writing beyond the current final partial block would leave a hole of
  // undefined record data; the streaming writers never do this.
  const util::Status status = RawWriteAt(block_index, data, bytes);
  if (!status.ok()) {
    MarkError(status);
    return;
  }
  size_bytes_ = std::max(size_bytes_, offset + bytes);
  CountWrite(block_index, bytes);
}

}  // namespace extscc::io
