#include "io/block_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "io/checksum.h"
#include "io/io_context.h"
#include "util/logging.h"

namespace extscc::io {

namespace {

// The retry policy against transient device faults: kIoRetryAttempts
// TOTAL device attempts per block op; the k-th retry sleeps
// min(kIoRetryBackoffInitialUs << (k-1), kIoRetryBackoffMaxUs). A
// fault-free run takes none, so the policy leaves the Aggarwal-Vitter
// numbers untouched.
constexpr std::size_t kIoRetryAttempts = 4;
constexpr std::uint64_t kIoRetryBackoffInitialUs = 200;
constexpr std::uint64_t kIoRetryBackoffMaxUs = 20'000;

// Bounded exponential backoff around one raw device transfer. Only
// transient errors (IsRetryableIoError) burn attempts; each retry is
// counted in the retry counters of both the context aggregate and the
// device (under stats_mutex), never as a model I/O. Callers hold no
// locks here (the backoff sleeps).
template <typename Op>
util::Status RunWithRetries(IoContext* context, StorageDevice* device,
                            bool is_read, Op&& op) {
  std::uint64_t backoff_us = kIoRetryBackoffInitialUs;
  for (std::size_t attempt = 1;; ++attempt) {
    util::Status status = op();
    if (status.ok() || attempt >= kIoRetryAttempts ||
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
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(backoff_us * 2, kIoRetryBackoffMaxUs);
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

// Per-thread staging buffer for checksummed transfers: a sort_threads
// spill worker writes run files while the producer reads its input, so
// the staging area is per thread.
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
    device_->stats().files_created += 1;
  }
}

BlockFile::~BlockFile() {
  // Unchecked shutdown: Close() already routed any drain error through
  // MarkError, so nothing is lost — it sits latched on the context.
  (void)Close();
}

util::Status BlockFile::Close() {
  file_.reset();
  return status();
}

util::Status BlockFile::Sync() {
  if (file_ == nullptr) return status();
  const util::Status sync_status = RunWithRetries(
      context_, device_, /*is_read=*/false, [&] { return file_->Sync(); });
  {
    std::lock_guard<std::mutex> lock(context_->stats_mutex());
    context_->stats().sync_calls += 1;
    device_->stats().sync_calls += 1;
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

util::Status BlockFile::PreadBlock(std::uint64_t block_index, void* buf,
                                   std::size_t* bytes) {
  *bytes = 0;
  if (file_ == nullptr) return status();  // dead open
  const std::uint64_t offset = block_index * block_size_;
  if (offset >= size_bytes_) return util::Status::Ok();  // past EOF
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(block_size_, size_bytes_ - offset));
  if (!checksummed_) {
    RETURN_IF_ERROR(RunWithRetries(context_, device_, /*is_read=*/true, [&] {
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
  RETURN_IF_ERROR(RunWithRetries(context_, device_, /*is_read=*/true, [&] {
    return file_->ReadAt(phys, staging.data(), want + kChecksumTrailerBytes);
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
  IoStats& device_stats = device_->stats();
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

std::size_t BlockFile::ReadBlock(std::uint64_t block_index, void* buf) {
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
  IoStats& device_stats = device_->stats();
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
    return RunWithRetries(context_, device_, /*is_read=*/false, [&] {
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
  return RunWithRetries(context_, device_, /*is_read=*/false, [&] {
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
