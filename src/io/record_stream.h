// Typed record streams over BlockFile. Records are fixed-size trivially
// copyable PODs (graph::Edge, DegreeEntry, SccEntry, ...). Streaming
// readers/writers buffer exactly one block per open stream — the
// accounting the external-memory analyses in the paper assume. The
// batch APIs (NextBatch/AppendBatch) move whole block-aligned spans per
// memcpy instead of one record at a time. The one-record calls
// (RecordReader::Next, RecordWriter::Append) are inline: a record that
// lies wholly inside the current block costs one bounds check and one
// fixed-size memcpy, and only block-straddling records, refills, flushes
// and parked errors take the batch loop. PeekableReader is a one-record
// lookahead over RecordReader, so every sequential read shares one block
// decoder.
#ifndef EXTSCC_IO_RECORD_STREAM_H_
#define EXTSCC_IO_RECORD_STREAM_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "io/block_file.h"
#include "io/io_context.h"
#include "util/logging.h"

namespace extscc::io {

// Number of T records stored in the file at `path` (by its byte size).
// The file must exist; missing files CHECK-fail (scratch discipline).
template <typename T>
std::uint64_t NumRecordsInFile(IoContext* context, const std::string& path) {
  static_assert(std::is_trivially_copyable_v<T>);
  BlockFile file(context, path, OpenMode::kRead);
  CHECK_EQ(file.size_bytes() % sizeof(T), 0u)
      << path << " is not a whole number of records";
  return file.size_bytes() / sizeof(T);
}

// Sequential append-only writer.
template <typename T>
class RecordWriter {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "on-disk records must be PODs");

  RecordWriter(IoContext* context, const std::string& path)
      : file_(std::make_unique<BlockFile>(context, path,
                                          OpenMode::kTruncateWrite)),
        buffer_(file_->block_size()) {}

  ~RecordWriter() {
    if (file_ != nullptr) Finish();
  }

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  // One record: copied straight into the block buffer unless it fills or
  // straddles the block, which the batch loop flushes.
  void Append(const T& record) {
    DCHECK(file_ != nullptr) << "Append after Finish";
    if (fill_ + sizeof(T) < buffer_.size()) {
      std::memcpy(buffer_.data() + fill_, &record, sizeof(T));
      fill_ += sizeof(T);
      ++count_;
      return;
    }
    AppendBatch(&record, 1);
  }

  // Appends `n` contiguous records with block-sized memcpy spans instead
  // of one copy per record — the fast path for spilling sort runs and
  // bulk stream rewrites. Records pack contiguously and may straddle
  // block boundaries, so the file is exactly count() * sizeof(T) bytes.
  void AppendBatch(const T* records, std::size_t n) {
    DCHECK(file_ != nullptr) << "Append after Finish";
    const char* src = reinterpret_cast<const char*>(records);
    std::size_t remaining = n * sizeof(T);
    while (remaining > 0) {
      const std::size_t chunk =
          std::min(buffer_.size() - fill_, remaining);
      std::memcpy(buffer_.data() + fill_, src, chunk);
      fill_ += chunk;
      src += chunk;
      remaining -= chunk;
      if (fill_ == buffer_.size()) Flush();
    }
    count_ += n;
  }

  // Flushes the tail block and closes the file, capturing the file's
  // final status. Idempotent via destructor.
  void Finish() {
    if (file_ == nullptr) return;
    if (fill_ > 0) Flush();
    const util::Status closed = file_->Close();
    if (status_.ok()) status_ = closed;
    file_.reset();
  }

  // First write error this stream hit (sticky; also latched on the
  // context by BlockFile). Callers that care check it after Finish();
  // an errored writer silently drops further appends rather than
  // crashing mid-pipeline.
  util::Status status() const {
    if (!status_.ok()) return status_;
    return file_ != nullptr ? file_->status() : util::Status::Ok();
  }

  std::uint64_t count() const { return count_; }

 private:
  void Flush() {
    file_->WriteBlock(next_block_++, buffer_.data(), fill_);
    fill_ = 0;
  }

  std::unique_ptr<BlockFile> file_;
  std::vector<char> buffer_;
  std::size_t fill_ = 0;
  std::uint64_t next_block_ = 0;
  std::uint64_t count_ = 0;
  util::Status status_;
};

// Sequential reader.
template <typename T>
class RecordReader {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  RecordReader(IoContext* context, const std::string& path)
      : file_(std::make_unique<BlockFile>(context, path, OpenMode::kRead)),
        buffer_(file_->block_size()) {
    if (file_->size_bytes() % sizeof(T) != 0) {
      // A mid-record size means a torn final write (or the wrong file):
      // surface kCorruption and read nothing rather than hand the
      // algorithm a partial record. (An already-errored open reports
      // its own status; its size is 0 and passes this check.)
      status_ = util::Status::Corruption(
          path + " is not a whole number of records");
    }
  }

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  // Reads the next record into *out; returns false at end of stream.
  // Records may straddle block boundaries (see RecordWriter::Append);
  // those, refills and errored streams (valid_ == 0) take NextBatch.
  bool Next(T* out) {
    if (pos_ + sizeof(T) <= valid_) {
      std::memcpy(out, buffer_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
      return true;
    }
    return NextBatch(out, 1) == 1;
  }

  // Reads up to `max_records` records into `out` with block-sized memcpy
  // spans instead of one copy per record. Returns the number of records
  // read (< max_records only at end of stream).
  std::size_t NextBatch(T* out, std::size_t max_records) {
    if (!status_.ok()) return 0;  // corrupt-size stream reads nothing
    char* dst = reinterpret_cast<char*>(out);
    std::size_t remaining = max_records * sizeof(T);
    while (remaining > 0) {
      if (pos_ == valid_) {
        valid_ = file_->ReadBlock(next_block_++, buffer_.data());
        pos_ = 0;
        if (valid_ == 0) break;  // end of stream, or a parked error
      }
      const std::size_t chunk = std::min(valid_ - pos_, remaining);
      std::memcpy(dst, buffer_.data() + pos_, chunk);
      pos_ += chunk;
      dst += chunk;
      remaining -= chunk;
    }
    const std::size_t bytes = max_records * sizeof(T) - remaining;
    // A healthy stream can only end on a record boundary (the ctor
    // checked the size); a stream cut short by an I/O error may stop
    // mid-record — the floor drops the torn tail and status() tells
    // the caller the stream is not to be trusted.
    DCHECK(bytes % sizeof(T) == 0 || !status().ok())
        << "file ends mid-record despite the size check";
    return bytes / sizeof(T);
  }

  // First error on this stream: a mid-record file size (kCorruption), or
  // the underlying file's sticky status (open failure, exhausted
  // retries, checksum mismatch). An errored stream reports end-of-stream
  // from NextBatch; callers distinguish true EOF by checking here.
  util::Status status() const {
    return !status_.ok() ? status_ : file_->status();
  }

  std::uint64_t num_records() const { return file_->size_bytes() / sizeof(T); }

 private:
  std::unique_ptr<BlockFile> file_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
  std::size_t valid_ = 0;
  std::uint64_t next_block_ = 0;
  util::Status status_;
};

// One-record lookahead over a RecordReader — the merge joins in Get-V /
// Get-E / Expansion and the sorter's loser tree are written against
// Peek()/Pop()/AdvanceInto(). The per-stream footprint is the reader's
// one block plus the current record, so merge fan-in accounting stays at
// one block per open run, as the external-memory analyses assume; every
// advance is RecordReader::Next's inline bounds check and memcpy.
template <typename T>
class PeekableReader {
 public:
  PeekableReader(IoContext* context, const std::string& path)
      : reader_(context, path) {
    has_value_ = reader_.Next(&cur_);
  }

  bool has_value() const { return has_value_; }
  const T& Peek() const {
    DCHECK(has_value_);
    return cur_;
  }
  T Pop() {
    DCHECK(has_value_);
    T out = cur_;
    has_value_ = reader_.Next(&cur_);
    return out;
  }

  // Drops the current record and reads the next one straight into *out;
  // returns false at end of stream. The loser tree's per-record path:
  // it keeps each run's head itself, so Peek() is not refreshed.
  bool AdvanceInto(T* out) {
    DCHECK(has_value_);
    return reader_.Next(out);
  }

  std::uint64_t num_records() const { return reader_.num_records(); }

  // RecordReader::status(): an errored stream looks exhausted
  // (has_value() false); this distinguishes exhaustion from failure.
  util::Status status() const { return reader_.status(); }

 private:
  RecordReader<T> reader_;
  T cur_{};
  bool has_value_ = false;
};

// Random-access reader used only by the DFS baseline (and by nothing in
// Ext-SCC): Get(i) fetches the block containing record i, generating the
// random I/Os the paper charges external DFS for. A single-block cache
// keeps repeated hits to the same block free, which is exactly the
// M >= 2B machine: one cached block per open structure.
template <typename T>
class RandomRecordReader {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  RandomRecordReader(IoContext* context, const std::string& path)
      : file_(std::make_unique<BlockFile>(context, path, OpenMode::kRead)),
        buffer_(file_->block_size()) {
    CHECK_EQ(file_->size_bytes() % sizeof(T), 0u);
  }

  std::uint64_t num_records() const { return file_->size_bytes() / sizeof(T); }

  T Get(std::uint64_t index) {
    DCHECK_LT(index, num_records());
    // Records pack byte-contiguously, so a record may straddle two
    // blocks; fetch bytes through the one-block cache.
    T out;
    char* dst = reinterpret_cast<char*>(&out);
    std::uint64_t offset = index * sizeof(T);
    std::size_t remaining = sizeof(T);
    while (remaining > 0) {
      const std::uint64_t block = offset / file_->block_size();
      const std::size_t in_block =
          static_cast<std::size_t>(offset % file_->block_size());
      if (static_cast<std::int64_t>(block) != cached_block_) {
        valid_ = file_->ReadBlock(block, buffer_.data());
        cached_block_ = static_cast<std::int64_t>(block);
      }
      const std::size_t chunk = std::min(valid_ - in_block, remaining);
      DCHECK_GT(chunk, 0u);
      std::memcpy(dst, buffer_.data() + in_block, chunk);
      dst += chunk;
      offset += chunk;
      remaining -= chunk;
    }
    return out;
  }

 private:
  std::unique_ptr<BlockFile> file_;
  std::vector<char> buffer_;
  std::int64_t cached_block_ = -1;
  std::size_t valid_ = 0;
};

// Record count per batch for the bulk helpers below: one block's worth,
// so batched scans keep the per-stream footprint at O(B) bytes.
template <typename T>
std::size_t RecordsPerBlock(const IoContext* context) {
  return std::max<std::size_t>(1, context->block_size() / sizeof(T));
}

// Streams every record of `path` through `fn` with one block-sized
// batch buffer — the canonical batched scan loop behind the fused
// pipeline adapters and file utilities. Returns the record count.
template <typename T, typename Fn>
std::uint64_t ForEachRecord(IoContext* context, const std::string& path,
                            Fn fn) {
  RecordReader<T> reader(context, path);
  const std::size_t batch = RecordsPerBlock<T>(context);
  std::vector<T> chunk(batch);
  std::uint64_t total = 0;
  std::size_t got;
  while ((got = reader.NextBatch(chunk.data(), batch)) > 0) {
    for (std::size_t i = 0; i < got; ++i) fn(chunk[i]);
    total += got;
  }
  return total;
}

// Convenience: materializes an entire record file into memory.
// Only for tests and for in-memory base cases whose size was already
// validated against the memory budget by the caller.
template <typename T>
std::vector<T> ReadAllRecords(IoContext* context, const std::string& path) {
  RecordReader<T> reader(context, path);
  std::vector<T> out(reader.num_records());
  const std::size_t got = reader.NextBatch(out.data(), out.size());
  DCHECK(got == out.size() || !reader.status().ok());
  out.resize(got);  // an errored stream yields only what it delivered
  return out;
}

// Convenience: writes `records` to `path` sequentially.
template <typename T>
void WriteAllRecords(IoContext* context, const std::string& path,
                     const std::vector<T>& records) {
  RecordWriter<T> writer(context, path);
  writer.AppendBatch(records.data(), records.size());
  writer.Finish();
}

// Streams every record of `input_path` into `writer` block-batch-wise;
// returns the number of records appended. The workhorse behind file
// concatenation and copy-through stages.
template <typename T>
std::uint64_t AppendAllRecords(IoContext* context,
                               const std::string& input_path,
                               RecordWriter<T>* writer) {
  RecordReader<T> reader(context, input_path);
  const std::size_t batch = RecordsPerBlock<T>(context);
  std::vector<T> chunk(batch);
  std::uint64_t total = 0;
  std::size_t got;
  while ((got = reader.NextBatch(chunk.data(), batch)) > 0) {
    writer->AppendBatch(chunk.data(), got);
    total += got;
  }
  return total;
}

// Copies `input_path` to `output_path` with batched block transfers.
template <typename T>
std::uint64_t CopyAllRecords(IoContext* context, const std::string& input_path,
                             const std::string& output_path) {
  RecordWriter<T> writer(context, output_path);
  const std::uint64_t total = AppendAllRecords(context, input_path, &writer);
  writer.Finish();
  return total;
}

}  // namespace extscc::io

#endif  // EXTSCC_IO_RECORD_STREAM_H_
