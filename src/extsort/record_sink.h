// Record sinks: the consumer half of a fused sort→consumer pipeline.
//
// Every phase of Ext-SCC is "external sort, then one sequential scan".
// Materializing the sorted file only to re-read it once costs a full
// write+read of the dataset per stage; a sink instead receives the
// merged records straight out of the sorter's final pass (or its single
// in-memory run), so the "scan" happens while the sort drains and the
// intermediate file never exists. SortInto / SortingWriter::FinishInto
// (external_sorter.h) accept anything satisfying RecordSinkFor.
//
// A sink's contract:
//  - Append(record) receives records in the sort order of the producing
//    stage (non-decreasing under its Less; strictly increasing when the
//    stage dedups).
//  - AppendBatch(ptr, n) is an optional bulk entry point; BatchingSink
//    below shows the adapter shape, and the provided sinks forward it
//    record-wise unless a faster path exists (FileSink).
//  - The *producer* finishes the sink's downstream resources: sinks here
//    are value types whose destructors flush (FileSink) or do nothing.
#ifndef EXTSCC_EXTSORT_RECORD_SINK_H_
#define EXTSCC_EXTSORT_RECORD_SINK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/io_context.h"
#include "io/record_stream.h"
#include "util/status.h"

namespace extscc::extsort {

// Anything with a per-record Append. The sort drains hot loops through
// AppendBatch when the sink provides one (see SinkAppendBatch below).
template <typename S, typename T>
concept RecordSinkFor = requires(S sink, const T& record) {
  sink.Append(record);
};

template <typename S, typename T>
concept BatchRecordSinkFor =
    RecordSinkFor<S, T> && requires(S sink, const T* records, std::size_t n) {
      sink.AppendBatch(records, n);
    };

// Forwards a contiguous span to `sink`, using its AppendBatch when it
// has one and falling back to per-record Append otherwise.
template <typename T, RecordSinkFor<T> S>
void SinkAppendBatch(S& sink, const T* records, std::size_t n) {
  if constexpr (BatchRecordSinkFor<S, T>) {
    sink.AppendBatch(records, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) sink.Append(records[i]);
  }
}

// Streams every record of `path` into `sink` with block-sized batches,
// preserving the sink's AppendBatch fast path (the sink twin of
// io::ForEachRecord / io::AppendAllRecords). Returns the record count.
// A failed read ends the stream early (error-as-EOF, see block_file.h);
// `status`, when given, receives the reader's final status so callers
// can tell truncation from completion.
template <typename T, RecordSinkFor<T> S>
std::uint64_t SinkAppendAllRecords(io::IoContext* context,
                                   const std::string& path, S& sink,
                                   util::Status* status = nullptr) {
  io::RecordReader<T> reader(context, path);
  const std::size_t batch = io::RecordsPerBlock<T>(context);
  std::vector<T> chunk(batch);
  std::uint64_t total = 0;
  std::size_t got;
  while ((got = reader.NextBatch(chunk.data(), batch)) > 0) {
    SinkAppendBatch<T>(sink, chunk.data(), got);
    total += got;
  }
  if (status != nullptr) *status = reader.status();
  return total;
}

// Materializing sink: records land in a file. SortFile(...) is exactly
// SortInto(...) with this sink, so non-fused callers keep their file
// semantics and I/O accounting.
template <typename T>
class FileSink {
 public:
  FileSink(io::IoContext* context, const std::string& path)
      : writer_(context, path) {}

  void Append(const T& record) { writer_.Append(record); }
  void AppendBatch(const T* records, std::size_t n) {
    writer_.AppendBatch(records, n);
  }

  // Flushes the tail block and closes the file (idempotent — the
  // destructor also finishes).
  void Finish() { writer_.Finish(); }

  // First I/O error of the underlying writer (OK while healthy). Check
  // after Finish(): a sink that swallowed its errors would let a
  // truncated output masquerade as a sorted result.
  util::Status status() const { return writer_.status(); }

  std::uint64_t count() const { return writer_.count(); }

 private:
  io::RecordWriter<T> writer_;
};

// Consumer sink: hands each record to a callable. The adapter for scan
// loops that previously re-read the sorted file.
template <typename T, typename Fn>
class CallbackSink {
 public:
  explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}

  void Append(const T& record) { fn_(record); }

 private:
  Fn fn_;
};

template <typename T, typename Fn>
CallbackSink<T, Fn> MakeCallbackSink(Fn fn) {
  return CallbackSink<T, Fn>(std::move(fn));
}

// Counts records and otherwise drops them — for stages that only need
// the cardinality of a sorted/deduped stream.
template <typename T>
class CountingSink {
 public:
  void Append(const T&) { ++count_; }
  void AppendBatch(const T*, std::size_t n) { count_ += n; }

  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

// Duplicates the stream into two downstream sinks (e.g. a FileSink that
// must materialize for a later phase plus a CallbackSink consuming the
// same pass).
template <typename T, typename A, typename B>
class TeeSink {
 public:
  TeeSink(A& a, B& b) : a_(a), b_(b) {}

  void Append(const T& record) {
    a_.Append(record);
    b_.Append(record);
  }
  void AppendBatch(const T* records, std::size_t n) {
    SinkAppendBatch<T>(a_, records, n);
    SinkAppendBatch<T>(b_, records, n);
  }

 private:
  A& a_;
  B& b_;
};

template <typename T, typename A, typename B>
TeeSink<T, A, B> MakeTeeSink(A& a, B& b) {
  return TeeSink<T, A, B>(a, b);
}

}  // namespace extscc::extsort

#endif  // EXTSCC_EXTSORT_RECORD_SINK_H_
