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
//  - AppendBatch(ptr, n) is an optional bulk entry point, used when the
//    sink has one (SinkAppendBatch below) and replaced by per-record
//    Append otherwise.
//  - The caller that owns the sink finishes it: a file is materialized
//    by passing an io::RecordWriter (itself a batch sink) and calling
//    its Finish() and status() once the sort returns, which is all
//    SortFile and SortingWriter::FinishInto(path) do.
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

}  // namespace extscc::extsort

#endif  // EXTSCC_EXTSORT_RECORD_SINK_H_
