// Run-formation internals: the buffer sort and the scratch-run failover
// loop behind SortingWriter's spills and the merge passes. A spill runs
// on the thread whose append overflowed the buffer;
// docs/run_formation.md has the measurement behind that choice.
#ifndef EXTSCC_EXTSORT_RUN_PIPELINE_H_
#define EXTSCC_EXTSORT_RUN_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "extsort/radix_sort.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "util/logging.h"
#include "util/status.h"

namespace extscc::extsort {

// Diagnostics exposed for tests and the contraction profiler.
struct SortRunInfo {
  std::uint64_t num_records = 0;
  std::uint64_t num_runs = 0;
  std::uint64_t merge_passes = 0;
  // First unrecovered I/O error of the sort (OK on success). Callers on
  // the Status-returning driver path propagate it; the info-discarding
  // convenience wrappers leave it to the context's error latch.
  util::Status status;
};

namespace internal {

// Sorts buffer[0, n) — LSD radix on the normalized key when Less has
// one (record_traits.h), std::stable_sort otherwise; both produce the
// identical stable order — and, when `dedup`, collapses
// equal-under-Less neighbours; returns the surviving prefix length.
// `scratch` is the radix ping-pong buffer, persistent across a
// spilling loop's runs.
template <typename T, typename Less>
std::size_t SortDedupPrefix(std::vector<T>& buffer, std::size_t n, Less less,
                            bool dedup, std::vector<T>& scratch) {
  StableSortRecords(buffer.data(), n, less, scratch);
  if (!dedup) return n;
  auto end = std::unique(
      buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(n),
      [&less](const T& a, const T& b) { return !less(a, b) && !less(b, a); });
  return static_cast<std::size_t>(end - buffer.begin());
}

// One-shot convenience (resident single-run sorts): transient scratch.
template <typename T, typename Less>
std::size_t SortDedupPrefix(std::vector<T>& buffer, std::size_t n, Less less,
                            bool dedup) {
  std::vector<T> scratch;
  return SortDedupPrefix(buffer, n, less, dedup, scratch);
}

// Writes one scratch run through `fill`, with device failover — the one
// failover loop behind run spills ("sortrun") and merge passes
// ("mergerun"); fault specs select either by that tag. Each attempt
// places a fresh file (TempFileManager::NewFile, round-robin), opens a
// RecordWriter on it and calls fill(writer), which returns the status of
// its *input*. An input failure is returned at once and the partial file
// removed: no output placement can recover bytes the input lost. A
// persistent write failure (transients were already retried inside
// BlockFile) removes the partial file, quarantines its device and
// replays the fill on the next placement — callers keep their input (the
// resident run buffer, the merge group's run files) until this returns
// OK, so a lost output costs one more write, never lost data. On
// recovery the triggering error is absorbed from the context's latch (it
// was handled, the solve must not fail on it); an unrelated latched
// error is left alone. Returns the first failure when every device
// refuses.
template <typename T, typename Fill>
util::Status WriteRunWithFailover(io::IoContext* context, const char* tag,
                                  Fill fill, std::string* out_path) {
  io::TempFileManager& temp = context->temp_files();
  const std::size_t max_attempts = temp.devices().size();
  util::Status first_failure;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const io::ScratchFile run = temp.NewFile(tag);
    io::RecordWriter<T> writer(context, run.path);
    const util::Status input = fill(writer);
    writer.Finish();
    if (!input.ok()) {
      temp.Remove(run.path);
      return input;
    }
    const util::Status status = writer.status();
    if (status.ok()) {
      if (!first_failure.ok()) {
        LOG_WARNING << tag << ": recovered " << run.path
                    << " on a healthy device after: "
                    << first_failure.ToString();
        context->AbsorbIoError(first_failure);
      }
      *out_path = run.path;
      return status;
    }
    // The latch keeps the FIRST error (first-wins), so the absorb above
    // targets first_failure no matter how many devices failed since.
    if (first_failure.ok()) first_failure = status;
    temp.Remove(run.path);  // best effort; a dead device only warns
    temp.Quarantine(run.device);
  }
  return first_failure;
}

}  // namespace internal
}  // namespace extscc::extsort

#endif  // EXTSCC_EXTSORT_RUN_PIPELINE_H_
