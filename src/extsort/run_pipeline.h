// Run-formation internals: buffer sort, run spill, and the overlapped
// sort→spill pipeline.
//
// Serial run formation alternates fill → sort → spill on one thread, so
// the CPU sits idle during spill writes and the disk sits idle during
// the sort. RunSpillPipeline overlaps them: with
// IoContextOptions::sort_threads = 1 a single background worker sorts
// and spills buffer N while the producer fills buffer N+1 of a
// double-buffered pair. Runs come back in submission order, each run's
// bytes are identical to the serial path's (the buffer sort is stable
// either way), and every spilled block is still counted in IoStats
// (under IoContext::stats_mutex()), so threaded execution changes
// wall-clock overlap — never the sorted output.
//
// Pipeline states, per submitted buffer:
//   FILLING   (producer)  — records accumulate in the active buffer;
//   QUEUED    (hand-off)  — SubmitAndAcquire parked it in the pending
//                           slot and returned the recycled twin;
//   SORT+SPILL (worker)   — SortDedupPrefix + SpillRun off-thread;
//   RECYCLED  (hand-off)  — the emptied buffer becomes the next
//                           acquire's return value.
// At most two buffers exist; SubmitAndAcquire blocks while the worker
// still owns the previous one, so a slow disk backpressures the
// producer instead of queueing unbounded memory.
//
// Budget: the second buffer is Reserve()d from the MemoryBudget for the
// pipeline's lifetime, clamped by availability — when the budget cannot
// cover a second buffer the pipeline silently degrades to the serial
// fill → sort → spill loop (threaded() == false), preserving the
// serial path's exact geometry. sort_threads == 0 never constructs a
// worker at all, so the default engine is bit-identical to the
// single-threaded one.
#ifndef EXTSCC_EXTSORT_RUN_PIPELINE_H_
#define EXTSCC_EXTSORT_RUN_PIPELINE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
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

// Writes records[0, n) (already sorted/deduped) as a run file on the
// next scratch device in round-robin order (TempFileManager::NewFile).
//
// Scratch failover: a persistent write failure (transient faults were
// already retried inside BlockFile) quarantines the failing device,
// removes the partial run, and re-spills the SAME records on the next
// healthy device — the records are still resident in `buffer`, so a
// lost spill costs one extra run write, not a re-sort. On recovery the
// triggering error is absorbed from the context's latch (it was
// handled, the solve must not fail on it); an unrelated latched error
// is left alone. Returns the first failure when every device refuses.
template <typename T>
util::Status SpillRun(io::IoContext* context, const T* records,
                      std::size_t n, std::string* out_path) {
  io::TempFileManager& temp = context->temp_files();
  const std::size_t max_attempts = temp.devices().size();
  util::Status first_failure;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const io::ScratchFile run = temp.NewFile("sortrun");
    io::RecordWriter<T> writer(context, run.path);
    writer.AppendBatch(records, n);
    writer.Finish();
    const util::Status status = writer.status();
    if (status.ok()) {
      if (!first_failure.ok()) {
        LOG_WARNING << "SpillRun: recovered run " << run.path
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

// The sort→spill stage of run formation. Owner of the run list; the
// producer repeatedly fills a buffer of `capacity` records and trades
// it through SubmitAndAcquire for an empty one.
template <typename T, typename Less>
class RunSpillPipeline {
 public:
  // Threaded iff the context asks for sort workers AND the budget can
  // hold the second `capacity`-record buffer (reserved here for the
  // pipeline's lifetime). Degrades to inline sort+spill otherwise.
  RunSpillPipeline(io::IoContext* context, Less less, bool dedup,
                   std::size_t capacity)
      : context_(context), less_(less), dedup_(dedup) {
    if (context_->sort_threads() == 0 || capacity == 0) return;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(capacity) * sizeof(T);
    // All-or-nothing: the pipeline's second buffer is either fully
    // budgeted or the sort stays serial (atomic against other threads
    // reserving in between).
    const std::uint64_t granted = context_->memory().ReserveUpTo(bytes);
    if (granted < bytes) {
      context_->memory().Release(granted);
      return;
    }
    reserved_bytes_ = bytes;
    free_buffer_.reserve(capacity);
    has_free_ = true;
    threaded_ = true;
    worker_ = std::thread([this] { WorkerLoop(); });
  }

  ~RunSpillPipeline() {
    if (threaded_) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      worker_.join();
    }
    if (reserved_bytes_ > 0) context_->memory().Release(reserved_bytes_);
    // Abandoned runs (error-path unwinding before Finish) are removed
    // by the owning sorter/writer, which took the run list or dies with
    // the TempFileManager; nothing to clean here.
  }

  RunSpillPipeline(const RunSpillPipeline&) = delete;
  RunSpillPipeline& operator=(const RunSpillPipeline&) = delete;

  bool threaded() const { return threaded_; }

  // Sorts (+dedups) and spills buffer[0, n) as the next run — inline
  // when serial, on the worker when threaded — and returns a recycled
  // buffer of the same capacity for the producer to refill. The
  // returned buffer's size and contents are unspecified (whatever the
  // previous spill left): callers overwrite (FormRuns) or clear()
  // (SortingWriter) rather than paying a value-initializing resize of
  // up to a whole run buffer per spill.
  std::vector<T> SubmitAndAcquire(std::vector<T> buffer, std::size_t n) {
    if (!threaded_) {
      if (!status_.ok()) return buffer;  // sort already failed: drop
      const std::size_t kept =
          SortDedupPrefix(buffer, n, less_, dedup_, serial_scratch_);
      std::string path;
      const util::Status spilled =
          SpillRun(context_, buffer.data(), kept, &path);
      if (spilled.ok()) {
        runs_.push_back(std::move(path));
      } else {
        status_ = spilled;
      }
      return buffer;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !has_pending_; });
    pending_ = std::move(buffer);
    pending_n_ = n;
    has_pending_ = true;
    cv_.notify_all();
    // Block until the worker hands back the previously spilled buffer:
    // the two-buffer bound is what the reservation above paid for.
    cv_.wait(lock, [this] { return has_free_; });
    has_free_ = false;
    return std::move(free_buffer_);
  }

  // Joins outstanding spills and returns the run paths in submission
  // order (identical to the serial spill order).
  std::vector<std::string> Finish() {
    if (threaded_) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !has_pending_ && !busy_; });
    }
    return std::move(runs_);
  }

  // First unrecovered spill failure (every-device-refused), parked here
  // by whichever thread spilled — the worker's errors surface on the
  // producer thread. Check after Finish().
  util::Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  void WorkerLoop() {
    // Worker-local radix scratch, persistent across all runs of the
    // sort (the producer-side serial path keeps its own).
    std::vector<T> scratch;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || has_pending_; });
      if (!has_pending_) return;  // stop with nothing queued
      std::vector<T> buffer = std::move(pending_);
      const std::size_t n = pending_n_;
      has_pending_ = false;
      busy_ = true;
      const bool dead = !status_.ok();
      lock.unlock();
      cv_.notify_all();
      std::string path;
      util::Status spilled;
      if (!dead) {
        // A failed pipeline still recycles buffers (the producer must
        // not deadlock on a dead worker) but spills nothing further.
        const std::size_t kept =
            SortDedupPrefix(buffer, n, less_, dedup_, scratch);
        spilled = SpillRun(context_, buffer.data(), kept, &path);
      }
      lock.lock();
      if (!dead) {
        if (spilled.ok()) {
          runs_.push_back(std::move(path));
        } else if (status_.ok()) {
          status_ = spilled;
        }
      }
      free_buffer_ = std::move(buffer);
      has_free_ = true;
      busy_ = false;
      cv_.notify_all();
      if (stop_ && !has_pending_) return;
    }
  }

  io::IoContext* context_;
  Less less_;
  bool dedup_;
  bool threaded_ = false;
  std::uint64_t reserved_bytes_ = 0;

  std::thread worker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> pending_;     // filled buffer awaiting the worker
  std::size_t pending_n_ = 0;  // valid prefix of pending_
  bool has_pending_ = false;
  bool busy_ = false;          // worker is sorting/spilling
  std::vector<T> free_buffer_;  // recycled buffer for the producer
  bool has_free_ = false;
  bool stop_ = false;
  std::vector<T> serial_scratch_;  // radix scratch for the inline path

  std::vector<std::string> runs_;  // submission order
  // First unrecovered spill failure; guarded by mu_ when threaded.
  util::Status status_;
};

}  // namespace internal
}  // namespace extscc::extsort

#endif  // EXTSCC_EXTSORT_RUN_PIPELINE_H_
