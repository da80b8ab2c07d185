// External merge sort in the Aggarwal-Vitter model.
//
// Run formation fills an in-memory buffer of at most
// memory.MaxRecordsInMemory(sizeof(T)) records with batched block reads,
// sorts it and spills a run; merging uses a tournament loser tree whose
// fan-in is memory.MergeFanIn(B) (one block buffer per run + one output
// buffer), with as many merge passes as the fan-in requires. Total cost
// is the model's sort(n) = Θ(n/B · log_{M/B}(n/B)) — the paper's
// Algorithms 3–5 are built exclusively from these sorts plus sequential
// scans.
//
// Run formation is stable, but the merge breaks key ties in arbitrary
// run order: the callers never rely on stability, and the comparators
// used by the paper's algorithms are total orders on the whole record
// (equal keys mean identical records), so tie order is unobservable.
// Keeping the tie-break out of the merge shortens the loser tree's
// per-record dependency chain by a comparator evaluation.
//
// When dedup is requested it is applied at every stage — inside each
// in-memory run, during every merge pass, and on the final output — so
// intermediate runs shrink instead of carrying duplicates through each
// merge level (the lazy parallel-edge elimination of §VII benefits most:
// contracted levels produce heavy duplication).
//
// One entry point runs the machinery, and one adapter materializes it:
//  - SortInto(input, sink): the final merge pass (or the single
//    in-memory run) drains straight into a RecordSink (record_sink.h),
//    fusing "sort, then one sequential scan" stages into one pipeline
//    and deleting the write+read of the would-be intermediate file.
//  - SortFile(input, output): SortInto with an io::RecordWriter on the
//    output as the sink.
// SortingWriter is the accumulating variant: Add() buffers records and
// spills sorted runs directly from the add buffer (no staging file);
// FinishInto() targets a sink or, through a RecordWriter, a path.
#ifndef EXTSCC_EXTSORT_EXTERNAL_SORTER_H_
#define EXTSCC_EXTSORT_EXTERNAL_SORTER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "extsort/radix_sort.h"
#include "extsort/record_sink.h"
#include "extsort/run_pipeline.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "util/logging.h"
#include "util/status.h"

namespace extscc::extsort {

// SortRunInfo (diagnostics) lives in run_pipeline.h with the
// run-formation internals.

namespace internal {

// Tournament loser tree over k peekable readers. Implicit layout: the
// positions 1..k-1 are internal nodes storing the *loser* of the match
// played there, positions k..2k-1 are the leaves (player i at k+i), and
// the overall winner is cached in winner_. Popping the winner replays
// exactly one leaf-to-root path — O(log k) comparisons per record,
// instead of the O(k) linear scan this structure replaces. An exhausted
// run becomes a +infinity sentinel (dead flag) and sinks down the tree
// on the next replay, which restructures the tournament without a full
// rebuild.
//
// Two micro-architectural choices matter on the per-record path:
//  - Each node carries its player's current *key* next to the index, so
//    a match is one contiguous node load plus register arithmetic —
//    never a dependent chase through index -> key array -> reader.
//  - The replay swap is branch-free (byte-masked XOR): merge
//    comparisons are data-dependent coin flips, and a conditional swap
//    would eat a branch misprediction per tree level.
template <typename T, typename Less>
class LoserTree {
  static_assert(std::is_trivially_copyable_v<T>,
                "LoserTree players are value-swapped");

 public:
  LoserTree(std::vector<std::unique_ptr<io::PeekableReader<T>>> inputs,
            Less less)
      : inputs_(std::move(inputs)),
        less_(less),
        k_(static_cast<int>(inputs_.size())) {
    if (k_ == 0) return;
    // Parallel leaf-state arrays (key / run index / exhausted) rather
    // than an array of structs: the replay loop then works on scalar
    // locals the compiler keeps in registers.
    std::vector<T> lkey(static_cast<std::size_t>(k_));
    std::vector<std::int32_t> lidx(static_cast<std::size_t>(k_));
    std::vector<std::uint8_t> ldead(static_cast<std::size_t>(k_));
    for (int i = 0; i < k_; ++i) {
      lidx[i] = i;
      if (inputs_[i]->has_value()) {
        lkey[i] = inputs_[i]->Peek();
        ldead[i] = 0;
      } else {
        lkey[i] = T{};
        ldead[i] = 1;
      }
    }
    const std::size_t nodes = static_cast<std::size_t>(std::max(k_, 1));
    node_key_.assign(nodes, T{});
    node_idx_.assign(nodes, 0);
    node_dead_.assign(nodes, 1);
    const int w = k_ == 1 ? 0 : Build(1, lkey, lidx, ldead);
    wkey_ = lkey[w];
    widx_ = lidx[w];
    wdead_ = ldead[w] != 0;
  }

  // Returns false when all inputs are exhausted.
  bool Next(T* out) {
    if (wdead_) return false;
    *out = wkey_;
    // Advance the winning run and replay its leaf's path: the stored
    // losers along it are exactly the players the new value has not yet
    // been compared against. The loop body is branch-free — merge
    // comparisons are data-dependent coin flips, so a conditional swap
    // would eat a branch misprediction per tree level — and each node's
    // key lives next to its index, so a match is independent loads plus
    // register selects, never a chase through an index indirection.
    // Both comparator directions are evaluated unconditionally
    // (comparators here are cheap POD field compares; a dead player's
    // stale key feeds a comparison masked out by the dead bits).
    const int w = widx_;
    if (!inputs_[w]->AdvanceInto(&wkey_)) wdead_ = true;
    T ck = wkey_;
    std::int32_t ci = widx_;
    std::int32_t cd = wdead_ ? 1 : 0;
    T* const nkey = node_key_.data();
    std::int32_t* const nidx = node_idx_.data();
    std::uint8_t* const ndead = node_dead_.data();
    for (int pos = (w + k_) / 2; pos >= 1; pos /= 2) {
      const T ok = nkey[pos];
      const std::int32_t oi = nidx[pos];
      const std::int32_t od = ndead[pos];
      // `other` (the stored loser) beats the climbing player: smaller
      // key (ties resolve to the climber — see the header comment on
      // merge stability), or the climber is exhausted; dead players
      // beat no one.
      const bool ab = less_(ok, ck);
      const bool beats = static_cast<bool>((od == 0) & ((cd != 0) | ab));
      // XOR-mask swaps: the selects must stay arithmetic — the compiler
      // re-materializes ternaries on a computed bool into the very
      // mispredicting branch this loop exists to avoid.
      const std::int32_t m32 = -static_cast<std::int32_t>(beats);
      const std::int32_t di = (oi ^ ci) & m32;
      const std::int32_t dd = (od ^ cd) & m32;
      nidx[pos] = oi ^ di;
      ndead[pos] = static_cast<std::uint8_t>(od ^ dd);
      ci ^= di;
      cd ^= dd;
      const T nk = MaskSelect(beats, ok, ck);  // node keeps the loser
      ck = MaskSelect(beats, ck, ok);          // climber takes the winner
      nkey[pos] = nk;
    }
    wkey_ = ck;
    widx_ = ci;
    wdead_ = cd != 0;
    return true;
  }

 private:
  // Integer type of T's exact size, when one exists — the key select is
  // then a bit-cast XOR mask the compiler cannot turn back into a
  // branch. Covers every hot record type (NodeId, Edge, SccEntry, u64).
  static constexpr bool kHasWordForm =
      sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8;

  // Returns `swap ? b : a`, branchlessly when T is word-sized.
  static T MaskSelect(bool swap, const T& a, const T& b) {
    if constexpr (kHasWordForm) {
      using U = std::conditional_t<
          sizeof(T) == 1, std::uint8_t,
          std::conditional_t<sizeof(T) == 2, std::uint16_t,
                             std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                                std::uint64_t>>>;
      const U ua = std::bit_cast<U>(a);
      const U ub = std::bit_cast<U>(b);
      const U m = static_cast<U>(-static_cast<U>(swap));
      return std::bit_cast<T>(static_cast<U>(ua ^ ((ua ^ ub) & m)));
    } else {
      return swap ? b : a;  // 12-byte+ records: rare, let it branch
    }
  }
  // Plays the initial matches bottom-up over the leaf arrays; stores
  // losers in the internal nodes, returns the winning leaf. Positions
  // >= k_ are leaves, so the recursion never reads an unset node.
  int Build(int pos, const std::vector<T>& lkey,
            const std::vector<std::int32_t>& lidx,
            const std::vector<std::uint8_t>& ldead) {
    if (pos >= k_) return pos - k_;
    const int a = Build(2 * pos, lkey, lidx, ldead);
    const int b = Build(2 * pos + 1, lkey, lidx, ldead);
    // b beats a: alive, and (a dead, or strictly smaller key).
    const bool b_beats =
        !ldead[b] && (ldead[a] || less_(lkey[b], lkey[a]));
    const int winner = b_beats ? b : a;
    const int loser = b_beats ? a : b;
    node_key_[pos] = lkey[loser];
    node_idx_[pos] = lidx[loser];
    node_dead_[pos] = ldead[loser];
    return winner;
  }

  std::vector<std::unique_ptr<io::PeekableReader<T>>> inputs_;
  Less less_;
  int k_ = 0;
  // Internal nodes 1..k-1 as parallel arrays (loser's key / run / dead).
  std::vector<T> node_key_;
  std::vector<std::int32_t> node_idx_;
  std::vector<std::uint8_t> node_dead_;
  // The cached tournament winner.
  T wkey_{};
  std::int32_t widx_ = 0;
  bool wdead_ = true;
};

// Drains `tree` into `sink` (any RecordSinkFor<T>, including a raw
// io::RecordWriter), collapsing equal-under-Less neighbours to one when
// `dedup` (inputs are individually deduped runs, so equal records are
// adjacent in the merged order). Records land directly in the sink —
// no staging block, so a merge's resident memory stays at one block per
// input run plus the sink's own buffering and MergeFanIn can hand every
// spare block to fan-in.
template <typename T, typename Less, RecordSinkFor<T> S>
void DrainMerge(LoserTree<T, Less>* tree, S* sink, Less less, bool dedup) {
  T record;
  if (dedup) {
    bool have_prev = false;
    T prev{};
    while (tree->Next(&record)) {
      if (have_prev && !less(prev, record) && !less(record, prev)) continue;
      prev = record;
      have_prev = true;
      sink->Append(record);
    }
  } else {
    while (tree->Next(&record)) sink->Append(record);
  }
}

// Run formation over a file. When the entire input fits one run buffer,
// the sorted records stay resident instead of being spilled — SortInto
// then feeds the sink from memory (zero extra I/O beyond the input
// scan) and SortFile writes them once, directly to its output.
template <typename T>
struct RunFormation {
  std::vector<std::string> runs;  // spilled run files, formation order
  std::vector<T> resident;        // the lone in-memory run, iff in_memory
  std::size_t resident_count = 0;
  bool in_memory = false;
};

template <typename T, typename Less>
RunFormation<T> FormRuns(io::IoContext* context,
                         const std::string& input_path, Less less, bool dedup,
                         SortRunInfo* info) {
  RunFormation<T> out;
  const std::uint64_t full_capacity =
      context->memory().MaxRecordsInMemory(sizeof(T));
  io::RecordReader<T> reader(context, input_path);
  info->num_records = reader.num_records();

  // In-memory fast path: the whole input fits one run buffer, sorts
  // resident, and never spills — nothing to overlap, and bit-identical
  // to the serial engine regardless of sort_threads.
  if (info->num_records <= full_capacity) {
    const std::size_t capacity = static_cast<std::size_t>(info->num_records);
    std::vector<T> buffer(capacity);
    std::size_t got;
    if (capacity > 0 && (got = reader.NextBatch(buffer.data(), capacity)) > 0) {
      out.resident_count = SortDedupPrefix(buffer, got, less, dedup);
      out.resident = std::move(buffer);
      out.in_memory = true;
    }
    info->num_runs = out.in_memory ? 1 : 0;
    // A short read here (error-as-EOF) means the resident "run" is a
    // truncated view of the input — carry the reader's failure so the
    // caller does not pass it off as sorted data.
    info->status = reader.status();
    return out;
  }

  // Spilling path. With sort_threads the budget-sized run buffer is
  // split into a double-buffered pair of half-size buffers — the
  // producer fills one while the worker sorts and spills the other —
  // both Reserve()d for the formation's lifetime (the halves always
  // fit: full_capacity was derived from the same availability). Run
  // geometry at sort_threads=0 is exactly the serial engine's.
  const bool overlap = context->sort_threads() > 0 && full_capacity >= 4;
  const std::size_t capacity = static_cast<std::size_t>(
      overlap ? full_capacity / 2 : full_capacity);
  std::optional<io::ScopedReservation> active_hold;
  if (overlap) {
    active_hold.emplace(&context->memory(),
                        static_cast<std::uint64_t>(capacity) * sizeof(T),
                        /*clamp=*/true);
  }
  RunSpillPipeline<T, Less> pipeline(context, less, dedup,
                                     overlap ? capacity : 0);
  std::vector<T> buffer(capacity);
  std::size_t got;
  while ((got = reader.NextBatch(buffer.data(), capacity)) > 0) {
    buffer = pipeline.SubmitAndAcquire(std::move(buffer), got);
    // Recycled buffers keep their size (contents stale, about to be
    // overwritten); only the pipeline's pristine second buffer arrives
    // empty, so this value-initializes at most once per sort.
    if (buffer.size() < capacity) buffer.resize(capacity);
  }
  out.runs = pipeline.Finish();
  info->num_runs = out.runs.size();
  // Input truncation outranks a spill failure: a sort fed bad bytes is
  // wrong even if every run it did form spilled cleanly.
  info->status = reader.status();
  if (info->status.ok()) info->status = pipeline.status();
  return out;
}

// Reserves `blocks` block buffers from the budget for the duration of
// a merge, clamped to what is actually available (fan-in was computed
// from availability, so the clamp only engages when another component
// reserved in between — the merge then proceeds, physically bounded by
// its already-chosen fan-in).
inline io::ScopedReservation ReserveMergeBlocks(io::IoContext* context,
                                                std::size_t blocks) {
  return io::ScopedReservation(
      &context->memory(),
      static_cast<std::uint64_t>(blocks) * context->block_size(),
      /*clamp=*/true);
}

// Merges runs[begin, end) into a fresh scratch file with output
// failover: a persistent output failure (transients were already
// retried inside BlockFile) removes the partial output, quarantines its
// device, and replays the whole group merge to a fresh placement. The
// input runs are deliberately not consumed here — they are the replay
// source, and the caller releases them only after this returns OK — so
// a lost merge output costs one extra group merge, never lost data. On
// recovery the triggering error is absorbed from the context's latch
// (mirroring SpillRun); input-side read failures are not recoverable by
// any output placement (the run's bytes live on the failed device) and
// propagate as-is.
template <typename T, typename Less>
util::Status MergeGroupToFile(io::IoContext* context,
                              const std::vector<std::string>& runs,
                              std::size_t begin, std::size_t end, Less less,
                              bool dedup, std::string* out_path) {
  io::TempFileManager& temp = context->temp_files();
  const std::size_t max_attempts = temp.devices().size();
  util::Status first_failure;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<std::unique_ptr<io::PeekableReader<T>>> inputs;
    // Borrowed views for post-drain status checks: the unique_ptrs move
    // into the tree, which stays in scope until after the checks.
    std::vector<io::PeekableReader<T>*> readers;
    inputs.reserve(end - begin);
    readers.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      inputs.push_back(
          std::make_unique<io::PeekableReader<T>>(context, runs[i]));
      readers.push_back(inputs.back().get());
    }
    // One block per input run plus the output writer's block.
    const auto blocks = ReserveMergeBlocks(context, end - begin + 1);
    const io::ScratchFile out = temp.NewFile("mergerun");
    LoserTree<T, Less> tree(std::move(inputs), less);
    io::RecordWriter<T> writer(context, out.path);
    DrainMerge(&tree, &writer, less, dedup);
    writer.Finish();
    for (io::PeekableReader<T>* reader : readers) {
      if (!reader->status().ok()) {
        // A dead input looks exhausted to the tree (error-as-EOF), so
        // the output just written is silently truncated — discard it
        // and fail the merge rather than pass truncation off as data.
        temp.Remove(out.path);
        return reader->status();
      }
    }
    const util::Status status = writer.status();
    if (status.ok()) {
      if (!first_failure.ok()) {
        LOG_WARNING << "merge: recovered group output " << out.path
                    << " on a healthy device after: "
                    << first_failure.ToString();
        context->AbsorbIoError(first_failure);
      }
      *out_path = out.path;
      return status;
    }
    // The latch keeps the FIRST error (first-wins), so the absorb above
    // targets first_failure no matter how many devices failed since.
    if (first_failure.ok()) first_failure = status;
    temp.Remove(out.path);
    temp.Quarantine(out.device);
  }
  return first_failure;
}

// Merges `runs` (consuming the files) into `sink`. Intermediate passes
// write temp files as before; the final pass — the only one whose
// output the caller sees — drains into the sink, so a fused consumer
// never pays for a materialized result. A lone run is streamed into the
// sink: that read is the fused stage's one scan of its sorted data.
// Every merge holds a budget reservation for its block buffers, so a
// fused sink that sizes its own structures mid-drain (a downstream
// SortingWriter) sees the honest remainder.
//
// Errors: intermediate-pass output failures fail over per group (see
// MergeGroupToFile); an unrecoverable failure returns early with the
// surviving runs left to TempFileManager session cleanup. The final
// pass cannot replay — the sink has already consumed records — so an
// input failure there propagates; sink-side write failures are the
// caller's to check (io::RecordWriter::status()).
template <typename T, typename Less, RecordSinkFor<T> S>
util::Status MergeRunsInto(io::IoContext* context,
                           std::vector<std::string> runs, S& sink, Less less,
                           bool dedup, SortRunInfo* info) {
  if (runs.empty()) return util::Status::Ok();
  const std::size_t fan_in = static_cast<std::size_t>(
      context->memory().MergeFanIn(context->block_size()));
  while (runs.size() > fan_in) {
    ++info->merge_passes;
    std::vector<std::string> next_runs;
    for (std::size_t group = 0; group < runs.size(); group += fan_in) {
      const std::size_t end = std::min(runs.size(), group + fan_in);
      std::string out_path;
      RETURN_IF_ERROR(MergeGroupToFile<T>(context, runs, group, end, less,
                                          dedup, &out_path));
      next_runs.push_back(std::move(out_path));
      // Released only after the group's output is safely on a healthy
      // device — until then these are the failover's replay source.
      for (std::size_t i = group; i < end; ++i) {
        context->temp_files().Remove(runs[i]);
      }
    }
    runs = std::move(next_runs);
  }
  if (runs.size() == 1) {
    // A single stream's block buffer is within the io layer's
    // unreserved per-stream convention; no merge reservation needed.
    util::Status streamed;
    SinkAppendAllRecords<T>(context, runs[0], sink, &streamed);
    RETURN_IF_ERROR(streamed);
    context->temp_files().Remove(runs[0]);
    return util::Status::Ok();
  }
  ++info->merge_passes;
  std::vector<std::unique_ptr<io::PeekableReader<T>>> inputs;
  std::vector<io::PeekableReader<T>*> readers;
  inputs.reserve(runs.size());
  readers.reserve(runs.size());
  for (const auto& run : runs) {
    inputs.push_back(std::make_unique<io::PeekableReader<T>>(context, run));
    readers.push_back(inputs.back().get());
  }
  // Reserved after the readers open — see the intermediate-pass note.
  const auto blocks = ReserveMergeBlocks(context, runs.size());
  LoserTree<T, Less> tree(std::move(inputs), less);
  DrainMerge(&tree, &sink, less, dedup);
  for (io::PeekableReader<T>* reader : readers) {
    RETURN_IF_ERROR(reader->status());
  }
  for (const auto& run : runs) context->temp_files().Remove(run);
  return util::Status::Ok();
}

}  // namespace internal

// Fused external sort: sorts `input_path` and drains the result into
// `sink` instead of a file. The consumer sees the records in sorted
// order exactly once, during the final merge pass (or straight from the
// run buffer when the input fits in memory), so the stage costs
// sort(n) minus a full write+read of the output versus SortFile + scan.
// If `dedup` is true, records equal under Less (neither compares before
// the other) are collapsed to one.
template <typename T, typename Less, RecordSinkFor<T> S>
SortRunInfo SortInto(io::IoContext* context, const std::string& input_path,
                     S& sink, Less less, bool dedup = false) {
  SortRunInfo info;
  auto formed = internal::FormRuns<T>(context, input_path, less, dedup, &info);
  if (!info.status.ok()) {
    // Dead formation: the runs on disk are an incomplete view of the
    // input, so drop them instead of merging truncation into a result.
    for (const auto& run : formed.runs) context->temp_files().Remove(run);
    return info;
  }
  if (formed.in_memory) {
    // Hold the resident run's bytes as a reservation while the sink
    // consumes it, so a downstream structure that sizes itself
    // mid-drain (a chained SortingWriter) sees the honest remainder.
    io::ScopedReservation resident_hold(&context->memory(),
                                        formed.resident.size() * sizeof(T),
                                        /*clamp=*/true);
    SinkAppendBatch<T>(sink, formed.resident.data(), formed.resident_count);
    return info;
  }
  info.status = internal::MergeRunsInto<T>(context, std::move(formed.runs),
                                           sink, less, dedup, &info);
  return info;
}

// One-shot external sort of `input_path` into `output_path`: SortInto
// drained into a RecordWriter. An input that fits in memory is written
// once, directly to the output, with no run file or re-scan.
// If `dedup` is true, records equal under Less (neither compares before
// the other) are collapsed to one — used for V_{i+1} dedup (Alg. 3 l.10)
// and the Op-mode lazy parallel-edge elimination (§VII).
template <typename T, typename Less>
SortRunInfo SortFile(io::IoContext* context, const std::string& input_path,
                     const std::string& output_path, Less less,
                     bool dedup = false) {
  io::RecordWriter<T> writer(context, output_path);
  SortRunInfo info = SortInto<T>(context, input_path, writer, less, dedup);
  writer.Finish();
  // The output is the caller's named file, not relocatable scratch —
  // a writer failure propagates instead of failing over.
  if (info.status.ok()) info.status = writer.status();
  return info;
}

// Accumulating variant: Add() records, then FinishInto() sorts them into
// a sink or a file. Records buffer in memory up to a budget-derived run
// capacity and spill as sorted (optionally deduped) runs straight from
// the add buffer — there is no staging file, so an input that never
// overflows the buffer reaches a sink with zero I/O and a file with a
// single output write.
//
// Budget discipline: fused pipelines routinely keep two SortingWriters
// alive at once (an upstream sort draining into a consumer that feeds a
// downstream sort), so the add buffer is sized lazily — at the first
// Add(), from *half* of the budget still available — and actually
// Reserve()d from the MemoryBudget until FinishInto releases it (just
// before the final merge, whose fan-in then sees the freed budget).
// Reservations therefore serialize across pipeline stages: a downstream
// writer whose first record arrives while an upstream buffer is live
// sizes itself from the honest remainder, and the stacking that would
// oversubscribe M is bounded by the halving instead of hidden.
//
// With IoContextOptions::sort_threads > 0 the writer double-buffers:
// spills trade the full add buffer to a RunSpillPipeline worker (which
// sorts and spills it off-thread) for an equal-capacity empty buffer,
// so Add() keeps streaming while the previous run writes. The second
// buffer is reserved by the pipeline for the writer's lifetime, clamped
// — when the remaining budget cannot cover it the writer degrades to
// the serial spill with identical run geometry.
template <typename T, typename Less>
class SortingWriter {
 public:
  SortingWriter(io::IoContext* context, Less less, bool dedup = false)
      : context_(context), less_(less), dedup_(dedup) {}

  ~SortingWriter() {
    ReleaseBuffer();
    // A writer abandoned before FinishInto (error-path unwinding) must
    // not strand its spilled runs until IoContext teardown.
    if (pipeline_ != nullptr) {
      for (const auto& run : pipeline_->Finish()) {
        context_->temp_files().Remove(run);
      }
      pipeline_.reset();
    }
  }

  SortingWriter(const SortingWriter&) = delete;
  SortingWriter& operator=(const SortingWriter&) = delete;

  void Add(const T& record) {
    DCHECK(!finished_) << "Add after FinishInto";
    if (capacity_ == 0) ReserveBuffer();
    // Spill lazily, on the overflowing Add: an input of exactly one
    // buffer stays resident and never touches disk.
    if (buffer_.size() >= capacity_) Spill();
    buffer_.push_back(record);
    ++num_added_;
  }

  // Sorts everything added into `sink`. The final merge (or the
  // still-resident buffer) drains straight into the consumer.
  template <RecordSinkFor<T> S>
  SortRunInfo FinishInto(S& sink) {
    DCHECK(!finished_) << "FinishInto called twice";
    finished_ = true;
    SortRunInfo info;
    info.num_records = num_added_;
    if (!spilled_) {
      const std::size_t n =
          internal::SortDedupPrefix(buffer_, buffer_.size(), less_, dedup_);
      info.num_runs = buffer_.empty() ? 0 : 1;
      SinkAppendBatch<T>(sink, buffer_.data(), n);
      ReleaseBuffer();
      pipeline_.reset();
      return info;
    }
    if (!buffer_.empty()) Spill();
    ReleaseBuffer();
    std::vector<std::string> runs = pipeline_->Finish();
    const util::Status spilled = pipeline_->status();
    pipeline_.reset();  // joins the worker, releases the second buffer
    info.num_runs = runs.size();
    if (!spilled.ok()) {
      // An unrecovered spill lost records: the formed runs are an
      // incomplete view of what was Add()ed, so merging them would
      // launder truncation into a sorted result.
      for (const auto& run : runs) context_->temp_files().Remove(run);
      info.status = spilled;
      return info;
    }
    info.status = internal::MergeRunsInto<T>(context_, std::move(runs), sink,
                                             less_, dedup_, &info);
    return info;
  }

  // File sugar: FinishInto over a RecordWriter. A single-buffer input is
  // one sequential output write — no staging round trip.
  SortRunInfo FinishInto(const std::string& output_path) {
    io::RecordWriter<T> writer(context_, output_path);
    SortRunInfo info = FinishInto(writer);
    writer.Finish();
    if (info.status.ok()) info.status = writer.status();
    return info;
  }

 private:
  void ReserveBuffer() {
    // Half of the remaining budget, floored at two blocks' worth of
    // records: block granularity is the model's minimum useful unit
    // (the M >= 2B regime grants every active stream a block, and the
    // io layer's per-stream block buffers are likewise unreserved), and
    // without the floor a tight budget mostly claimed by a sibling
    // (Type-2 dictionary, merge blocks) would collapse this writer into
    // few-record runs that each cost a whole block write. The
    // reservation is clamped to what is actually left, so any overshoot
    // is bounded by ~2 blocks per live writer — never a CHECK-abort.
    capacity_ = static_cast<std::size_t>(std::max<std::uint64_t>(
        2 * io::RecordsPerBlock<T>(context_),
        context_->memory().MaxRecordsInMemory(sizeof(T)) / 2));
    reserved_bytes_ = context_->memory().ReserveUpTo(
        static_cast<std::uint64_t>(capacity_) * sizeof(T));
    // Allocate up front: push_back's geometric growth would otherwise
    // overshoot the reserved bytes by up to 2x.
    buffer_.reserve(capacity_);
    // The spill stage: serial inline at sort_threads=0; otherwise a
    // worker plus a second `capacity_` buffer the pipeline reserves
    // (clamped — a budget that cannot cover it degrades this writer to
    // the serial spill, with the same run geometry either way).
    pipeline_ = std::make_unique<internal::RunSpillPipeline<T, Less>>(
        context_, less_, dedup_, capacity_);
  }

  void Spill() {
    spilled_ = true;
    // Hoisted: as arguments, size() and the move-construction of the
    // by-value parameter would be indeterminately sequenced.
    const std::size_t n = buffer_.size();
    buffer_ = pipeline_->SubmitAndAcquire(std::move(buffer_), n);
    buffer_.clear();  // recycled contents are stale; capacity is kept
  }

  void ReleaseBuffer() {
    std::vector<T>().swap(buffer_);  // return the run buffer eagerly
    if (reserved_bytes_ > 0) {
      context_->memory().Release(reserved_bytes_);
      reserved_bytes_ = 0;
    }
  }

  io::IoContext* context_;
  Less less_;
  bool dedup_;
  std::size_t capacity_ = 0;  // sized (and reserved) at the first Add
  std::uint64_t reserved_bytes_ = 0;
  std::vector<T> buffer_;
  std::unique_ptr<internal::RunSpillPipeline<T, Less>> pipeline_;
  std::uint64_t num_added_ = 0;
  bool spilled_ = false;  // any run left the add buffer
  bool finished_ = false;
};

// Returns true iff `path` is sorted (and strictly sorted when
// `strictly` — i.e. no duplicates under the order). Test helper.
template <typename T, typename Less>
bool IsFileSorted(io::IoContext* context, const std::string& path, Less less,
                  bool strictly = false) {
  io::RecordReader<T> reader(context, path);
  T prev{};
  T cur;
  bool have_prev = false;
  while (reader.Next(&cur)) {
    if (have_prev) {
      if (less(cur, prev)) return false;
      if (strictly && !less(prev, cur)) return false;
    }
    prev = cur;
    have_prev = true;
  }
  return true;
}

}  // namespace extscc::extsort

#endif  // EXTSCC_EXTSORT_EXTERNAL_SORTER_H_
