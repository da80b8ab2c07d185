// External merge sort in the Aggarwal-Vitter model.
//
// Run formation fills an in-memory buffer sized from the MemoryBudget
// (at most memory.MaxRecordsInMemory(sizeof(T)) records), sorts it and
// spills a run; merging uses a tournament loser tree whose fan-in is
// memory.MergeFanIn(B) (one block buffer per run + one output buffer),
// with as many merge passes as the fan-in requires. Total cost is the
// model's sort(n) = Θ(n/B · log_{M/B}(n/B)) — the paper's Algorithms 3–5
// are built exclusively from these sorts plus sequential scans.
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
// One engine forms every run, and two adapters feed it a file:
//  - SortingWriter: Append()/AppendBatch() records (it is a batch
//    RecordSink); runs spill straight from the append buffer, with no
//    staging file, and FinishInto() drains the final merge pass — or
//    the lone in-memory run — into a RecordSink (record_sink.h) or,
//    through an io::RecordWriter, a path.
//  - SortInto(input, sink): a SortingWriter told the input size and fed
//    the file in block-sized batches — the fused "sort, then one
//    sequential scan" stage, with no write+read of a sorted file.
//  - SortFile(input, output): SortInto with an io::RecordWriter on the
//    output as the sink.
// Every multi-run merge is internal::MergeRuns, and every scratch run —
// spilled or merged — is written through WriteRunWithFailover
// (run_pipeline.h).
#ifndef EXTSCC_EXTSORT_EXTERNAL_SORTER_H_
#define EXTSCC_EXTSORT_EXTERNAL_SORTER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
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

  // First error among the inputs (OK when every run read cleanly). A
  // dead input looks exhausted to the tree (error-as-EOF), so a drained
  // merge checks this before trusting its output.
  util::Status status() const {
    for (const auto& input : inputs_) RETURN_IF_ERROR(input->status());
    return util::Status::Ok();
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

// The one k-way merge: every intermediate pass group and the final
// sink-draining pass. Opens a reader per run, holds one reserved block
// per input for the merge's duration (so a fused sink that sizes its
// own structures mid-drain — a downstream SortingWriter — sees the
// honest remainder), drains the loser tree into `sink` and returns the
// first reader error. A dead input looks exhausted to the tree
// (error-as-EOF), so on error the sink has received a truncated merge
// and the caller must discard it. The runs are not consumed.
template <typename T, typename Less, RecordSinkFor<T> S>
util::Status MergeRuns(io::IoContext* context,
                       std::span<const std::string> runs, S& sink, Less less,
                       bool dedup) {
  std::vector<std::unique_ptr<io::PeekableReader<T>>> inputs;
  inputs.reserve(runs.size());
  for (const auto& run : runs) {
    inputs.push_back(std::make_unique<io::PeekableReader<T>>(context, run));
  }
  const auto blocks = ReserveMergeBlocks(context, runs.size());
  LoserTree<T, Less> tree(std::move(inputs), less);
  DrainMerge(&tree, &sink, less, dedup);
  return tree.status();
}

// Merges `runs` (consuming the files) into `sink`. Intermediate passes
// merge groups of MergeFanIn runs into scratch files; the final pass —
// the only one whose output the caller sees — drains into the sink, so
// a fused consumer never pays for a materialized result. A lone run is
// streamed into the sink: that read is the fused stage's one scan of its
// sorted data (a one-leaf tree would reserve a block and copy per
// record).
//
// Errors: an intermediate group writes through WriteRunWithFailover, so
// a persistent output failure replays the group on the next device; its
// input runs are released only once the output is safe. An
// unrecoverable failure returns early with the surviving runs left to
// TempFileManager session cleanup. The final pass cannot replay — the
// sink has already consumed records — so an input failure there
// propagates; sink-side write failures are the caller's to check
// (io::RecordWriter::status()).
template <typename T, typename Less, RecordSinkFor<T> S>
util::Status MergeRunsInto(io::IoContext* context,
                           std::vector<std::string> runs, S& sink, Less less,
                           bool dedup, SortRunInfo* info) {
  if (runs.empty()) return util::Status::Ok();
  io::TempFileManager& temp = context->temp_files();
  const std::size_t fan_in = static_cast<std::size_t>(
      context->memory().MergeFanIn(context->block_size()));
  while (runs.size() > fan_in) {
    ++info->merge_passes;
    std::vector<std::string> next_runs;
    for (std::size_t group = 0; group < runs.size(); group += fan_in) {
      const std::span<const std::string> inputs(
          runs.data() + group, std::min(fan_in, runs.size() - group));
      std::string out_path;
      RETURN_IF_ERROR(WriteRunWithFailover<T>(
          context, "mergerun",
          [&](io::RecordWriter<T>& writer) {
            // Fan-in f costs f + 1 blocks: the inputs and this writer.
            const auto out_block = ReserveMergeBlocks(context, 1);
            return MergeRuns<T>(context, inputs, writer, less, dedup);
          },
          &out_path));
      next_runs.push_back(std::move(out_path));
      for (const auto& run : inputs) temp.Remove(run);
    }
    runs = std::move(next_runs);
  }
  if (runs.size() == 1) {
    // A single stream's block buffer is within the io layer's
    // unreserved per-stream convention; no merge reservation needed.
    util::Status streamed;
    SinkAppendAllRecords<T>(context, runs[0], sink, &streamed);
    RETURN_IF_ERROR(streamed);
  } else {
    ++info->merge_passes;
    RETURN_IF_ERROR(MergeRuns<T>(context, runs, sink, less, dedup));
  }
  for (const auto& run : runs) temp.Remove(run);
  return util::Status::Ok();
}

}  // namespace internal

// The run-formation engine: Append() records, then FinishInto() sorts
// them into a sink or a file. Records buffer in memory up to a
// budget-derived run capacity and spill as sorted (optionally deduped)
// runs straight from the append buffer — there is no staging file, so an
// input that never overflows the buffer reaches a sink with zero I/O and
// a file with a single output write. SortInto and SortFile are this
// writer fed from a file. SortingWriter is itself a batch RecordSink, so
// a fused stage can drain straight into it.
//
// Buffer sizing, at the first Append:
//  - Streamed records (`input_records` unknown): half of the budget
//    still available, floored at two blocks' worth of records. Fused
//    pipelines routinely keep two SortingWriters alive at once (an
//    upstream sort draining into a consumer that feeds a downstream
//    sort), so the halving bounds the stacking that would oversubscribe
//    M, and reservations serialize across stages: a downstream writer
//    whose first record arrives while an upstream buffer is live sizes
//    itself from the honest remainder.
//  - A known-size input of n records (a file sort): min(n, all that is
//    available), so an input that fits sorts resident.
// Either way the buffer is Reserve()d from the MemoryBudget (clamped to
// what is actually left) until FinishInto releases it, just before the
// final merge, whose fan-in then sees the freed budget.
//
// Spills run inline, on the appending thread: the overflowing Append
// sorts (+dedups) the buffer with the writer's radix scratch, writes it
// as the next run through WriteRunWithFailover and refills the same
// buffer. A spill that every device refused is parked; later spills
// write nothing, and FinishInto reports it instead of merging the runs
// formed so far.
template <typename T, typename Less>
class SortingWriter {
 public:
  SortingWriter(io::IoContext* context, Less less, bool dedup = false,
                std::optional<std::uint64_t> input_records = std::nullopt)
      : context_(context),
        less_(less),
        dedup_(dedup),
        input_records_(input_records) {}

  ~SortingWriter() {
    ReleaseBuffer();
    // A writer abandoned before FinishInto (error-path unwinding) must
    // not strand its spilled runs until IoContext teardown.
    for (const auto& run : runs_) context_->temp_files().Remove(run);
  }

  SortingWriter(const SortingWriter&) = delete;
  SortingWriter& operator=(const SortingWriter&) = delete;

  void Append(const T& record) {
    DCHECK(!finished_) << "Append after FinishInto";
    if (capacity_ == 0) ReserveBuffer();
    // Spill lazily, on the overflowing Append: an input of exactly one
    // buffer stays resident and never touches disk.
    if (buffer_.size() >= capacity_) Spill();
    buffer_.push_back(record);
    ++num_added_;
  }

  void AppendBatch(const T* records, std::size_t n) {
    DCHECK(!finished_) << "Append after FinishInto";
    if (n == 0) return;
    if (capacity_ == 0) ReserveBuffer();
    num_added_ += n;
    while (n > 0) {
      if (buffer_.size() >= capacity_) Spill();
      const std::size_t take = std::min(n, capacity_ - buffer_.size());
      buffer_.insert(buffer_.end(), records, records + take);
      records += take;
      n -= take;
    }
  }

  // Sorts everything appended into `sink`. The final merge (or the
  // still-resident buffer, whose reservation is held while the sink
  // consumes it) drains straight into the consumer.
  template <RecordSinkFor<T> S>
  SortRunInfo FinishInto(S& sink) {
    DCHECK(!finished_) << "FinishInto called twice";
    finished_ = true;
    SortRunInfo info;
    info.num_records = num_added_;
    // Resident only if no spill was ever attempted: a writer whose
    // first spill every device refused has no runs, yet lost records.
    if (!spilled_) {
      const std::size_t n =
          internal::SortDedupPrefix(buffer_, buffer_.size(), less_, dedup_);
      info.num_runs = buffer_.empty() ? 0 : 1;
      SinkAppendBatch<T>(sink, buffer_.data(), n);
      ReleaseBuffer();
      return info;
    }
    if (!buffer_.empty()) Spill();
    ReleaseBuffer();
    info.num_runs = runs_.size();
    if (!spill_status_.ok()) {
      // An unrecovered spill lost records: the formed runs are an
      // incomplete view of what was appended, so merging them would
      // launder truncation into a sorted result.
      for (const auto& run : runs_) context_->temp_files().Remove(run);
      runs_.clear();
      info.status = spill_status_;
      return info;
    }
    info.status = internal::MergeRunsInto<T>(context_, std::move(runs_), sink,
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
    const std::uint64_t available =
        context_->memory().MaxRecordsInMemory(sizeof(T));
    if (input_records_.has_value()) {
      // At least the record being appended, should the size undercount.
      const std::uint64_t n = std::max<std::uint64_t>(*input_records_, 1);
      capacity_ = static_cast<std::size_t>(std::min(n, available));
    } else {
      // The two-block floor: block granularity is the model's minimum
      // useful unit (the M >= 2B regime grants every active stream a
      // block, and the io layer's per-stream block buffers are likewise
      // unreserved), and without it a tight budget mostly claimed by a
      // sibling (Type-2 dictionary, merge blocks) would collapse this
      // writer into few-record runs that each cost a whole block write.
      // The clamped reservation bounds any overshoot by ~2 blocks per
      // live writer — never a CHECK-abort.
      capacity_ = static_cast<std::size_t>(std::max<std::uint64_t>(
          2 * io::RecordsPerBlock<T>(context_), available / 2));
    }
    reserved_bytes_ = context_->memory().ReserveUpTo(
        static_cast<std::uint64_t>(capacity_) * sizeof(T));
    // Allocate up front: push_back's geometric growth would otherwise
    // overshoot the reserved bytes by up to 2x.
    buffer_.reserve(capacity_);
  }

  // Sorts (+dedups) the buffer and writes it as the next run, or parks
  // the first failure; after one, spills only empty the buffer.
  void Spill() {
    spilled_ = true;
    if (spill_status_.ok()) {
      const std::size_t kept = internal::SortDedupPrefix(
          buffer_, buffer_.size(), less_, dedup_, scratch_);
      std::string path;
      spill_status_ = internal::WriteRunWithFailover<T>(
          context_, "sortrun",
          [&](io::RecordWriter<T>& writer) {
            writer.AppendBatch(buffer_.data(), kept);
            return util::Status::Ok();
          },
          &path);
      if (spill_status_.ok()) runs_.push_back(std::move(path));
    }
    buffer_.clear();  // capacity is kept for the next run
  }

  void ReleaseBuffer() {
    std::vector<T>().swap(buffer_);  // return the run buffer eagerly
    std::vector<T>().swap(scratch_);
    if (reserved_bytes_ > 0) {
      context_->memory().Release(reserved_bytes_);
      reserved_bytes_ = 0;
    }
  }

  io::IoContext* context_;
  Less less_;
  bool dedup_;
  std::optional<std::uint64_t> input_records_;  // known input size, if any
  std::size_t capacity_ = 0;  // sized (and reserved) at the first Append
  std::uint64_t reserved_bytes_ = 0;
  std::vector<T> buffer_;
  std::vector<T> scratch_;  // radix ping-pong buffer, kept across spills
  bool spilled_ = false;    // a spill was attempted: never resident again
  std::vector<std::string> runs_;  // spilled runs, in spill order
  util::Status spill_status_;      // first spill every device refused
  std::uint64_t num_added_ = 0;
  bool finished_ = false;
};

// Fused external sort: sorts `input_path` and drains the result into
// `sink` instead of a file — a SortingWriter told the input size, fed
// from an io::RecordReader in block-sized batches. The consumer sees the
// records in sorted order exactly once, during the final merge pass (or
// straight from the run buffer when the input fits in memory), so the
// stage costs sort(n) minus a full write+read of the output versus
// SortFile + scan. If `dedup` is true, records equal under Less (neither
// compares before the other) are collapsed to one.
template <typename T, typename Less, RecordSinkFor<T> S>
SortRunInfo SortInto(io::IoContext* context, const std::string& input_path,
                     S& sink, Less less, bool dedup = false) {
  // The size comes from the reader, not io::NumRecordsInFile: a torn
  // file then reads nothing and reports kCorruption instead of aborting.
  io::RecordReader<T> reader(context, input_path);
  SortingWriter<T, Less> writer(context, less, dedup, reader.num_records());
  const std::size_t batch = io::RecordsPerBlock<T>(context);
  std::vector<T> chunk(batch);
  std::size_t got;
  while ((got = reader.NextBatch(chunk.data(), batch)) > 0) {
    writer.AppendBatch(chunk.data(), got);
  }
  if (!reader.status().ok()) {
    // A short read (error-as-EOF) left the writer with a truncated view
    // of the input: report it instead of sorting it; the writer's
    // destructor drops any runs it spilled.
    SortRunInfo info;
    info.status = reader.status();
    return info;
  }
  return writer.FinishInto(sink);
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
