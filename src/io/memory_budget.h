// Simulated main-memory budget M (the paper's problem statement:
// 2·B <= M < ||G||). The algorithms size every in-memory structure from
// this budget: external-sort run length, merge fan-in, the semi-external
// stop condition c·|V| <= M, EM-SCC partition size and the Type-2
// dictionary capacity s. Reservations are tracked so tests can assert no
// component oversubscribes M.
//
// Thread safety: all accounting is guarded by an internal mutex, so
// concurrent pipelines (sort workers, serve-side query readers) may
// reserve against one budget. ReserveUpTo is the atomic
// form of the "clamp to what is left, then reserve" pattern — callers
// that size a buffer from available_bytes() must use it, or two threads
// can both observe the same headroom and jointly oversubscribe.
#ifndef EXTSCC_IO_MEMORY_BUDGET_H_
#define EXTSCC_IO_MEMORY_BUDGET_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace extscc::io {

class MemoryBudget {
 public:
  // `total_bytes` is M. CHECK-fails unless M >= 2 * block_size is later
  // validated by the IoContext that owns it.
  explicit MemoryBudget(std::uint64_t total_bytes);

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t used_bytes() const;
  std::uint64_t available_bytes() const;

  // Accounting for long-lived in-memory structures. Reserve CHECK-fails on
  // oversubscription: the library treats exceeding M as a logic error, not
  // a runtime condition.
  void Reserve(std::uint64_t bytes);
  void Release(std::uint64_t bytes);

  // Reserves min(bytes, available) atomically and returns the granted
  // amount (possibly 0). Never CHECK-fails.
  std::uint64_t ReserveUpTo(std::uint64_t bytes);

  // Number of records of `record_size` bytes a sort run may hold,
  // using the currently-available budget. Always at least 2 so degenerate
  // budgets still make progress (mirrors the M >= 2B assumption).
  std::uint64_t MaxRecordsInMemory(std::size_t record_size) const;

  // Merge fan-in: one input block buffer per run plus one output buffer.
  std::uint64_t MergeFanIn(std::size_t block_size) const;

 private:
  const std::uint64_t total_bytes_;
  mutable std::mutex mutex_;
  std::uint64_t used_bytes_ = 0;  // guarded by mutex_
};

// RAII reservation. With `clamp`, reserves up to `bytes` (atomically
// clamped to the available budget) instead of CHECK-failing; bytes()
// reports what was actually granted.
class ScopedReservation {
 public:
  ScopedReservation(MemoryBudget* budget, std::uint64_t bytes,
                    bool clamp = false)
      : budget_(budget) {
    bytes_ = clamp ? budget_->ReserveUpTo(bytes)
                   : (budget_->Reserve(bytes), bytes);
  }
  ~ScopedReservation() { budget_->Release(bytes_); }

  std::uint64_t bytes() const { return bytes_; }

  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;

 private:
  MemoryBudget* budget_;
  std::uint64_t bytes_;
};

}  // namespace extscc::io

#endif  // EXTSCC_IO_MEMORY_BUDGET_H_
