#include "io/memory_budget.h"

#include <algorithm>

#include "util/logging.h"

namespace extscc::io {

MemoryBudget::MemoryBudget(std::uint64_t total_bytes)
    : total_bytes_(total_bytes) {
  CHECK_GT(total_bytes, 0u);
}

std::uint64_t MemoryBudget::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

std::uint64_t MemoryBudget::available_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_ - used_bytes_;
}

void MemoryBudget::Reserve(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_LE(used_bytes_ + bytes, total_bytes_)
      << "memory budget oversubscribed: used=" << used_bytes_
      << " reserve=" << bytes << " total=" << total_bytes_;
  used_bytes_ += bytes;
}

void MemoryBudget::Release(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_LE(bytes, used_bytes_);
  used_bytes_ -= bytes;
}

std::uint64_t MemoryBudget::ReserveUpTo(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t granted = std::min(bytes, total_bytes_ - used_bytes_);
  used_bytes_ += granted;
  return granted;
}

std::uint64_t MemoryBudget::MaxRecordsInMemory(std::size_t record_size) const {
  CHECK_GT(record_size, 0u);
  return std::max<std::uint64_t>(2, available_bytes() / record_size);
}

std::uint64_t MemoryBudget::MergeFanIn(std::size_t block_size) const {
  CHECK_GT(block_size, 0u);
  const std::uint64_t buffers = available_bytes() / block_size;
  // One block buffer per input run (each PeekableReader reads through
  // one RecordReader block) plus the output writer's block — fan-in f
  // costs f + 1 blocks. At least a binary merge must be possible
  // (M >= 2B in the model, so this is the floor).
  return std::max<std::uint64_t>(2, buffers > 1 ? buffers - 1 : 2);
}

}  // namespace extscc::io
