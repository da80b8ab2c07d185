// External depth-first search in the style of Buchsbaum et al. [8]:
// adjacency lists fetched from an on-disk CSR (random block reads), DFS
// frames on an external stack, and a buffered repository tree carrying
// "neighbour now visited" messages (for each newly visited v, one message
// (w, v) per in-neighbour w; the DFS extracts its current vertex's
// messages when the vertex is entered and whenever it is resumed).
//
// Simulation note: visited decisions consult an in-memory oracle bitmap
// so that the traversal is exactly correct, but every I/O the real
// algorithm performs — adjacency fetches, stack traffic, BRT
// inserts/extracts — is physically performed and charged to the
// IoContext. The measured I/O profile is the baseline's; only its
// control flow is oracle-assisted.
#ifndef EXTSCC_BASELINE_EXTERNAL_DFS_H_
#define EXTSCC_BASELINE_EXTERNAL_DFS_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "io/record_stream.h"

namespace extscc::baseline {

// File-backed LIFO stack with a single in-memory block buffer: pushes and
// pops touch disk only when the buffer boundary is crossed, i.e. O(1/B)
// amortized I/Os per operation.
template <typename T>
class ExternalStack {
 public:
  explicit ExternalStack(io::IoContext* context)
      : context_(context),
        path_(context->NewTempPath("xstack")),
        file_(std::make_unique<io::BlockFile>(context, path_,
                                              io::OpenMode::kReadWrite)),
        per_block_(context->block_size() / sizeof(T)),
        scratch_(context->block_size()) {
    buffer_.reserve(2 * per_block_);
  }

  ~ExternalStack() { context_->temp_files().Remove(path_); }

  bool empty() const { return size_ == 0; }
  std::uint64_t size() const { return size_; }

  void Push(const T& value) {
    if (buffer_.size() == 2 * per_block_) {
      // Spill the older half as one block.
      std::memcpy(scratch_.data(), buffer_.data(), per_block_ * sizeof(T));
      file_->WriteBlock(spilled_blocks_++, scratch_.data(),
                        per_block_ * sizeof(T));
      buffer_.erase(buffer_.begin(), buffer_.begin() + per_block_);
    }
    buffer_.push_back(value);
    ++size_;
  }

  T Pop() {
    if (buffer_.empty()) {
      file_->ReadBlock(--spilled_blocks_, scratch_.data());
      buffer_.resize(per_block_);
      std::memcpy(buffer_.data(), scratch_.data(), per_block_ * sizeof(T));
    }
    T out = buffer_.back();
    buffer_.pop_back();
    --size_;
    return out;
  }

 private:
  io::IoContext* context_;
  std::string path_;
  std::unique_ptr<io::BlockFile> file_;
  std::size_t per_block_;
  std::vector<char> scratch_;
  std::vector<T> buffer_;
  std::uint64_t spilled_blocks_ = 0;
  std::uint64_t size_ = 0;
};

// On-disk CSR over dense indices 0..num_nodes-1 (positions in the
// graph's sorted node file).
struct DiskCsr {
  std::string offsets_path;  // num_nodes + 1 uint64 records
  std::string targets_path;  // num_edges uint32 records
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
};

// Builds the CSR of `g` (or of its reverse) with external sorts and
// sequential scans.
DiskCsr BuildDiskCsr(io::IoContext* context, const graph::DiskGraph& g,
                     bool reversed);

struct ExternalDfsStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t brt_inserts = 0;
  std::uint64_t brt_extracts = 0;
};

// Runs a full-forest DFS over `forward`. Roots are tried in the order
// produced by `next_root` (returns kInvalidNode when exhausted; already
// visited candidates are skipped). `reverse` provides in-neighbour lists
// for the BRT message traffic. `on_finalize(v)` fires in postorder;
// `on_root(v)` fires when a new tree starts.
//
// Returns false if the context's I/O budget tripped mid-traversal.
bool RunExternalDfs(io::IoContext* context, const DiskCsr& forward,
                    const DiskCsr& reverse,
                    const std::function<graph::NodeId()>& next_root,
                    const std::function<void(std::uint32_t)>& on_root,
                    const std::function<void(std::uint32_t)>& on_finalize,
                    ExternalDfsStats* stats);

}  // namespace extscc::baseline

#endif  // EXTSCC_BASELINE_EXTERNAL_DFS_H_
