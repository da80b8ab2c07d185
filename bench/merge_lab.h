// Shared merge-parallel lab: the sorted-run layout and the loser-tree
// drain used by both BM_MergeParallel (bench_micro) and
// bench_merge_parallel. One definition means the two benches measure
// the same workload and their checksums cross-validate.
#ifndef EXTSCC_BENCH_MERGE_LAB_H_
#define EXTSCC_BENCH_MERGE_LAB_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "extsort/external_sorter.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "util/random.h"

namespace extscc::bench {

// Writes `runs` sorted Edge runs of `run_len` records each as ONE
// merge group, placed by the context's policy — the layout run
// formation leaves for its merge pass: under round-robin consecutive
// runs alternate devices, under striping every run spans them all.
inline std::vector<std::string> MakeMergeRuns(io::IoContext* ctx,
                                              std::size_t runs,
                                              std::uint64_t run_len,
                                              std::uint64_t seed) {
  std::vector<std::string> paths;
  util::Rng rng(seed);
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<graph::Edge> values(run_len);
    for (auto& e : values) {
      e.src = static_cast<graph::NodeId>(rng.Uniform(1u << 20));
      e.dst = static_cast<graph::NodeId>(rng.Uniform(1u << 20));
    }
    std::stable_sort(values.begin(), values.end(), graph::EdgeBySrc());
    paths.push_back(ctx->NewTempPath("run"));
    io::WriteAllRecords(ctx, paths.back(), values);
  }
  return paths;
}

struct MergeDrainResult {
  std::uint64_t records = 0;
  std::uint64_t checksum = 0;  // FNV-1a-style over the merged stream
};

// Drains a loser-tree merge of `runs` into a checksum sink — the shape
// of every fused final merge pass (SortInto), where the consumer sees
// the sorted stream without materializing it.
inline MergeDrainResult DrainMergeChecksum(
    io::IoContext* ctx, const std::vector<std::string>& runs) {
  MergeDrainResult result;
  std::vector<std::unique_ptr<io::PeekableReader<graph::Edge>>> inputs;
  inputs.reserve(runs.size());
  for (const auto& path : runs) {
    inputs.push_back(
        std::make_unique<io::PeekableReader<graph::Edge>>(ctx, path));
  }
  extsort::internal::LoserTree<graph::Edge, graph::EdgeBySrc> tree(
      std::move(inputs), graph::EdgeBySrc());
  auto sink =
      extsort::MakeCallbackSink<graph::Edge>([&result](const graph::Edge& e) {
        result.records += 1;
        result.checksum =
            result.checksum * 1099511628211ull + (e.src ^ (e.dst << 1));
      });
  extsort::internal::DrainMerge(&tree, &sink, graph::EdgeBySrc(),
                                /*dedup=*/false);
  return result;
}

}  // namespace extscc::bench

#endif  // EXTSCC_BENCH_MERGE_LAB_H_
