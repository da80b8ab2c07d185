// Shared fixtures/helpers for the extscc test suites.
#ifndef EXTSCC_TESTS_TEST_UTIL_H_
#define EXTSCC_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "scc/scc_result.h"

namespace extscc::testing {

// Applies the test-matrix environment overrides to `options`: the
// shared machine options (io::ParseMachineEnv) as EXTSCC_TEST_<SUFFIX>
// variables; a malformed value fails the calling test.
//  - EXTSCC_TEST_SORT_THREADS=0|1: overlapped run formation (the
//    threaded and TSan CI jobs set 1; sorted outputs are byte-identical
//    by design).
//  - EXTSCC_TEST_SCRATCH_DIRS=a,b: one scratch device per entry, new
//    scratch files round-robin across them.
//  - EXTSCC_TEST_DEVICE_MODEL=posix|mem|faulty[:seed=S,rate=R,...]:
//    scratch device backing (the chaos job sets faulty with a
//    transient-only rate, so every suite solves through injected
//    EIO + retries).
// Suites that build IoContextOptions by hand call this so the CI matrix
// reaches them too.
void ApplyTestEnvOptions(io::IoContextOptions* options);

// Fresh IoContext with a small block size so even tiny inputs span
// multiple blocks (exercises the block machinery), and a budget large
// enough that in-memory fast paths fit. Posix scratch unless the
// environment overrides the device model.
std::unique_ptr<io::IoContext> MakeTestContext(
    std::uint64_t memory_bytes = 1 << 20, std::size_t block_size = 4096);

// Same geometry, MemDevice scratch: the pure-engine suites (extsort,
// record_sink, radix_sort, run_pipeline) run on RAM-backed devices —
// faster and tmpfs-independent, with block accounting identical to
// posix byte for byte. The environment overrides still win, so the
// chaos CI job drives these suites through its faulty devices.
std::unique_ptr<io::IoContext> MakeMemTestContext(
    std::uint64_t memory_bytes = 1 << 20, std::size_t block_size = 4096);

// A path under ::testing::TempDir() unique to the running test and
// process, so parallel ctest runs cannot collide; whatever is there
// (file, FIFO, directory tree) is removed when the object goes out of
// scope. For user-facing files — text edge lists, label files — that
// live on the real filesystem, not on a (possibly virtual) scratch
// device.
class ScopedTempPath {
 public:
  explicit ScopedTempPath(const std::string& name);
  ~ScopedTempPath();

  ScopedTempPath(const ScopedTempPath&) = delete;
  ScopedTempPath& operator=(const ScopedTempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Replaces the file at `path` with `text`.
void WriteTextFile(const std::string& path, const std::string& text);

// In-memory oracle partition of an edge list (+ optional isolated nodes).
scc::SccResult Oracle(const std::vector<graph::Edge>& edges,
                      const std::vector<graph::NodeId>& extra_nodes = {});

// Reachability oracle by direct search on `g` (graph::BfsReachable),
// taking external NodeIds. Ids absent from the graph reach only
// themselves — matching the index-side convention that an unlabelled
// node is its own singleton.
bool OracleReach(const graph::Digraph& g, graph::NodeId from,
                 graph::NodeId to);

// Node-id layouts the semi-external sweeps map generated graphs
// through. Each stresses the base case's id->index bucket directory
// (TranslateEdgesToIndices) differently; n is the number of distinct
// endpoints and s the directory's bucket shift.
enum class IdLayout {
  kIdentity,         // ids as generated: near-dense, s = 0 if none unused
  kStride,           // id * 4099 (odd stride): sparse, s > 0
  kExactBuckets,     // ((hi - lo) >> s) + 1 == n exactly, s = 2
  kLooseBucketTrap,  // hi - lo == 2n, where the looser shift test,
                     // ((hi - lo + 1) >> s) <= n, admits n + 1 buckets
                     // (n = 2 is ids {0, 4})
  kTopOfRange,       // 0xFFFFFFFE - id: just below kInvalidNode
  kClusterOutliers,  // a dense cluster plus three far outliers, so one
                     // bucket holds almost every id
};

inline constexpr IdLayout kAllIdLayouts[] = {
    IdLayout::kIdentity,        IdLayout::kStride,
    IdLayout::kExactBuckets,    IdLayout::kLooseBucketTrap,
    IdLayout::kTopOfRange,      IdLayout::kClusterOutliers};

// `edges` with every endpoint mapped through `layout` (one-to-one, so
// the SCC structure is unchanged). Generated ids must stay below
// 2^32 / 4099 for kStride.
std::vector<graph::Edge> MapIds(const std::vector<graph::Edge>& edges,
                                IdLayout layout);

// Asserts (gtest EXPECT) that `scc_path` matches the oracle of `g`.
void ExpectSccFileMatchesOracle(io::IoContext* context,
                                const graph::DiskGraph& g,
                                const std::string& scc_path,
                                const char* label);

}  // namespace extscc::testing

#endif  // EXTSCC_TESTS_TEST_UTIL_H_
