#include "test_util.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "graph/digraph.h"
#include "scc/scc_verify.h"
#include "scc/tarjan.h"

namespace extscc::testing {

void ApplyTestEnvOptions(io::IoContextOptions* options) {
  const std::string error = io::ParseMachineEnv("EXTSCC_TEST_", options);
  if (!error.empty()) ADD_FAILURE() << error;
}

namespace {

std::unique_ptr<io::IoContext> MakeContextWithModel(
    std::uint64_t memory_bytes, std::size_t block_size,
    io::DeviceModel model) {
  io::IoContextOptions options;
  options.block_size = block_size;
  options.memory_bytes = memory_bytes;
  options.device_model.model = model;
  // The environment wins over the suite's requested backing, so the CI
  // matrix (threaded, multidevice) drives every fixture-built suite.
  ApplyTestEnvOptions(&options);
  return std::make_unique<io::IoContext>(options);
}

}  // namespace

std::unique_ptr<io::IoContext> MakeTestContext(std::uint64_t memory_bytes,
                                               std::size_t block_size) {
  return MakeContextWithModel(memory_bytes, block_size,
                              io::DeviceModel::kPosix);
}

std::unique_ptr<io::IoContext> MakeMemTestContext(std::uint64_t memory_bytes,
                                                  std::size_t block_size) {
  return MakeContextWithModel(memory_bytes, block_size,
                              io::DeviceModel::kMem);
}

ScopedTempPath::ScopedTempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = "extscc_";
  if (test != nullptr) {
    unique += std::string(test->test_suite_name()) + "." + test->name() + "_";
  }
  unique += std::to_string(::getpid()) + "_" + name;
  // Parameterized test names carry '/'.
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  path_ = (std::filesystem::path(::testing::TempDir()) / unique).string();
}

ScopedTempPath::~ScopedTempPath() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) ADD_FAILURE() << "cannot write " << path;
}

scc::SccResult Oracle(const std::vector<graph::Edge>& edges,
                      const std::vector<graph::NodeId>& extra_nodes) {
  graph::Digraph g(extra_nodes, edges);
  return scc::TarjanScc(g);
}

bool OracleReach(const graph::Digraph& g, graph::NodeId from,
                 graph::NodeId to) {
  const std::size_t s = g.index_of(from);
  const std::size_t t = g.index_of(to);
  if (s == g.num_nodes() || t == g.num_nodes()) return from == to;
  return graph::BfsReachable(g, s, t);
}

std::vector<graph::Edge> MapIds(const std::vector<graph::Edge>& edges,
                                IdLayout layout) {
  std::vector<graph::NodeId> ids;
  for (const graph::Edge& e : edges) {
    ids.push_back(e.src);
    ids.push_back(e.dst);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const std::uint64_t n = ids.size();
  auto map = [&](graph::NodeId id) -> graph::NodeId {
    const std::uint64_t rank =
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin();
    const bool last = rank + 1 == n;
    switch (layout) {
      case IdLayout::kIdentity:
        return id;
      case IdLayout::kStride:
        EXPECT_LT(id, 0xFFFFFFFFu / 4099);
        return id * 4099;
      case IdLayout::kExactBuckets:
        return static_cast<graph::NodeId>(4 * rank + (last ? 3 : 0));
      case IdLayout::kLooseBucketTrap:
        return static_cast<graph::NodeId>(last ? 2 * n : 2 * rank);
      case IdLayout::kTopOfRange:
        return 0xFFFFFFFEu - id;
      case IdLayout::kClusterOutliers:
        return static_cast<graph::NodeId>(
            rank + 3 < n ? rank : (rank + 4 - n) * 0x40000000u + rank);
    }
    ADD_FAILURE() << "unknown IdLayout";
    return id;
  };
  std::vector<graph::Edge> out;
  out.reserve(edges.size());
  for (const graph::Edge& e : edges) out.push_back({map(e.src), map(e.dst)});
  return out;
}

void ExpectSccFileMatchesOracle(io::IoContext* context,
                                const graph::DiskGraph& g,
                                const std::string& scc_path,
                                const char* label) {
  std::string explanation;
  const bool ok = scc::VerifySccFile(context, g, scc_path, &explanation);
  EXPECT_TRUE(ok) << label << ": " << explanation;
}

}  // namespace extscc::testing
