#include "test_util.h"

#include <gtest/gtest.h>

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

void ExpectSccFileMatchesOracle(io::IoContext* context,
                                const graph::DiskGraph& g,
                                const std::string& scc_path,
                                const char* label) {
  std::string explanation;
  const bool ok = scc::VerifySccFile(context, g, scc_path, &explanation);
  EXPECT_TRUE(ok) << label << ": " << explanation;
}

}  // namespace extscc::testing
