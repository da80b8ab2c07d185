// Dynamic subsystem: incremental SCC maintenance under edge-insert
// batches (src/dyn/). The load-bearing claims, pinned here:
//
//  - After every structural batch the published artifact is the one
//    build-index would write for the union graph — byte for byte except
//    the preamble's data version (and its CRC).
//  - A batch with no new nodes and no new condensation edges takes the
//    delta-log path: the artifact file is untouched, the batch costs
//    the map sweep plus one block write, and a fresh open recovers the
//    pending-edge count.
//  - Under injected device faults an update either completes with
//    correct labels or fails with a documented status code — and a
//    failed update NEVER publishes a torn artifact: the previous
//    version stays live, readable, and identical.
//  - The verdict matches what is live: wherever a dying device stops a
//    structural batch, a failed ApplyBatch leaves the old version
//    published and a successful one the new version.
//
// The oracle run drives a randomized insert stream on two round-robin
// RAM scratch devices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dyn/delta_log.h"
#include "dyn/dynamic_index.h"
#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/fault_injection.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace extscc {
namespace {

namespace fs = std::filesystem;
using dyn::DynamicSccIndex;
using dyn::UpdateBatchStats;
using graph::Edge;
using graph::NodeId;
using graph::SccEntry;
using graph::SccId;
using serve::ArtifactReader;

// Two RAM-backed scratch devices regardless of the env matrix (the
// chaos job's faulty injection gets its own dedicated test below; the
// oracle runs must be deterministic), but sort_threads still applies.
std::unique_ptr<io::IoContext> MakeDynContext() {
  io::IoContextOptions options;
  options.block_size = 4096;
  options.memory_bytes = 4 << 20;
  testing::ApplyTestEnvOptions(&options);
  options.device_model = io::DeviceModelSpec{};
  options.device_model.model = io::DeviceModel::kMem;
  options.scratch_dirs = {"", ""};
  return std::make_unique<io::IoContext>(options);
}

// A directory for user-facing artifacts on the base (posix) device —
// the device whose Rename backs the publish protocol. Unique to the
// test (testing::ScopedTempPath) and removed at scope end with every
// artifact, delta log and publish temp file in it.
class BaseArtifactDir {
 public:
  BaseArtifactDir() : dir_("artifacts") {
    fs::create_directories(dir_.path());
  }
  std::string PathFor(const std::string& tag) const {
    return (fs::path(dir_.path()) / (tag + ".art")).string();
  }

 private:
  testing::ScopedTempPath dir_;
};

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

// Byte-identity modulo the preamble's data_version field (offset 16..24)
// and the preamble CRC that covers it (offset 28..32).
void ExpectArtifactBytesIdentical(const std::string& a_path,
                                  const std::string& b_path,
                                  const char* label) {
  const std::vector<char> a = ReadFileBytes(a_path);
  const std::vector<char> b = ReadFileBytes(b_path);
  ASSERT_EQ(a.size(), b.size()) << label;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((i >= 16 && i < 24) || (i >= 28 && i < 32)) continue;
    if (a[i] != b[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << label << ": " << mismatches << " differing bytes outside the "
      << "data-version field";
}

std::vector<SccEntry> ScanMap(const ArtifactReader& reader) {
  serve::SccMapScanner scan = reader.OpenNodeSccScan();
  std::vector<SccEntry> out;
  SccEntry entry;
  while (scan.Next(&entry)) out.push_back(entry);
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  return out;
}

// Section-by-section equality of the incremental artifact against a
// fresh build over the union graph. `pending` is the incremental
// side's pending-edge count: those edges are not folded into the
// artifact yet, so only the summary's raw edge count may differ — by
// exactly that much.
void ExpectMatchesRebuild(const ArtifactReader& inc,
                          const ArtifactReader& rebuild,
                          std::uint64_t pending, const char* label) {
  SCOPED_TRACE(label);
  const std::vector<SccEntry> map_inc = ScanMap(inc);
  const std::vector<SccEntry> map_re = ScanMap(rebuild);
  ASSERT_EQ(map_inc.size(), map_re.size());
  for (std::size_t i = 0; i < map_inc.size(); ++i) {
    ASSERT_EQ(map_inc[i].node, map_re[i].node) << "entry " << i;
    ASSERT_EQ(map_inc[i].scc, map_re[i].scc) << "entry " << i;
  }

  const auto& la = inc.labels();
  const auto& lb = rebuild.labels();
  ASSERT_EQ(la.num_rounds(), lb.num_rounds());
  for (std::uint32_t r = 0; r < la.num_rounds(); ++r) {
    EXPECT_EQ(la.ranks(r), lb.ranks(r)) << "round " << r;
    EXPECT_EQ(la.mins(r), lb.mins(r)) << "round " << r;
  }
  EXPECT_EQ(la.dag().num_nodes(), lb.dag().num_nodes());
  EXPECT_EQ(la.dag().num_edges(), lb.dag().num_edges());

  ASSERT_EQ(inc.num_sccs(), rebuild.num_sccs());
  for (std::uint64_t s = 0; s < inc.num_sccs(); ++s) {
    EXPECT_EQ(inc.scc_size(static_cast<SccId>(s)),
              rebuild.scc_size(static_cast<SccId>(s)))
        << "scc " << s;
  }

  const serve::ArtifactSummary& A = inc.summary();
  const serve::ArtifactSummary& B = rebuild.summary();
  EXPECT_EQ(A.graph_nodes, B.graph_nodes);
  EXPECT_EQ(A.graph_edges + pending, B.graph_edges);
  EXPECT_EQ(A.num_sccs, B.num_sccs);
  EXPECT_EQ(A.dag_edges, B.dag_edges);
  EXPECT_EQ(A.largest_scc, B.largest_scc);
  EXPECT_EQ(A.largest_scc_size, B.largest_scc_size);
  EXPECT_EQ(A.num_singletons, B.num_singletons);
  EXPECT_EQ(A.bowtie_computed, B.bowtie_computed);
  EXPECT_EQ(A.core_scc, B.core_scc);
  EXPECT_EQ(A.core_size, B.core_size);
  EXPECT_EQ(A.in_size, B.in_size);
  EXPECT_EQ(A.out_size, B.out_size);
  EXPECT_EQ(A.other_size, B.other_size);
}

// Random insert batch. Structural batches mix brand-new nodes, edges
// between random existing nodes (closing cycles), duplicates, and
// self-loops; non-structural ones draw only from edges the artifact
// already condensed (duplicates of base edges, self-loops on their
// endpoints) — provably intra-SCC or duplicate-DAG.
std::vector<Edge> MakeBatch(util::Rng* rng, const std::vector<Edge>& base,
                            std::uint32_t num_nodes,
                            std::uint32_t* next_new_node, std::size_t n,
                            bool structural) {
  std::vector<Edge> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t kind = rng->Uniform(structural ? 6 : 2);
    const Edge& pick = base[rng->Uniform(base.size())];
    switch (kind) {
      case 0:  // duplicate of an edge the artifact has seen
        out.push_back(pick);
        break;
      case 1:  // self-loop on a node the artifact has seen
        out.push_back(Edge{pick.src, pick.src});
        break;
      case 2:
      case 3:  // random edge over the base id range (often a new DAG
               // edge, sometimes a cycle-closing backward one)
        out.push_back(
            Edge{static_cast<NodeId>(rng->Uniform(num_nodes)),
                 static_cast<NodeId>(rng->Uniform(num_nodes))});
        break;
      case 4:  // edge into a brand-new node
        out.push_back(Edge{pick.src, (*next_new_node)++});
        break;
      case 5:  // edge out of a brand-new node
        out.push_back(Edge{(*next_new_node)++, pick.dst});
        break;
    }
  }
  return out;
}

// ---- The oracle run ---------------------------------------------------

TEST(DynamicTest, IncrementalMatchesFullRebuild) {
  constexpr const char* kName = "serial_rr";
  auto context = MakeDynContext();
  const std::vector<Edge> base = gen::RandomDigraphEdges(300, 1200, 42);
  const BaseArtifactDir dir;
  const std::string inc_path = dir.PathFor(std::string("inc_") + kName);
  const std::string rebuild_path = dir.PathFor(std::string("re_") + kName);
  {
    const auto g = graph::MakeDiskGraph(context.get(), base);
    auto built = serve::BuildArtifact(context.get(), g, inc_path);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }
  auto opened = DynamicSccIndex::Open(context.get(), inc_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DynamicSccIndex index = std::move(opened).value();

  util::Rng rng(1000);
  std::vector<Edge> union_edges = base;
  std::uint32_t next_new_node = 300;
  // Batch 2 is crafted non-structural; the last batch is structural
  // so the run ends with an empty delta log (raw-byte comparison).
  const bool structural_plan[] = {true, false, true, true, true};
  for (std::size_t k = 0; k < 5; ++k) {
    SCOPED_TRACE("batch " + std::to_string(k));
    const std::vector<Edge> batch = MakeBatch(
        &rng, base, 300, &next_new_node, 60, structural_plan[k]);
    union_edges.insert(union_edges.end(), batch.begin(), batch.end());

    auto applied = index.ApplyBatch(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    const UpdateBatchStats& stats = applied.value();
    EXPECT_EQ(stats.edges_in, batch.size());
    if (!structural_plan[k]) {
      EXPECT_FALSE(stats.rewrote_artifact);
      EXPECT_EQ(stats.new_dag_edges, 0u);
      EXPECT_EQ(stats.new_nodes, 0u);
      EXPECT_GT(index.pending_delta_edges(), 0u);
    }

    // Full rebuild over the union graph, same label parameters.
    const auto g = graph::MakeDiskGraph(context.get(), union_edges);
    auto rebuilt = serve::BuildArtifact(context.get(), g, rebuild_path);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    auto rebuild_reader = ArtifactReader::Open(context.get(), rebuild_path);
    ASSERT_TRUE(rebuild_reader.ok()) << rebuild_reader.status().ToString();
    ExpectMatchesRebuild(index.reader(), rebuild_reader.value(),
                         index.pending_delta_edges(), kName);
  }

  // The stream ended on a structural publish: delta log folded in, so
  // the files agree byte for byte outside the data-version field.
  EXPECT_EQ(index.pending_delta_edges(), 0u);
  EXPECT_GT(index.data_version(), 0u);
  ExpectArtifactBytesIdentical(inc_path, rebuild_path, kName);

  // Query answers off the maintained artifact match fresh oracles of
  // the union graph.
  const auto oracle = testing::Oracle(union_edges);
  const graph::Digraph union_graph(union_edges);
  const serve::QueryEngine engine(&index.reader());
  std::vector<serve::Query> queries;
  for (std::size_t i = 0; i < 300; ++i) {
    const std::uint64_t kind = rng.Uniform(3);
    serve::Query q;
    q.type = kind == 0   ? serve::QueryType::kSameScc
             : kind == 1 ? serve::QueryType::kReachable
                         : serve::QueryType::kSccStat;
    q.u = static_cast<NodeId>(rng.Uniform(next_new_node + 5));
    q.v = static_cast<NodeId>(rng.Uniform(next_new_node + 5));
    queries.push_back(q);
  }
  std::vector<serve::QueryAnswer> answers(queries.size());
  ASSERT_TRUE(engine
                  .RunBatch(context.get(), queries.data(), queries.size(),
                            answers.data())
                  .ok());
  const auto sizes = oracle.ComponentSizes();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const serve::Query& q = queries[i];
    const serve::QueryAnswer& a = answers[i];
    const bool u_known = oracle.Contains(q.u);
    const bool v_known = oracle.Contains(q.v);
    switch (q.type) {
      case serve::QueryType::kSccStat:
        ASSERT_EQ(a.known, u_known) << "stat " << q.u;
        if (a.known) {
          ASSERT_EQ(a.scc_size, sizes.at(oracle.LabelOf(q.u)))
              << "stat " << q.u;
        }
        break;
      case serve::QueryType::kSameScc:
        ASSERT_EQ(a.known, u_known && v_known);
        if (a.known) {
          ASSERT_EQ(a.result, oracle.LabelOf(q.u) == oracle.LabelOf(q.v))
              << "same " << q.u << " " << q.v;
        }
        break;
      case serve::QueryType::kReachable:
        ASSERT_EQ(a.known, u_known && v_known);
        if (a.known) {
          ASSERT_EQ(a.result, testing::OracleReach(union_graph, q.u, q.v))
              << "reach " << q.u << " " << q.v;
        }
        break;
    }
  }
}

// ---- Delta log -------------------------------------------------------

TEST(DynamicTest, DeltaLogSurvivesReopenAndFoldsIntoNextRewrite) {
  auto context = MakeDynContext();
  const std::vector<Edge> base = gen::RandomDigraphEdges(200, 800, 9);
  const BaseArtifactDir dir;
  const std::string path = dir.PathFor("reopen");
  {
    const auto g = graph::MakeDiskGraph(context.get(), base);
    ASSERT_TRUE(serve::BuildArtifact(context.get(), g, path).ok());
  }
  const std::vector<char> before_bytes = ReadFileBytes(path);

  std::uint64_t pending = 0;
  {
    auto opened = DynamicSccIndex::Open(context.get(), path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DynamicSccIndex index = std::move(opened).value();
    // Two non-structural batches in a row: duplicates and self-loops.
    util::Rng rng(17);
    std::uint32_t unused = 200;
    for (int k = 0; k < 2; ++k) {
      const std::vector<Edge> batch =
          MakeBatch(&rng, base, 200, &unused, 40, /*structural=*/false);
      auto applied = index.ApplyBatch(batch);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      EXPECT_FALSE(applied.value().rewrote_artifact);
      pending += batch.size();
      EXPECT_EQ(index.pending_delta_edges(), pending);
    }
    EXPECT_EQ(index.data_version(), 0u);
  }
  // The artifact file itself never moved.
  EXPECT_EQ(ReadFileBytes(path), before_bytes);

  // A fresh open recovers the pending-edge count from the sidecar...
  auto reopened = DynamicSccIndex::Open(context.get(), path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  DynamicSccIndex index = std::move(reopened).value();
  EXPECT_EQ(index.pending_delta_edges(), pending);

  // ...and the next structural batch folds them into the published
  // summary: raw union edge count = base + pending + this batch.
  const std::vector<Edge> structural = {Edge{0, 200}, Edge{200, 0}};
  auto applied = index.ApplyBatch(structural);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied.value().rewrote_artifact);
  EXPECT_EQ(index.pending_delta_edges(), 0u);
  EXPECT_EQ(index.reader().summary().graph_edges,
            base.size() + pending + structural.size());
  EXPECT_FALSE(fs::exists(dyn::DeltaLogPathFor(path)));
}

TEST(DynamicTest, StaleDeltaLogReadsEmpty) {
  auto context = MakeDynContext();
  const BaseArtifactDir dir;
  const std::string path = dir.PathFor("stale");
  // A count claiming base version 7 against an artifact at version 0:
  // it is already folded in — nothing pending, not an error.
  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), dyn::DeltaLogPathFor(path),
                                 /*base_version=*/7, /*pending_edges=*/1)
                  .ok());
  auto read = dyn::ReadDeltaLog(context.get(), dyn::DeltaLogPathFor(path),
                                /*expected_base_version=*/0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().exists);
  EXPECT_TRUE(read.value().stale);
  EXPECT_EQ(read.value().pending_edges, 0u);
  // Matching version: the count comes back.
  auto match = dyn::ReadDeltaLog(context.get(), dyn::DeltaLogPathFor(path),
                                 /*expected_base_version=*/7);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_FALSE(match.value().stale);
  EXPECT_EQ(match.value().pending_edges, 1u);
}

// A non-structural batch replaces one block however many edges are
// pending, so its cost is the map sweep plus that write, and it does
// not grow with the batches before it.
TEST(DynamicTest, AppendCostDoesNotGrowWithPendingEdges) {
  auto context = MakeDynContext();
  const std::vector<Edge> base = gen::RandomDigraphEdges(200, 800, 9);
  const BaseArtifactDir dir;
  const std::string path = dir.PathFor("append_cost");
  {
    const auto g = graph::MakeDiskGraph(context.get(), base);
    ASSERT_TRUE(serve::BuildArtifact(context.get(), g, path).ok());
  }
  auto opened = DynamicSccIndex::Open(context.get(), path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DynamicSccIndex index = std::move(opened).value();

  constexpr std::size_t kBatches = 6;
  constexpr std::size_t kBatchEdges = 600;
  util::Rng rng(23);
  std::uint32_t unused = 200;
  std::vector<std::uint64_t> ios;
  for (std::size_t k = 0; k < kBatches; ++k) {
    const std::vector<Edge> batch = MakeBatch(&rng, base, 200, &unused,
                                              kBatchEdges,
                                              /*structural=*/false);
    auto applied = index.ApplyBatch(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_FALSE(applied.value().rewrote_artifact) << "batch " << k;
    EXPECT_EQ(applied.value().batch_ios, applied.value().swept_blocks + 1)
        << "batch " << k;
    ios.push_back(applied.value().batch_ios);
  }
  for (std::size_t k = 1; k < kBatches; ++k) {
    EXPECT_EQ(ios[k], ios[0]) << "batch " << k;
  }
  EXPECT_EQ(index.pending_delta_edges(), kBatches * kBatchEdges);
  EXPECT_EQ(fs::file_size(dyn::DeltaLogPathFor(path)), 4096u);
}

// ---- Chaos: faults must not break publication ------------------------

// The artifact lives on a fault-injecting (RAM-backed) scratch device,
// so every read AND write of the update path can fault — transiently
// (EIO, torn transfers; the retry layer absorbs most) or persistently
// (the device dies at op N). Every ApplyBatch must either succeed with
// the oracle partition or fail with a documented code; after any
// failure the last published version must still open clean and carry
// the same map bytes. A half-written artifact version is never visible.
TEST(DynamicTest, FaultyDeviceNeverPublishesTornArtifact) {
  struct ChaosConfig {
    std::uint64_t seed;
    double rate;
    double short_rate;
    std::uint64_t fail_writes_after;  // 0 = transient-only
  };
  const ChaosConfig configs[] = {
      {1, 0.02, 0.01, 0}, {2, 0.05, 0.02, 0},  {3, 0.08, 0.03, 0},
      {4, 0.02, 0.01, 400}, {5, 0.02, 0.01, 900}, {6, 0.05, 0.02, 1500},
  };
  std::uint64_t total_failures = 0, total_successes = 0;
  for (const ChaosConfig& chaos : configs) {
    SCOPED_TRACE("seed " + std::to_string(chaos.seed));
    io::IoContextOptions options;
    options.block_size = 4096;
    options.memory_bytes = 4 << 20;
    options.device_model.model = io::DeviceModel::kFaulty;
    options.device_model.fault.seed = chaos.seed;
    options.device_model.fault.read_fault_rate = chaos.rate;
    options.device_model.fault.write_fault_rate = chaos.rate;
    options.device_model.fault.short_rate = chaos.short_rate;
    options.device_model.fault.fail_writes_after = chaos.fail_writes_after;
    options.device_model.fault.inner = io::DeviceModel::kMem;
    options.scratch_dirs = {""};
    io::IoContext context(options);

    const std::vector<Edge> base = gen::RandomDigraphEdges(150, 600, 77);
    // On the faulty device: a scratch path (RAM-backed, per-context).
    const std::string path = context.NewTempPath("dyn_artifact");
    {
      const auto g = graph::MakeDiskGraph(&context, base);
      auto built = serve::BuildArtifact(&context, g, path);
      if (!built.ok()) continue;  // the device died during the build
    }
    auto opened = DynamicSccIndex::Open(&context, path);
    if (!opened.ok()) continue;
    DynamicSccIndex index = std::move(opened).value();

    std::uint64_t committed_version = index.data_version();
    std::vector<SccEntry> committed_map = ScanMap(index.reader());
    std::vector<Edge> applied_union = base;

    util::Rng rng(chaos.seed * 13 + 1);
    std::uint32_t next_new_node = 150;
    for (std::size_t k = 0; k < 6; ++k) {
      const std::vector<Edge> batch = MakeBatch(
          &rng, base, 150, &next_new_node, 40, /*structural=*/true);
      auto applied = index.ApplyBatch(batch);
      if (applied.ok()) {
        ++total_successes;
        applied_union.insert(applied_union.end(), batch.begin(),
                             batch.end());
        committed_version = applied.value().published_version;
        if (applied.value().rewrote_artifact) {
          committed_map = ScanMap(index.reader());
          // Correctness of the published partition vs the in-memory
          // oracle: same-component iff same canonical label.
          const auto oracle = testing::Oracle(applied_union);
          std::map<SccId, SccId> fwd, rev;
          ASSERT_EQ(committed_map.size(), oracle.num_nodes());
          for (const SccEntry& e : committed_map) {
            const SccId want = oracle.LabelOf(e.node);
            const auto f = fwd.emplace(e.scc, want);
            ASSERT_EQ(f.first->second, want) << "node " << e.node;
            const auto r = rev.emplace(want, e.scc);
            ASSERT_EQ(r.first->second, e.scc) << "node " << e.node;
          }
        }
      } else {
        ++total_failures;
        // Documented failure surface only (tool exit codes 5 and 8).
        const util::StatusCode code = applied.status().code();
        EXPECT_TRUE(code == util::StatusCode::kIoError ||
                    code == util::StatusCode::kCorruption)
            << applied.status().ToString();
        // The failed attempt must not have touched the published
        // version: reopen and compare. The reopen itself runs on the
        // faulty device, so allow transient-fault retries.
        for (int attempt = 0; attempt < 5; ++attempt) {
          auto reopen = DynamicSccIndex::Open(&context, path);
          if (!reopen.ok()) continue;
          EXPECT_EQ(reopen.value().data_version(), committed_version);
          const std::vector<SccEntry> now = ScanMap(reopen.value().reader());
          ASSERT_EQ(now.size(), committed_map.size());
          for (std::size_t i = 0; i < now.size(); ++i) {
            ASSERT_EQ(now[i].node, committed_map[i].node);
            ASSERT_EQ(now[i].scc, committed_map[i].scc);
          }
          break;
        }
        // Reopen the handle for the next batch; if the device has died
        // persistently this fails and the remaining batches are moot.
        auto fresh = DynamicSccIndex::Open(&context, path);
        if (!fresh.ok()) break;
        index = std::move(fresh).value();
      }
    }
  }
  // The matrix must exercise BOTH outcomes, or it proves nothing.
  EXPECT_GT(total_successes, 0u);
  EXPECT_GT(total_failures, 0u);
}

// ---- Publish contract: the verdict matches what is live --------------

// The artifact lives on a fault-injecting posix scratch device whose
// reads die persistently from device op N on (rfail_after=N), and N is
// swept across every op of opening the index and applying one
// structural batch. A clean context then reads the artifact path as any
// serving process would: after a failed ApplyBatch it must find the old
// version (preamble and map), after a successful one the new version.
// An update that fails after its rename breaks this in the first
// direction.
TEST(DynamicTest, FailedBatchLeavesOldVersionLiveAtEveryReadDeathPoint) {
  const std::vector<Edge> base = gen::RandomDigraphEdges(800, 3200, 5);
  util::Rng rng(29);
  std::uint32_t next_new_node = 800;
  const std::vector<Edge> batch = MakeBatch(&rng, base, 800, &next_new_node,
                                            60, /*structural=*/true);
  const BaseArtifactDir dir;
  const std::string seed_path = dir.PathFor("seed");
  auto clean = MakeDynContext();
  {
    const auto g = graph::MakeDiskGraph(clean.get(), base);
    ASSERT_TRUE(serve::BuildArtifact(clean.get(), g, seed_path).ok());
  }
  const testing::ScopedTempPath scratch_parent("read_death");
  fs::create_directories(scratch_parent.path());

  // The live version as a fresh reader sees it.
  struct LiveVersion {
    std::uint64_t data_version = ~std::uint64_t{0};
    std::vector<SccEntry> map;
  };
  const auto live_state = [&](const std::string& path) {
    LiveVersion live;
    auto version = serve::PeekArtifactVersion(clean.get(), path);
    EXPECT_TRUE(version.ok()) << version.status().ToString();
    if (version.ok()) live.data_version = version.value();
    auto reader = ArtifactReader::Open(clean.get(), path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (reader.ok()) live.map = ScanMap(reader.value());
    return live;
  };
  const LiveVersion old_state = live_state(seed_path);
  ASSERT_EQ(old_state.data_version, 0u);

  // One sweep point: sets whether the batch applied and returns the
  // device ops the attempt issued.
  LiveVersion new_state;
  const auto run = [&](std::uint64_t rfail_after, bool* applied) {
    io::IoContextOptions options;
    options.block_size = 4096;
    options.memory_bytes = 4 << 20;
    options.temp_parent_dir = scratch_parent.path();
    options.device_model.model = io::DeviceModel::kFaulty;
    options.device_model.fault.fail_reads_after = rfail_after;
    options.device_model.fault.inner = io::DeviceModel::kPosix;
    io::IoContext context(options);
    const std::string path = context.NewTempPath("swept_artifact");
    fs::copy_file(seed_path, path);
    *applied = false;
    auto opened = DynamicSccIndex::Open(&context, path);
    if (opened.ok()) {
      DynamicSccIndex index = std::move(opened).value();
      auto result = index.ApplyBatch(batch);
      *applied = result.ok();
      if (result.ok()) {
        EXPECT_TRUE(result.value().rewrote_artifact);
        EXPECT_EQ(result.value().published_version, 1u);
        EXPECT_EQ(index.data_version(), 1u);
      } else {
        EXPECT_EQ(result.status().code(), util::StatusCode::kIoError)
            << result.status().ToString();
      }
    }
    const LiveVersion live = live_state(path);
    if (rfail_after == 0) new_state = live;
    const LiveVersion& want = *applied ? new_state : old_state;
    EXPECT_EQ(live.data_version, want.data_version)
        << "rfail_after=" << rfail_after << ": the live data version "
        << "disagrees with ApplyBatch's verdict";
    EXPECT_TRUE(live.map == want.map)
        << "rfail_after=" << rfail_after << ": the live map disagrees "
        << "with ApplyBatch's verdict";
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "rfail_after=" << rfail_after;
    const auto* device =
        dynamic_cast<io::FaultInjectingDevice*>(context.ResolveDevice(path));
    EXPECT_NE(device, nullptr);
    return device != nullptr ? device->ops_issued() : 0;
  };

  bool applied = false;
  const std::uint64_t clean_ops = run(0, &applied);
  ASSERT_TRUE(applied);
  ASSERT_EQ(new_state.data_version, 1u);
  ASSERT_TRUE(new_state.map != old_state.map);
  std::uint64_t failures = 0;
  for (std::uint64_t n = 1; n <= clean_ops + 1; ++n) {
    run(n, &applied);
    if (!applied) ++failures;
  }
  EXPECT_GT(failures, 0u);
  // Past the last op the device never dies, so the sweep ends applied.
  EXPECT_TRUE(applied);
}

}  // namespace
}  // namespace extscc
