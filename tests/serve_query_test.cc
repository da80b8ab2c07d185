// Batched query engine + service surface: 10k mixed queries against
// the in-memory oracle, sweep-I/O sublinearity in batch count,
// per-device accounting of artifact reads, concurrent readers identical
// to serial, and the line protocol round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "serve/service.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;
using serve::ArtifactReader;
using serve::Query;
using serve::QueryAnswer;
using serve::QueryBatchStats;
using serve::QueryType;
using testing::MakeTestContext;

// A built artifact plus every oracle the answers are checked against.
struct ServeFixture {
  // Set when the artifact lives on the base device: its per-test path
  // (testing::ScopedTempPath). Declared first, so the file is removed
  // last, after the reader that has it open.
  std::unique_ptr<testing::ScopedTempPath> base_artifact;
  std::unique_ptr<io::IoContext> context;
  std::string artifact_path;
  std::optional<ArtifactReader> reader;
  std::vector<Edge> edges;
  graph::Digraph digraph{std::vector<Edge>{}};  // reachability oracle
  scc::SccResult oracle{{}};                    // partition oracle

  serve::QueryEngine engine() const { return serve::QueryEngine(&*reader); }
};

// Builds over a random digraph. `on_base_device` places the artifact
// outside the scratch session roots, so its reads are accounted to the
// context's default ("base") PosixDevice like any user-facing file.
ServeFixture MakeFixture(std::uint32_t nodes, std::uint64_t num_edges,
                         std::uint64_t seed, bool on_base_device = false) {
  ServeFixture fx;
  fx.context = MakeTestContext(4 << 20);
  fx.edges = gen::RandomDigraphEdges(nodes, num_edges, seed);
  fx.digraph = graph::Digraph(fx.edges);
  fx.oracle = testing::Oracle(fx.edges);
  const auto g = graph::MakeDiskGraph(fx.context.get(), fx.edges);
  if (on_base_device) {
    fx.base_artifact = std::make_unique<testing::ScopedTempPath>(
        "artifact_" + std::to_string(seed) + ".bin");
    fx.artifact_path = fx.base_artifact->path();
  } else {
    fx.artifact_path = fx.context->NewTempPath("artifact");
  }
  auto built =
      serve::BuildArtifact(fx.context.get(), g, fx.artifact_path, {});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  auto opened = ArtifactReader::Open(fx.context.get(), fx.artifact_path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  fx.reader.emplace(std::move(opened).value());
  return fx;
}

// Mixed random queries, including ids past the node range (unknown).
std::vector<Query> RandomQueries(std::size_t n, std::uint32_t max_node,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Query q;
    const std::uint64_t kind = rng.Uniform(3);
    q.type = kind == 0 ? QueryType::kSameScc
             : kind == 1 ? QueryType::kReachable
                         : QueryType::kSccStat;
    // ~5% of endpoints fall outside the graph.
    q.u = static_cast<NodeId>(rng.Uniform(max_node + max_node / 20 + 1));
    q.v = static_cast<NodeId>(rng.Uniform(max_node + max_node / 20 + 1));
    queries.push_back(q);
  }
  return queries;
}

void ExpectAnswersMatchOracle(const ServeFixture& fx,
                              const std::vector<Query>& queries,
                              const std::vector<QueryAnswer>& answers) {
  ASSERT_EQ(answers.size(), queries.size());
  const auto sizes = fx.oracle.ComponentSizes();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const QueryAnswer& a = answers[i];
    const bool u_known = fx.oracle.Contains(q.u);
    const bool v_known = fx.oracle.Contains(q.v);
    switch (q.type) {
      case QueryType::kSccStat:
        ASSERT_EQ(a.known, u_known) << "stat " << q.u;
        if (a.known) {
          ASSERT_EQ(a.scc_size, sizes.at(fx.oracle.LabelOf(q.u)))
              << "stat " << q.u;
        }
        break;
      case QueryType::kSameScc:
        ASSERT_EQ(a.known, u_known && v_known)
            << "same " << q.u << " " << q.v;
        if (a.known) {
          ASSERT_EQ(a.result,
                    fx.oracle.LabelOf(q.u) == fx.oracle.LabelOf(q.v))
              << "same " << q.u << " " << q.v;
        }
        break;
      case QueryType::kReachable:
        ASSERT_EQ(a.known, u_known && v_known)
            << "reach " << q.u << " " << q.v;
        if (a.known) {
          ASSERT_EQ(a.result, testing::OracleReach(fx.digraph, q.u, q.v))
              << "reach " << q.u << " " << q.v;
        }
        break;
    }
  }
}

// ---- Correctness against the oracles ---------------------------------

TEST(ServeQueryTest, TenThousandMixedQueriesMatchOracle) {
  const ServeFixture fx = MakeFixture(1500, 6000, 7);
  const std::vector<Query> queries = RandomQueries(10000, 1500, 1234);
  std::vector<QueryAnswer> answers(queries.size());
  QueryBatchStats stats;
  ASSERT_TRUE(fx.engine()
                  .RunBatch(fx.context.get(), queries.data(), queries.size(),
                            answers.data(), &stats)
                  .ok());
  ExpectAnswersMatchOracle(fx, queries, answers);
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GT(stats.unknown_nodes, 0u) << "the id overshoot must bite";
  EXPECT_GT(stats.labels.queries, 0u);
}

TEST(ServeQueryTest, EmptyBatchIsFree) {
  const ServeFixture fx = MakeFixture(100, 300, 3);
  QueryBatchStats stats;
  ASSERT_TRUE(
      fx.engine().RunBatch(fx.context.get(), nullptr, 0, nullptr, &stats).ok());
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.swept_blocks, 0u);
}

// ---- Sublinearity ----------------------------------------------------

TEST(ServeQueryTest, BatchSweepIoIsSublinearInBatchCount) {
  const ServeFixture fx = MakeFixture(20000, 60000, 9);
  const auto& section = fx.reader->node_scc_section();
  const std::uint64_t section_blocks =
      (section.payload_bytes + fx.context->block_size() - 1) /
      fx.context->block_size();
  ASSERT_GT(section_blocks, 20u) << "map must span many blocks";

  const std::vector<Query> queries = RandomQueries(2000, 20000, 77);
  const serve::QueryEngine engine = fx.engine();

  // One batch: the whole workload costs at most one sweep.
  QueryBatchStats one_batch;
  std::vector<QueryAnswer> answers(queries.size());
  ASSERT_TRUE(engine
                  .RunBatch(fx.context.get(), queries.data(), queries.size(),
                            answers.data(), &one_batch)
                  .ok());
  EXPECT_LE(one_batch.swept_blocks, section_blocks);
  EXPECT_GT(one_batch.swept_blocks, 0u);

  // The same workload one query at a time: each call pays its own
  // (early-exiting) sweep, so the total is many times larger.
  QueryBatchStats singles;
  for (const Query& q : queries) {
    QueryAnswer a;
    ASSERT_TRUE(engine.RunBatch(fx.context.get(), &q, 1, &a, &singles).ok());
  }
  EXPECT_GT(singles.swept_blocks, 20 * one_batch.swept_blocks)
      << "batching must amortize the sweep";

  // Intermediate batch sizes: total sweep I/O is bounded by
  // ceil(queries / batch) * section, and each batch individually by the
  // section — the documented model.
  for (const std::size_t batch : {100u, 500u}) {
    QueryBatchStats stats;
    for (std::size_t at = 0; at < queries.size(); at += batch) {
      const std::size_t n = std::min(batch, queries.size() - at);
      QueryBatchStats per_batch;
      ASSERT_TRUE(engine
                      .RunBatch(fx.context.get(), queries.data() + at, n,
                                answers.data() + at, &per_batch)
                      .ok());
      EXPECT_LE(per_batch.swept_blocks, section_blocks);
      stats += per_batch;
    }
    EXPECT_LE(stats.swept_blocks,
              ((queries.size() + batch - 1) / batch) * section_blocks);
    ExpectAnswersMatchOracle(fx, queries, answers);
  }
}

// ---- Accounting ------------------------------------------------------

TEST(ServeQueryTest, ArtifactReadsLandOnTheBaseDeviceRow) {
  const ServeFixture fx = MakeFixture(8000, 24000, 13, /*base device*/ true);
  ASSERT_EQ(fx.context->ResolveDevice(fx.artifact_path)->name(), "base");

  const std::vector<Query> queries = RandomQueries(500, 8000, 21);
  const auto before = fx.context->DeviceStats();
  const io::IoStats agg_before = fx.context->stats();
  std::vector<QueryAnswer> answers(queries.size());
  QueryBatchStats stats;
  ASSERT_TRUE(fx.engine()
                  .RunBatch(fx.context.get(), queries.data(), queries.size(),
                            answers.data(), &stats)
                  .ok());
  const auto after = fx.context->DeviceStats();
  const io::IoStats agg_after = fx.context->stats();

  ASSERT_FALSE(after.empty());
  ASSERT_EQ(after[0].name, "base");
  const io::IoStats base_delta = after[0].stats - before[0].stats;
  // The sweep's block reads are visible on the artifact's device...
  EXPECT_GE(base_delta.total_reads(), stats.swept_blocks);
  EXPECT_GT(stats.swept_blocks, 0u);
  // ...and the per-device rows account for exactly the aggregate.
  std::uint64_t row_sum = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    row_sum += (after[i].stats - before[i].stats).total_ios();
  }
  EXPECT_EQ(row_sum, (agg_after - agg_before).total_ios());
}

// ---- Concurrent readers ----------------------------------------------

TEST(ServeQueryTest, ConcurrentReadersMatchSerialAndSumToAggregate) {
  const ServeFixture fx = MakeFixture(4000, 16000, 17, /*base device*/ true);
  const std::vector<Query> queries = RandomQueries(4000, 4000, 55);
  const serve::QueryEngine engine = fx.engine();

  std::vector<QueryAnswer> serial;
  QueryBatchStats serial_stats;
  ASSERT_TRUE(serve::RunQueries(fx.context.get(), engine, queries, 1,
                                &serial, &serial_stats)
                  .ok());
  ExpectAnswersMatchOracle(fx, queries, serial);

  const auto before = fx.context->DeviceStats();
  const io::IoStats agg_before = fx.context->stats();
  std::vector<QueryAnswer> threaded;
  QueryBatchStats threaded_stats;
  ASSERT_TRUE(serve::RunQueries(fx.context.get(), engine, queries, 4,
                                &threaded, &threaded_stats)
                  .ok());
  const auto after = fx.context->DeviceStats();
  const io::IoStats agg_after = fx.context->stats();

  // Slicing must never change a verdict — only how many sweeps ran.
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded[i].known, serial[i].known) << "query " << i;
    ASSERT_EQ(threaded[i].result, serial[i].result) << "query " << i;
    ASSERT_EQ(threaded[i].scc_u, serial[i].scc_u) << "query " << i;
    ASSERT_EQ(threaded[i].scc_size, serial[i].scc_size) << "query " << i;
  }
  EXPECT_EQ(threaded_stats.queries, serial_stats.queries);
  EXPECT_EQ(threaded_stats.probes, serial_stats.probes);

  // Per-device accounting stays exact under concurrency: the rows'
  // deltas sum to the aggregate delta, and every swept block is on
  // some row.
  std::uint64_t row_sum = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    row_sum += (after[i].stats - before[i].stats).total_ios();
  }
  EXPECT_EQ(row_sum, (agg_after - agg_before).total_ios());
  EXPECT_GE((agg_after - agg_before).total_reads(),
            threaded_stats.swept_blocks);
}

// ---- Line protocol ---------------------------------------------------

TEST(ServeProtocolTest, ParsesWellFormedLines) {
  Query q;
  ASSERT_TRUE(serve::ParseQueryLine("same 3 7", &q));
  EXPECT_EQ(q.type, QueryType::kSameScc);
  EXPECT_EQ(q.u, 3u);
  EXPECT_EQ(q.v, 7u);
  ASSERT_TRUE(serve::ParseQueryLine("  reach 0 4294967295 ", &q));
  EXPECT_EQ(q.type, QueryType::kReachable);
  EXPECT_EQ(q.v, 4294967295u);
  ASSERT_TRUE(serve::ParseQueryLine("stat 12", &q));
  EXPECT_EQ(q.type, QueryType::kSccStat);
  EXPECT_EQ(q.u, 12u);
}

TEST(ServeProtocolTest, RejectsMalformedLines) {
  Query q;
  const char* bad[] = {
      "",             // blank is a flush, not a query
      "   ",          //
      "nope 1 2",     // unknown verb
      "same 1",       // arity
      "same 1 2 3",   //
      "stat",         //
      "stat 1 2",     //
      "same x 2",     // non-numeric
      "same -1 2",    // sign
      "same 1 4294967296",  // > u32
      "reach 1 99999999999999999999",  // overflow
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::ParseQueryLine(line, &q)) << "'" << line << "'";
  }
}

TEST(ServeProtocolTest, FormatsAnswers) {
  QueryAnswer a;
  a.known = true;
  a.result = true;
  EXPECT_EQ(serve::FormatAnswer({QueryType::kSameScc, 3, 7}, a),
            "same 3 7 true");
  a.result = false;
  EXPECT_EQ(serve::FormatAnswer({QueryType::kReachable, 3, 7}, a),
            "reach 3 7 false");
  a.scc_u = 2;
  a.scc_size = 41;
  EXPECT_EQ(serve::FormatAnswer({QueryType::kSccStat, 3, 0}, a),
            "stat 3 scc=2 size=41");
  a.known = false;
  EXPECT_EQ(serve::FormatAnswer({QueryType::kSameScc, 3, 7}, a),
            "same 3 7 unknown");
  EXPECT_EQ(serve::FormatAnswer({QueryType::kSccStat, 3, 0}, a),
            "stat 3 unknown");
}

}  // namespace
}  // namespace extscc
