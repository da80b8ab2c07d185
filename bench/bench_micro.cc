// Substrate microbenchmarks (google-benchmark): external sort, BRT
// insert/extract, semi-external SCC, vertex-cover selection, and the two
// full algorithms on a small fixed workload. These quantify the building
// blocks the figure benches compose.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/bisimulation.h"
#include "baseline/buffered_repository_tree.h"
#include "core/ext_scc.h"
#include "gen/rmat_generator.h"
#include "scc/br_tree_scc.h"
#include "core/vertex_cover.h"
#include "extsort/external_sorter.h"
#include "gen/classic_graphs.h"
#include "gen/synthetic_generator.h"
#include "graph/edge_file.h"
#include "graph/disk_graph.h"
#include "io/record_stream.h"
#include "scc/semi_external_scc.h"
#include "scc/tarjan.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "util/random.h"

namespace {

using namespace extscc;

std::unique_ptr<io::IoContext> MakeCtx(std::uint64_t memory_bytes,
                                       std::size_t block = 16 * 1024) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes =
      std::max<std::uint64_t>(memory_bytes, 2 * options.block_size);
  return std::make_unique<io::IoContext>(options);
}

void BM_ExternalSortEdges(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  auto ctx = MakeCtx(64 << 10);
  const std::string in = ctx->NewTempPath("in");
  {
    util::Rng rng(1);
    io::RecordWriter<graph::Edge> writer(ctx.get(), in);
    for (std::uint64_t i = 0; i < count; ++i) {
      writer.Append(graph::Edge{
          static_cast<graph::NodeId>(rng.Uniform(1u << 20)),
          static_cast<graph::NodeId>(rng.Uniform(1u << 20))});
    }
  }
  for (auto _ : state) {
    const std::string out = ctx->NewTempPath("out");
    extsort::SortFile<graph::Edge, graph::EdgeBySrc>(ctx.get(), in, out,
                                                     graph::EdgeBySrc());
    ctx->temp_files().Remove(out);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ExternalSortEdges)->Arg(10'000)->Arg(100'000)->Arg(500'000);

// ---- sort/scan engine microbenches ---------------------------------------
// These quantify the PR-1 overhaul: tournament loser tree vs the linear
// O(k) scan it replaced, and batched vs per-record streaming.

// Faithful replica of the seed's merge stack, kept here as the measured
// baseline: a one-record lookahead reader (the pre-batching
// PeekableReader, which walked the reader's per-record copy path on
// every Pop) under an O(k) linear scan of Peek()s per output record
// (the class the seed shipped under the name "LoserTree").
template <typename T>
class SeedPeekableReader {
 public:
  SeedPeekableReader(io::IoContext* context, const std::string& path)
      : reader_(context, path) {
    has_value_ = reader_.Next(&value_);
  }

  bool has_value() const { return has_value_; }
  const T& Peek() const { return value_; }
  T Pop() {
    T out = value_;
    has_value_ = reader_.Next(&value_);
    return out;
  }

 private:
  io::RecordReader<T> reader_;
  T value_{};
  bool has_value_ = false;
};

template <typename T, typename Less>
class SeedLinearScanMerge {
 public:
  SeedLinearScanMerge(
      std::vector<std::unique_ptr<SeedPeekableReader<T>>> inputs, Less less)
      : inputs_(std::move(inputs)), less_(less) {}

  bool Next(T* out) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(inputs_.size()); ++i) {
      if (!inputs_[i]->has_value()) continue;
      if (best < 0 || less_(inputs_[i]->Peek(), inputs_[best]->Peek())) {
        best = i;
      }
    }
    if (best < 0) return false;
    *out = inputs_[best]->Pop();
    return true;
  }

 private:
  std::vector<std::unique_ptr<SeedPeekableReader<T>>> inputs_;
  Less less_;
};

struct U64Less {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

// Keyless twins of the system comparators: same order, no normalized
// key, so run formation takes the std::stable_sort path — the measured
// PR-2 baseline for the radix engine.
struct EdgeBySrcNoKey {
  bool operator()(const graph::Edge& a, const graph::Edge& b) const {
    return graph::EdgeBySrc::KeyOf(a) < graph::EdgeBySrc::KeyOf(b);
  }
};

struct SccByNodeNoKey {
  bool operator()(const graph::SccEntry& a, const graph::SccEntry& b) const {
    return graph::SccEntryByNode::KeyOf(a) < graph::SccEntryByNode::KeyOf(b);
  }
};

// Run-formation throughput in isolation (no merge): a SortingWriter told
// the input size, as SortFile builds it, fed an input several times the
// budget in block-sized batches and abandoned before FinishInto (its
// destructor removes the runs), so the loop is exactly the
// fill → sort → spill stage every external sort starts with.
// `sort_threads` 0/1 selects serial vs overlapped sort→spill.
template <typename T, typename Less, typename Gen>
void RunFormationBench(benchmark::State& state, Less less, Gen gen,
                       std::size_t sort_threads) {
  constexpr std::uint64_t kCount = 2'000'000;
  io::IoContextOptions options;
  options.block_size = 64 * 1024;
  options.memory_bytes = 4 << 20;
  options.sort_threads = sort_threads;
  auto ctx = std::make_unique<io::IoContext>(options);
  const std::string in = ctx->NewTempPath("in");
  {
    util::Rng rng(21);
    io::RecordWriter<T> writer(ctx.get(), in);
    for (std::uint64_t i = 0; i < kCount; ++i) writer.Append(gen(rng));
  }
  const std::size_t batch = io::RecordsPerBlock<T>(ctx.get());
  std::vector<T> chunk(batch);
  std::uint64_t spilled_runs = 0;
  for (auto _ : state) {
    // Read only while no writer is live: a threaded spill worker counts
    // its writes concurrently.
    const std::uint64_t files_before = ctx->stats().files_created;
    {
      extsort::SortingWriter<T, Less> writer(ctx.get(), less, false, kCount);
      io::RecordReader<T> reader(ctx.get(), in);
      std::size_t got;
      while ((got = reader.NextBatch(chunk.data(), batch)) > 0) {
        writer.AppendBatch(chunk.data(), got);
      }
    }
    spilled_runs = ctx->stats().files_created - files_before;
  }
  state.SetItemsProcessed(state.iterations() * kCount);
  state.SetBytesProcessed(state.iterations() * kCount * sizeof(T));
  state.counters["spilled_runs"] = static_cast<double>(spilled_runs);
}

graph::Edge RandomEdge(util::Rng& rng) {
  return graph::Edge{static_cast<graph::NodeId>(rng.Uniform(1u << 20)),
                     static_cast<graph::NodeId>(rng.Uniform(1u << 20))};
}

graph::SccEntry RandomSccEntry(util::Rng& rng) {
  return graph::SccEntry{static_cast<graph::NodeId>(rng.Uniform(1u << 20)),
                         static_cast<graph::SccId>(rng.Uniform(1u << 16))};
}

// arg0: engine — 0 = stable_sort (keyless baseline), 1 = LSD radix,
// 2 = radix + overlapped sort→spill pipeline (sort_threads=1).
void BM_RunFormation(benchmark::State& state) {
  const int engine = static_cast<int>(state.range(0));
  const bool scc = state.range(1) != 0;
  const std::size_t threads = engine == 2 ? 1 : 0;
  if (scc) {
    if (engine == 0) {
      RunFormationBench<graph::SccEntry>(state, SccByNodeNoKey{},
                                         RandomSccEntry, threads);
    } else {
      RunFormationBench<graph::SccEntry>(state, graph::SccEntryByNode{},
                                         RandomSccEntry, threads);
    }
  } else {
    if (engine == 0) {
      RunFormationBench<graph::Edge>(state, EdgeBySrcNoKey{}, RandomEdge,
                                     threads);
    } else {
      RunFormationBench<graph::Edge>(state, graph::EdgeBySrc{}, RandomEdge,
                                     threads);
    }
  }
}
BENCHMARK(BM_RunFormation)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

// Writes `runs` sorted runs of `run_len` Edge records each (the
// system's dominant record type); returns paths.
std::vector<std::string> MakeSortedRuns(io::IoContext* ctx, int runs,
                                        std::uint64_t run_len,
                                        std::uint64_t seed) {
  std::vector<std::string> paths;
  util::Rng rng(seed);
  for (int r = 0; r < runs; ++r) {
    std::vector<graph::Edge> values(run_len);
    for (auto& e : values) {
      e.src = static_cast<graph::NodeId>(rng.Uniform(1u << 20));
      e.dst = static_cast<graph::NodeId>(rng.Uniform(1u << 20));
    }
    std::stable_sort(values.begin(), values.end(), graph::EdgeBySrc());
    const std::string path = ctx->NewTempPath("run");
    io::WriteAllRecords(ctx, path, values);
    paths.push_back(path);
  }
  return paths;
}

// k-way merge throughput: the seed engine (linear scan + one-record
// streaming + per-record output) vs the overhauled engine (tournament
// loser tree + batched readers + block-batched output), exactly as each
// SortFile merge pass ran before and after the overhaul.
// arg0: fan-in, arg1: 0 = seed engine, 1 = loser-tree engine.
void BM_MergeKWay(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  const bool loser_tree = state.range(1) != 0;
  constexpr std::uint64_t kRunLen = 64 * 1024;
  auto ctx = MakeCtx(8 << 20, 64 * 1024);
  const auto runs = MakeSortedRuns(ctx.get(), fan_in, kRunLen, 11);
  std::uint64_t merged = 0;
  for (auto _ : state) {
    const std::string out = ctx->NewTempPath("merged");
    io::RecordWriter<graph::Edge> writer(ctx.get(), out);
    if (loser_tree) {
      std::vector<std::unique_ptr<io::PeekableReader<graph::Edge>>> inputs;
      for (const auto& path : runs) {
        inputs.push_back(std::make_unique<io::PeekableReader<graph::Edge>>(
            ctx.get(), path));
      }
      extsort::internal::LoserTree<graph::Edge, graph::EdgeBySrc> merge(
          std::move(inputs), graph::EdgeBySrc());
      extsort::internal::DrainMerge(&merge, &writer, graph::EdgeBySrc(),
                                    /*dedup=*/false);
    } else {
      std::vector<std::unique_ptr<SeedPeekableReader<graph::Edge>>> inputs;
      for (const auto& path : runs) {
        inputs.push_back(
            std::make_unique<SeedPeekableReader<graph::Edge>>(ctx.get(),
                                                              path));
      }
      SeedLinearScanMerge<graph::Edge, graph::EdgeBySrc> merge(
          std::move(inputs), graph::EdgeBySrc());
      graph::Edge e;
      while (merge.Next(&e)) writer.Append(e);
    }
    merged = writer.count();
    writer.Finish();
    ctx->temp_files().Remove(out);
  }
  state.SetItemsProcessed(state.iterations() * merged);
  state.SetBytesProcessed(state.iterations() * merged * sizeof(graph::Edge));
}
BENCHMARK(BM_MergeKWay)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// End-to-end external sort throughput with merge-pass count reported
// (arg0: record count, arg1: memory budget KB — smaller budget, more runs).
void BM_SortThroughput(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  const auto memory_kb = static_cast<std::uint64_t>(state.range(1));
  auto ctx = MakeCtx(memory_kb << 10);
  const std::string in = ctx->NewTempPath("in");
  {
    util::Rng rng(5);
    io::RecordWriter<std::uint64_t> writer(ctx.get(), in);
    for (std::uint64_t i = 0; i < count; ++i) writer.Append(rng.Next());
  }
  std::uint64_t passes = 0;
  std::uint64_t num_runs = 0;
  for (auto _ : state) {
    const std::string out = ctx->NewTempPath("out");
    const auto info = extsort::SortFile<std::uint64_t, U64Less>(
        ctx.get(), in, out, U64Less());
    passes = info.merge_passes;
    num_runs = info.num_runs;
    ctx->temp_files().Remove(out);
  }
  state.SetItemsProcessed(state.iterations() * count);
  state.SetBytesProcessed(state.iterations() * count * sizeof(std::uint64_t));
  state.counters["runs"] = static_cast<double>(num_runs);
  state.counters["merge_passes"] = static_cast<double>(passes);
}
BENCHMARK(BM_SortThroughput)
    ->Args({1'000'000, 64})
    ->Args({1'000'000, 1024})
    ->Args({4'000'000, 1024});

// Fused sort→consumer pipeline vs materialize-then-scan: the same edge
// sort either drains its final merge into a callback sink (SortInto) or
// writes the sorted file and re-reads it once (SortFile + batched scan)
// — the before/after of every fused Ext-SCC stage. The fused form saves
// the full write+read of the sorted output.
// arg0: record count, arg1: 0 = materialized, 1 = fused.
void BM_SortConsume(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  auto ctx = MakeCtx(256 << 10, 64 * 1024);
  const std::string in = ctx->NewTempPath("in");
  {
    util::Rng rng(9);
    io::RecordWriter<graph::Edge> writer(ctx.get(), in);
    for (std::uint64_t i = 0; i < count; ++i) {
      writer.Append(graph::Edge{
          static_cast<graph::NodeId>(rng.Uniform(1u << 20)),
          static_cast<graph::NodeId>(rng.Uniform(1u << 20))});
    }
  }
  for (auto _ : state) {
    std::uint64_t checksum = 0;
    if (fused) {
      auto sink = extsort::MakeCallbackSink<graph::Edge>(
          [&](const graph::Edge& e) { checksum += e.src ^ (e.dst << 1); });
      extsort::SortInto<graph::Edge>(ctx.get(), in, sink, graph::EdgeBySrc());
    } else {
      const std::string out = ctx->NewTempPath("sorted");
      extsort::SortFile<graph::Edge, graph::EdgeBySrc>(ctx.get(), in, out,
                                                       graph::EdgeBySrc());
      io::ForEachRecord<graph::Edge>(ctx.get(), out, [&](const graph::Edge& e) {
        checksum += e.src ^ (e.dst << 1);
      });
      ctx->temp_files().Remove(out);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * count);
  state.SetBytesProcessed(state.iterations() * count * sizeof(graph::Edge));
}
BENCHMARK(BM_SortConsume)
    ->Args({500'000, 0})
    ->Args({500'000, 1})
    ->Unit(benchmark::kMillisecond);

// Sequential scan throughput: per-record Next vs batched NextBatch
// (arg: 0/1).
void BM_ScanThroughput(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  io::IoContextOptions options;
  options.block_size = 64 * 1024;
  options.memory_bytes = 4 << 20;
  auto ctx = std::make_unique<io::IoContext>(options);
  constexpr std::uint64_t kCount = 8 * 1024 * 1024;  // 64 MB of u64
  const std::string path = ctx->NewTempPath("scan");
  {
    util::Rng rng(7);
    io::RecordWriter<std::uint64_t> writer(ctx.get(), path);
    for (std::uint64_t i = 0; i < kCount; ++i) writer.Append(rng.Next());
  }
  for (auto _ : state) {
    io::RecordReader<std::uint64_t> reader(ctx.get(), path);
    std::uint64_t checksum = 0;
    if (mode == 0) {
      std::uint64_t v;
      while (reader.Next(&v)) checksum ^= v;
    } else {
      std::vector<std::uint64_t> chunk(
          io::RecordsPerBlock<std::uint64_t>(ctx.get()));
      std::size_t got;
      while ((got = reader.NextBatch(chunk.data(), chunk.size())) > 0) {
        for (std::size_t i = 0; i < got; ++i) checksum ^= chunk[i];
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * kCount);
  state.SetBytesProcessed(state.iterations() * kCount *
                          sizeof(std::uint64_t));
}
BENCHMARK(BM_ScanThroughput)->Arg(0)->Arg(1);

void BM_BrtInsertExtract(benchmark::State& state) {
  const auto keys = static_cast<std::uint32_t>(state.range(0));
  auto ctx = MakeCtx(1 << 20, 4096);
  for (auto _ : state) {
    baseline::BufferedRepositoryTree brt(ctx.get(), keys);
    util::Rng rng(2);
    for (std::uint32_t i = 0; i < 4 * keys; ++i) {
      brt.Insert(static_cast<std::uint32_t>(rng.Uniform(keys)), i);
    }
    for (std::uint32_t k = 0; k < keys; ++k) {
      benchmark::DoNotOptimize(brt.ExtractAll(k));
    }
  }
  state.SetItemsProcessed(state.iterations() * 5 * keys);
}
BENCHMARK(BM_BrtInsertExtract)->Arg(1'000)->Arg(4'000);

void BM_SemiExternalScc(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto ctx = MakeCtx(2 * scc::SemiExternalScc::StateBytes(nodes));
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(nodes, nodes * 4, 3));
  for (auto _ : state) {
    const std::string out = ctx->NewTempPath("scc");
    graph::SccId next = 0;
    scc::SemiExternalScc::Run(ctx.get(), g, out, &next);
    ctx->temp_files().Remove(out);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_SemiExternalScc)->Arg(1'000)->Arg(10'000);

void BM_InMemoryTarjan(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto edges = gen::RandomDigraphEdges(nodes, nodes * 4, 4);
  graph::Digraph g(edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::TarjanScc(g));
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_InMemoryTarjan)->Arg(10'000)->Arg(100'000);

void BM_VertexCover(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto ctx = MakeCtx(256 << 10);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(nodes, nodes * 4, 5));
  const std::string ein = ctx->NewTempPath("ein");
  const std::string eout = ctx->NewTempPath("eout");
  graph::SortEdgesByDst(ctx.get(), g.edge_path, ein);
  graph::SortEdgesBySrc(ctx.get(), g.edge_path, eout);
  for (auto _ : state) {
    auto result =
        core::ComputeVertexCover(ctx.get(), ein, eout, core::CoverOptions{});
    ctx->temp_files().Remove(result.cover_path);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_VertexCover)->Arg(10'000)->Arg(50'000);

void BM_ExtSccEndToEnd(benchmark::State& state) {
  const bool op = state.range(0) != 0;
  // 20K nodes, budget for 5K: a few contraction levels.
  auto ctx = MakeCtx(scc::SemiExternalScc::StateBytes(5'000));
  gen::SyntheticParams params;
  params.num_nodes = 20'000;
  params.avg_degree = 3.0;
  params.sccs = {{10, 100}};
  params.seed = 6;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  for (auto _ : state) {
    const std::string out = ctx->NewTempPath("scc");
    auto result = core::RunExtScc(ctx.get(), g, out,
                                  op ? core::ExtSccOptions::Optimized()
                                     : core::ExtSccOptions::Basic());
    if (!result.ok()) state.SkipWithError("ext-scc failed");
    ctx->temp_files().Remove(out);
  }
  state.SetItemsProcessed(state.iterations() * params.num_nodes);
}
BENCHMARK(BM_ExtSccEndToEnd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- new-module microbenches ---------------------------------------------

// BR-tree vs colouring base case on the same graph (arg: 0 = coloring,
// 1 = br-tree), each algorithm called directly: RunSemiScc would pick
// BR-tree for both at this budget.
void BM_SemiSccBackend(benchmark::State& state) {
  const bool br_tree = state.range(0) != 0;
  // Room for 50K nodes on either backend (BR-tree holds the more).
  auto ctx = MakeCtx(scc::BrTreeScc::StateBytes(50'000));
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(20'000, 80'000, 3));
  for (auto _ : state) {
    const std::string out = ctx->NewTempPath("scc");
    graph::SccId next = 0;
    if (br_tree) {
      scc::BrTreeScc::Run(ctx.get(), g, out, &next);
    } else {
      scc::SemiExternalScc::Run(ctx.get(), g, out, &next);
    }
    ctx->temp_files().Remove(out);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_SemiSccBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RmatGenerate(benchmark::State& state) {
  const auto edges = static_cast<std::uint64_t>(state.range(0));
  auto ctx = MakeCtx(8 << 20);
  gen::RmatParams params;
  params.num_nodes = edges / 4;
  params.num_edges = edges;
  for (auto _ : state) {
    params.seed += 1;  // fresh stream each iteration
    benchmark::DoNotOptimize(gen::GenerateRmat(ctx.get(), params));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_RmatGenerate)->Arg(1 << 14)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

// Reachability through the serve path: the artifact is built and opened
// once, outside the timed loop; each iteration answers one batch of
// random reach queries (one probe sort plus one sweep of the node→SCC
// map, then the resident interval labels), so the time per item is one
// query's share of the sort and the sweep plus its label lookup.
void BM_ReachabilityQuery(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto ctx = MakeCtx(8 << 20);
  const auto g = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDigraphEdges(5'000, 15'000, 7));
  const std::string artifact_path = ctx->NewTempPath("artifact");
  if (!serve::BuildArtifact(ctx.get(), g, artifact_path).ok()) {
    state.SkipWithError("artifact build failed");
    return;
  }
  auto artifact = serve::ArtifactReader::Open(ctx.get(), artifact_path);
  if (!artifact.ok()) {
    state.SkipWithError("artifact open failed");
    return;
  }
  const serve::QueryEngine engine(&artifact.value());
  const auto nodes = io::ReadAllRecords<graph::NodeId>(ctx.get(),
                                                       g.node_path);
  util::Rng rng(1);
  std::vector<serve::Query> queries(batch);
  for (serve::Query& q : queries) {
    q.type = serve::QueryType::kReachable;
    q.u = nodes[rng.Uniform(nodes.size())];
    q.v = nodes[rng.Uniform(nodes.size())];
  }
  std::vector<serve::QueryAnswer> answers(batch);
  for (auto _ : state) {
    if (!engine.RunBatch(ctx.get(), queries.data(), batch, answers.data())
             .ok()) {
      state.SkipWithError("query batch failed");
      return;
    }
    benchmark::DoNotOptimize(answers.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ReachabilityQuery)->Arg(1'024)->Unit(benchmark::kMicrosecond);

void BM_BisimulationDag(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto ctx = MakeCtx(8 << 20);
  const auto dag = graph::MakeDiskGraph(
      ctx.get(), gen::RandomDagEdges(n, 3 * n, 5));
  for (auto _ : state) {
    auto result = app::ExternalBisimulation(ctx.get(), dag);
    if (!result.ok()) {
      state.SkipWithError("bisimulation failed");
      return;
    }
    ctx->temp_files().Remove(result.value().block_path);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BisimulationDag)->Arg(1'000)->Arg(4'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
