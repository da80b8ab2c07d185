// Machine-readable baseline for the serve path: queries/second over one
// immutable artifact, swept across batch size and reader-thread count,
// on RAM-backed (mem) and real-file (posix) scratch devices. Emits an
// aligned table and writes BENCH_serve.json into the working directory,
// so the serving-throughput trajectory has comparable points across
// changes.
//
// The artifact is built once per device model (on that model's device,
// so every sweep block goes through it) and the SAME query workload
// replays at every grid point — only batch size and thread count move,
// which is exactly the trade the batched sort-sweep engine is about:
// bigger batches amortize the map sweep, more threads overlap
// independent slices.
//
//   bench_serve [--nodes=20000] [--queries=10000]
//               [--batch-sizes=64,512,4096] [--threads=1,2,4]
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gen/webgraph_generator.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "serve/service.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace extscc;
namespace fs = std::filesystem;

struct Config {
  std::uint64_t nodes = 20000;
  std::size_t queries = 10000;
  std::vector<std::size_t> batch_sizes = {64, 512, 4096};
  std::vector<std::size_t> threads = {1, 2, 4};
};

struct Point {
  std::string model;
  std::size_t batch_size = 0;
  std::size_t threads = 0;
  double wall_s = 0;
  double qps = 0;
  std::uint64_t total_ios = 0;
  std::uint64_t swept_blocks = 0;
  std::uint64_t answered_true = 0;  // workload checksum across points
};

constexpr std::size_t kBlockSize = 4096;  // many-block map section
constexpr std::uint64_t kAnyCount = ~std::uint64_t{0};

std::unique_ptr<io::IoContext> MakeMachine(const std::string& model,
                                           const std::string& parent) {
  io::IoContextOptions options;
  options.block_size = kBlockSize;
  options.memory_bytes = 32ull << 20;
  options.scratch_dirs = {parent};
  options.device_model.model =
      model == "mem" ? io::DeviceModel::kMem : io::DeviceModel::kPosix;
  return std::make_unique<io::IoContext>(options);
}

std::vector<serve::Query> MakeWorkload(const Config& config) {
  util::Rng rng(4242);
  std::vector<serve::Query> queries;
  queries.reserve(config.queries);
  for (std::size_t i = 0; i < config.queries; ++i) {
    serve::Query q;
    const std::uint64_t kind = rng.Uniform(3);
    q.type = kind == 0   ? serve::QueryType::kSameScc
             : kind == 1 ? serve::QueryType::kReachable
                         : serve::QueryType::kSccStat;
    q.u = static_cast<graph::NodeId>(rng.Uniform(config.nodes));
    q.v = static_cast<graph::NodeId>(rng.Uniform(config.nodes));
    queries.push_back(q);
  }
  return queries;
}

Point RunPoint(io::IoContext* ctx, const serve::QueryEngine& engine,
               const std::vector<serve::Query>& workload,
               const std::string& model, std::size_t batch_size,
               std::size_t threads) {
  Point point;
  point.model = model;
  point.batch_size = batch_size;
  point.threads = threads;

  const io::IoStats before = ctx->stats();
  serve::QueryBatchStats stats;
  std::vector<serve::QueryAnswer> answers;
  util::Timer timer;
  for (std::size_t at = 0; at < workload.size(); at += batch_size) {
    const std::size_t n = std::min(batch_size, workload.size() - at);
    const std::vector<serve::Query> batch(workload.begin() + at,
                                          workload.begin() + at + n);
    const util::Status status =
        serve::RunQueries(ctx, engine, batch, threads, &answers, &stats);
    if (!status.ok()) {
      std::fprintf(stderr, "query batch failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    for (const serve::QueryAnswer& a : answers) {
      if (a.known && a.result) ++point.answered_true;
    }
  }
  point.wall_s = timer.ElapsedSeconds();
  point.qps = point.wall_s > 0 ? workload.size() / point.wall_s : 0;
  point.total_ios = (ctx->stats() - before).total_ios();
  point.swept_blocks = stats.swept_blocks;
  return point;
}

void WriteJson(const Config& config, std::uint64_t num_sccs,
               const std::vector<Point>& points) {
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"serve\",\n"
               "  \"block_size\": %zu,\n  \"nodes\": %llu,\n"
               "  \"num_sccs\": %llu,\n  \"queries\": %zu,\n"
               "  \"points\": [\n",
               kBlockSize, static_cast<unsigned long long>(config.nodes),
               static_cast<unsigned long long>(num_sccs), config.queries);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"batch_size\": %zu, "
                 "\"threads\": %zu, \"wall_s\": %.6f, "
                 "\"queries_per_sec\": %.1f, \"total_ios\": %llu, "
                 "\"swept_blocks\": %llu, \"answered_true\": %llu}%s\n",
                 p.model.c_str(), p.batch_size, p.threads, p.wall_s, p.qps,
                 static_cast<unsigned long long>(p.total_ios),
                 static_cast<unsigned long long>(p.swept_blocks),
                 static_cast<unsigned long long>(p.answered_true),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n[json written to BENCH_serve.json]\n");
}

// A whole-string decimal in [min, max] (util::ParseDecimal); anything
// else names the flag and exits 2, as extscc_tool does.
std::uint64_t ParseCount(const char* flag, const std::string& text,
                         std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  if (util::ParseDecimal(text, max, &value) && value >= min) return value;
  std::fprintf(stderr, "bad %s \"%s\" (want a decimal integer %llu..%llu)\n",
               flag, text.c_str(), static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

// A non-empty comma-separated list of ParseCount values.
std::vector<std::size_t> ParseCountList(const char* flag,
                                        const std::string& text,
                                        std::uint64_t min, std::uint64_t max) {
  std::vector<std::size_t> out;
  for (const std::string& item : util::SplitCommaList(text)) {
    out.push_back(static_cast<std::size_t>(ParseCount(flag, item, min, max)));
  }
  if (out.empty()) {
    std::fprintf(stderr, "bad %s \"%s\" (want a comma-separated list)\n",
                 flag, text.c_str());
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      config.nodes =
          ParseCount("--nodes", argv[i] + 8, 2, graph::kInvalidNode);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      config.queries = static_cast<std::size_t>(
          ParseCount("--queries", argv[i] + 10, 1, kAnyCount));
    } else if (std::strncmp(argv[i], "--batch-sizes=", 14) == 0) {
      config.batch_sizes =
          ParseCountList("--batch-sizes", argv[i] + 14, 1, kAnyCount);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      config.threads = ParseCountList("--threads", argv[i] + 10, 0, 1024);
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--nodes=N] [--queries=Q] "
                   "[--batch-sizes=a,b,...] [--threads=a,b,...]\n");
      return 2;
    }
  }

  const fs::path parent = fs::temp_directory_path() /
                          ("extscc_serve_" + std::to_string(::getpid()));
  fs::create_directories(parent);
  const std::vector<serve::Query> workload = MakeWorkload(config);

  std::vector<Point> points;
  std::uint64_t num_sccs = 0;
  for (const std::string model : {"mem", "posix"}) {
    auto ctx = MakeMachine(model, parent.string());
    gen::WebGraphParams params;
    params.num_nodes = config.nodes;
    params.seed = 3;
    const auto g = gen::GenerateWebGraph(ctx.get(), params);
    // The artifact lives on the scratch device, so every sweep block
    // is read through it, like production reads would be.
    const std::string artifact_path = ctx->NewTempPath("artifact");
    auto built = serve::BuildArtifact(ctx.get(), g, artifact_path);
    if (!built.ok()) {
      std::fprintf(stderr, "build-index failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    num_sccs = built.value().summary.num_sccs;
    auto opened = serve::ArtifactReader::Open(ctx.get(), artifact_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    const serve::ArtifactReader artifact = std::move(opened).value();
    const serve::QueryEngine engine(&artifact);
    for (const std::size_t batch_size : config.batch_sizes) {
      for (const std::size_t threads : config.threads) {
        points.push_back(RunPoint(ctx.get(), engine, workload, model,
                                  batch_size, threads));
      }
    }
  }
  fs::remove_all(parent);

  std::printf("\n=== serve: %llu-node web graph, %llu SCCs, %zu queries "
              "===\n",
              static_cast<unsigned long long>(config.nodes),
              static_cast<unsigned long long>(num_sccs), config.queries);
  std::printf("%-10s %-11s %-8s %-10s %-12s %-10s %-13s\n", "model",
              "batch_size", "threads", "wall_s", "queries/s", "total_ios",
              "swept_blocks");
  for (const Point& p : points) {
    std::printf("%-10s %-11zu %-8zu %-10.4f %-12.1f %-10llu %-13llu\n",
                p.model.c_str(), p.batch_size, p.threads, p.wall_s, p.qps,
                static_cast<unsigned long long>(p.total_ios),
                static_cast<unsigned long long>(p.swept_blocks));
  }
  // The workload verdicts are batch-, thread- and device-invariant; a
  // drift between points means the engine's slicing (or a device)
  // changed an answer.
  for (const Point& p : points) {
    if (p.answered_true != points.front().answered_true) {
      std::fprintf(stderr, "verdict drift: %llu vs %llu\n",
                   static_cast<unsigned long long>(p.answered_true),
                   static_cast<unsigned long long>(points.front().answered_true));
      return 1;
    }
  }
  WriteJson(config, num_sccs, points);
  return 0;
}
