// Machine-readable baseline for the dynamic subsystem: block I/Os per
// insert batch vs a full re-solve of the union graph, swept across
// batch size on a fig6-sized web graph. Emits an aligned table and
// writes BENCH_dynamic.json next to the binary, so the incremental-
// maintenance trajectory has comparable points across PRs.
//
// Per point: the artifact is built over the graph MINUS the held-out
// edge suffix, the suffix is applied as one update batch (measured),
// and build-index runs over the full union (measured) — the honest
// comparator, since both end at the same byte-identical artifact. A
// delta-only point (duplicate edges) prices the no-rewrite path. The
// device model is RAM-backed, so every count is deterministic.
//
// The acceptance bound this pins: a 1%-of-edges batch must cost at
// most 25% of the full re-solve's block I/Os.
//
//   bench_dynamic [--nodes=20000] [--fractions=0.001,0.005,0.01,0.05]
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dyn/dynamic_index.h"
#include "gen/webgraph_generator.h"
#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "serve/index_builder.h"
#include "util/csv.h"
#include "util/timer.h"

namespace {

using namespace extscc;
namespace fs = std::filesystem;

struct Config {
  std::uint64_t nodes = 20000;
  std::vector<double> fractions = {0.001, 0.005, 0.01, 0.05};
};

struct Point {
  std::string kind;  // "structural" or "delta-only"
  double fraction = 0;
  std::uint64_t batch_edges = 0;
  std::uint64_t update_ios = 0;
  std::uint64_t swept_blocks = 0;
  std::uint64_t merge_groups = 0;
  bool rewrote = false;
  std::uint64_t resolve_ios = 0;
  double ratio = 0;  // update_ios / resolve_ios
  double update_wall_s = 0;
};

constexpr std::size_t kBlockSize = 4096;

Point RunPoint(io::IoContext* ctx, const std::vector<graph::Edge>& base,
               const std::vector<graph::Edge>& batch,
               const std::vector<graph::Edge>& union_edges,
               const char* kind, double fraction) {
  Point point;
  point.kind = kind;
  point.fraction = fraction;
  point.batch_edges = batch.size();

  const auto base_g = graph::MakeDiskGraph(ctx, base);
  const std::string artifact = ctx->NewTempPath("dyn_base_artifact");
  auto built = serve::BuildArtifact(ctx, base_g, artifact);
  if (!built.ok()) {
    std::fprintf(stderr, "build-index (base) failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }

  auto opened = dyn::DynamicSccIndex::Open(ctx, artifact);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  dyn::DynamicSccIndex index = std::move(opened).value();
  util::Timer timer;
  auto applied = index.ApplyBatch(batch);
  point.update_wall_s = timer.ElapsedSeconds();
  if (!applied.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 applied.status().ToString().c_str());
    std::exit(1);
  }
  point.update_ios = applied.value().batch_ios;
  point.swept_blocks = applied.value().swept_blocks;
  point.merge_groups = applied.value().merge_groups;
  point.rewrote = applied.value().rewrote_artifact;

  // The comparator: build-index over the union graph, end to end (the
  // solve plus the artifact write — what a refresh-by-rebuild pays).
  const auto union_g = graph::MakeDiskGraph(ctx, union_edges);
  const std::string rebuilt_path = ctx->NewTempPath("dyn_rebuild_artifact");
  const io::IoStats before = ctx->stats();
  auto rebuilt = serve::BuildArtifact(ctx, union_g, rebuilt_path);
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "build-index (union) failed: %s\n",
                 rebuilt.status().ToString().c_str());
    std::exit(1);
  }
  point.resolve_ios = (ctx->stats() - before).total_ios();
  point.ratio = point.resolve_ios > 0
                    ? static_cast<double>(point.update_ios) /
                          static_cast<double>(point.resolve_ios)
                    : 0;
  return point;
}

void WriteJson(const Config& config, std::uint64_t edges,
               const std::vector<Point>& points) {
  std::FILE* f = std::fopen("BENCH_dynamic.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_dynamic.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"dynamic\",\n"
               "  \"block_size\": %zu,\n  \"nodes\": %llu,\n"
               "  \"edges\": %llu,\n  \"points\": [\n",
               kBlockSize, static_cast<unsigned long long>(config.nodes),
               static_cast<unsigned long long>(edges));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"fraction\": %.4f, "
                 "\"batch_edges\": %llu, \"update_ios\": %llu, "
                 "\"swept_blocks\": %llu, \"merge_groups\": %llu, "
                 "\"rewrote\": %s, \"resolve_ios\": %llu, "
                 "\"ratio\": %.4f, \"update_wall_s\": %.6f}%s\n",
                 p.kind.c_str(), p.fraction,
                 static_cast<unsigned long long>(p.batch_edges),
                 static_cast<unsigned long long>(p.update_ios),
                 static_cast<unsigned long long>(p.swept_blocks),
                 static_cast<unsigned long long>(p.merge_groups),
                 p.rewrote ? "true" : "false",
                 static_cast<unsigned long long>(p.resolve_ios), p.ratio,
                 p.update_wall_s, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n[json written to BENCH_dynamic.json]\n");
}

// --nodes: a whole-string decimal >= 2 (util::ParseDecimal); anything
// else names the flag and exits 2, as extscc_tool does.
std::uint64_t ParseNodes(const std::string& text) {
  std::uint64_t value = 0;
  if (util::ParseDecimal(text, graph::kInvalidNode, &value) && value >= 2) {
    return value;
  }
  std::fprintf(stderr,
               "bad --nodes \"%s\" (want a decimal integer 2..%llu)\n",
               text.c_str(),
               static_cast<unsigned long long>(graph::kInvalidNode));
  std::exit(2);
}

// --fractions: a non-empty comma-separated list of whole-string decimals
// (std::from_chars) strictly between 0 and 1; anything else exits 2.
std::vector<double> ParseFractionList(const std::string& text) {
  std::vector<double> out;
  for (const std::string& item : util::SplitCommaList(text)) {
    double value = 0;
    const char* end = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(item.data(), end, value);
    if (ec != std::errc() || ptr != end || !(value > 0 && value < 1)) {
      out.clear();
      break;
    }
    out.push_back(value);
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "bad --fractions \"%s\" (want decimals strictly between 0 "
                 "and 1, comma-separated)\n",
                 text.c_str());
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      config.nodes = ParseNodes(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--fractions=", 12) == 0) {
      config.fractions = ParseFractionList(argv[i] + 12);
    } else {
      std::fprintf(stderr,
                   "usage: bench_dynamic [--nodes=N] "
                   "[--fractions=f1,f2,...]\n");
      return 2;
    }
  }

  const fs::path parent = fs::temp_directory_path() /
                          ("extscc_dynamic_" + std::to_string(::getpid()));
  fs::create_directories(parent);
  io::IoContextOptions options;
  options.block_size = kBlockSize;
  options.memory_bytes = 32ull << 20;
  options.scratch_dirs = {parent.string()};
  options.device_model.model = io::DeviceModel::kMem;
  io::IoContext ctx(options);

  gen::WebGraphParams params;
  params.num_nodes = config.nodes;
  params.seed = 3;
  const auto union_g = gen::GenerateWebGraph(&ctx, params);
  const std::vector<graph::Edge> union_edges =
      io::ReadAllRecords<graph::Edge>(&ctx, union_g.edge_path);

  std::vector<Point> points;
  for (const double fraction : config.fractions) {
    const auto batch_edges = static_cast<std::uint64_t>(
        std::max<double>(1.0, fraction * union_edges.size()));
    // Base = the union minus its edge suffix; batch = that suffix.
    const std::vector<graph::Edge> base(
        union_edges.begin(), union_edges.end() - batch_edges);
    const std::vector<graph::Edge> batch(
        union_edges.end() - batch_edges, union_edges.end());
    points.push_back(RunPoint(&ctx, base, batch, union_edges, "structural",
                              fraction));
  }
  // The no-rewrite path: a 1%-sized batch of edges the artifact has
  // already condensed (duplicates) goes to the delta log only.
  {
    const auto batch_edges = static_cast<std::uint64_t>(
        std::max<double>(1.0, 0.01 * union_edges.size()));
    const std::vector<graph::Edge> batch(
        union_edges.begin(), union_edges.begin() + batch_edges);
    points.push_back(RunPoint(&ctx, union_edges, batch, union_edges,
                              "delta-only", 0.01));
  }
  fs::remove_all(parent);

  std::printf("\n=== dynamic: %llu-node web graph, %zu edges ===\n",
              static_cast<unsigned long long>(config.nodes),
              union_edges.size());
  std::printf("%-12s %-9s %-12s %-11s %-13s %-8s %-12s %-7s\n", "kind",
              "fraction", "batch_edges", "update_ios", "swept_blocks",
              "rewrote", "resolve_ios", "ratio");
  for (const Point& p : points) {
    std::printf("%-12s %-9.4f %-12llu %-11llu %-13llu %-8s %-12llu %-7.4f\n",
                p.kind.c_str(), p.fraction,
                static_cast<unsigned long long>(p.batch_edges),
                static_cast<unsigned long long>(p.update_ios),
                static_cast<unsigned long long>(p.swept_blocks),
                p.rewrote ? "yes" : "no",
                static_cast<unsigned long long>(p.resolve_ios), p.ratio);
  }
  WriteJson(config, union_edges.size(), points);

  // The bound the roadmap pins: a 1%-of-edges structural batch costs at
  // most a quarter of the full re-solve's block I/Os.
  for (const Point& p : points) {
    if (p.kind == "structural" && p.fraction == 0.01 && p.ratio > 0.25) {
      std::fprintf(stderr,
                   "FAIL: 1%% batch used %.1f%% of re-solve I/Os "
                   "(bound 25%%)\n",
                   100.0 * p.ratio);
      return 1;
    }
  }
  return 0;
}
