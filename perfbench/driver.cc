// perfbench_driver — the benchmark's in-process half. It links the
// library and calls only its public functions, so every number it
// reports is measured from outside the layers it names.
//
//   perfbench_driver trace-solve <edges.txt> <labels_out.txt> <memory_bytes>
//                                <trace_out.json> <scratch_parent>
//       Re-runs the Ext-SCC level loop (the same calls, in the same order,
//       on a context configured like `extscc_tool solve`) with one span per
//       call, writes the labels exactly as the tool does, then runs a plain
//       RunExtScc on a fresh context for the per-level fidelity check.
//
//   perfbench_driver serve-mixed <edges.txt> <artifact> <seed> <batches>
//                                <batch_size> <update_every> <update_edges>
//                                <check_out.txt> <trace_out.json|-> <scratch_parent>
//       Closed-loop serving: query batches through serve::RunQueries, and
//       every <update_every> batches one dyn::DynamicSccIndex::ApplyBatch
//       (alternately re-inserted existing edges and fresh random edges)
//       followed by the serve refresh (peek, reopen on a version bump).
//       Sampled answers and every applied update go to <check_out.txt>.
//
//   perfbench_driver check-serve <edges.txt> <check.txt>
//       Replays <check.txt> against an in-memory oracle of the union
//       graph (Tarjan + condensation BFS). Exit 0 when every sampled
//       answer matches, 1 otherwise.
//
// trace-solve and serve-mixed print one JSON summary line on stdout and
// write their spans as Chrome trace-event JSON (opens in Perfetto).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/contraction.h"
#include "core/expansion.h"
#include "core/ext_scc.h"
#include "core/vertex_cover.h"
#include "dyn/dynamic_index.h"
#include "graph/digraph.h"
#include "graph/edge_file.h"
#include "graph/graph_io.h"
#include "graph/node_file.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "scc/br_tree_scc.h"
#include "scc/tarjan.h"
#include "serve/artifact.h"
#include "serve/query_engine.h"
#include "serve/service.h"

namespace {

using namespace extscc;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(1);
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Same machine as `extscc_tool`'s MakeContext: 64 KB blocks, the given
// M, the default serial engine, posix scratch under `scratch_parent`.
io::IoContextOptions ToolOptions(std::uint64_t memory_bytes,
                                 const std::string& scratch_parent) {
  io::IoContextOptions options;
  options.block_size = 64 * 1024;
  options.memory_bytes =
      std::max<std::uint64_t>(memory_bytes, 2 * options.block_size);
  options.temp_parent_dir = scratch_parent;
  return options;
}

// ---- spans ------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  bool leaf = false;
  double start_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  io::IoStats io;
  std::vector<std::pair<std::string, double>> args;
};

// Spans kept in memory; nesting follows Begin/End order on one thread.
class Tracer {
 public:
  explicit Tracer(io::IoContext* context) : context_(context) {}

  int Begin(const std::string& name, bool leaf) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.leaf = leaf;
    span.start_s = Seconds();
    span.cpu_s = ThreadCpuSeconds();
    span.io = context_->stats();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  Span& End(int id) {
    if (stack_.empty() || stack_.back() != id) Die("unbalanced span " + std::to_string(id));
    stack_.pop_back();
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.wall_s = Seconds() - span.start_s;
    span.cpu_s = ThreadCpuSeconds() - span.cpu_s;
    span.io = context_->stats() - span.io;
    return span;
  }

  void WriteChromeTrace(const std::string& path) const {
    if (path.empty() || path == "-") return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"parent\": \"%s\", \"ios\": %llu, "
                   "\"cpu_s\": %.6f",
                   s.name.c_str(), s.leaf ? "leaf" : "group", 1e6 * s.start_s,
                   1e6 * s.wall_s,
                   s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name.c_str(),
                   static_cast<unsigned long long>(s.io.total_ios()), s.cpu_s);
      for (const auto& [key, value] : s.args) {
        std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
      }
      std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  // JSON array of spans for the summary line.
  std::string SpansJson() const {
    std::string out = "[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"parent\":%d,\"leaf\":%s,\"start_s\":%.9f,"
          "\"s\":%.9f,\"cpu_s\":%.9f,\"ios\":%llu,\"read_blocks\":%llu,"
          "\"write_blocks\":%llu,\"random_ios\":%llu,\"bytes\":%llu,"
          "\"files_created\":%llu,\"retries\":%llu",
          i == 0 ? "" : ",", s.name.c_str(), s.parent, s.leaf ? "true" : "false",
          s.start_s, s.wall_s, s.cpu_s,
          static_cast<unsigned long long>(s.io.total_ios()),
          static_cast<unsigned long long>(s.io.total_reads()),
          static_cast<unsigned long long>(s.io.total_writes()),
          static_cast<unsigned long long>(s.io.random_ios()),
          static_cast<unsigned long long>(s.io.bytes_read + s.io.bytes_written),
          static_cast<unsigned long long>(s.io.files_created),
          static_cast<unsigned long long>(s.io.read_retries + s.io.write_retries));
      out += buf;
      for (const auto& [key, value] : s.args) {
        std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key.c_str(), value);
        out += buf;
      }
      out += "}";
    }
    return out + "]";
  }

 private:
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  io::IoContext* context_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- trace-solve --------------------------------------------------------

struct LevelFiles {
  std::string ein, eout, cover, removed;
};

int CmdTraceSolve(int argc, char** argv) {
  if (argc != 7) Die("usage: trace-solve <edges> <labels_out> <memory> <trace_out> <scratch>");
  const std::string edges_path = argv[2];
  const std::string labels_path = argv[3];
  const std::uint64_t memory = std::strtoull(argv[4], nullptr, 10);
  const std::string trace_path = argv[5];
  const std::string scratch = argv[6];

  const core::ExtSccOptions options = core::ExtSccOptions::Optimized();
  core::CoverOptions cover_options;
  cover_options.order = core::OrderVariant::kDegreeFanoutId;
  cover_options.type1_reduction = options.type1_reduction;
  cover_options.type2_reduction = options.type2_reduction;
  const core::ContractionOptions contraction_options;

  io::IoContext context(ToolOptions(memory, scratch));
  Tracer tracer(&context);
  const int root = tracer.Begin("solve", false);

  int id = tracer.Begin("graph.ingest", true);
  auto loaded = graph::LoadTextEdgeList(&context, edges_path);
  if (!loaded.ok()) Die(loaded.status().ToString());
  const graph::DiskGraph input = loaded.value();
  tracer.End(id).args = {{"edges", static_cast<double>(input.num_edges)},
                         {"nodes", static_cast<double>(input.num_nodes)}};

  const int core_id = tracer.Begin("core.ext_scc", false);
  std::vector<LevelFiles> levels;
  std::vector<std::uint64_t> level_ios;
  graph::DiskGraph current = input;
  while (!scc::SemiSccFits(options.semi_backend, current.num_nodes,
                           context.memory())) {
    const std::size_t li = levels.size();
    const int level_id = tracer.Begin("core.level.L" + std::to_string(li + 1), false);
    LevelFiles level;
    level.ein = context.NewTempPath("ein");
    level.eout = context.NewTempPath("eout");

    id = tracer.Begin("graph.sort_edges", true);
    graph::SortEdgesBothOrders(&context, current.edge_path, level.ein,
                               level.eout, options.dedup_parallel_edges,
                               /*drop_self_loops=*/levels.empty());
    const std::uint64_t level_edges = graph::CountEdges(&context, level.ein);
    tracer.End(id).args = {{"level", static_cast<double>(li + 1)},
                           {"edges_in", static_cast<double>(current.num_edges)},
                           {"edges_out", static_cast<double>(level_edges)}};

    id = tracer.Begin("core.get_v", true);
    const core::CoverResult cover = core::ComputeVertexCover(
        &context, level.ein, level.eout, cover_options);
    tracer.End(id).args = {{"level", static_cast<double>(li + 1)},
                           {"nodes", static_cast<double>(current.num_nodes)},
                           {"cover_nodes", static_cast<double>(cover.cover_count)},
                           {"type2_skips", static_cast<double>(cover.type2_skips)}};
    if (cover.cover_count >= current.num_nodes) Die("cover did not shrink");
    level.cover = cover.cover_path;

    id = tracer.Begin("core.get_e", true);
    const core::ContractionResult contraction = core::ContractEdges(
        &context, level.ein, level.eout, level.cover, contraction_options);
    tracer.End(id).args = {{"level", static_cast<double>(li + 1)},
                           {"edges", static_cast<double>(level_edges)},
                           {"next_edges", static_cast<double>(contraction.num_edges)},
                           {"new_edges", static_cast<double>(contraction.new_edges)}};

    level.removed = context.NewTempPath("removed");
    id = tracer.Begin("graph.node_diff", true);
    const std::uint64_t removed = graph::NodeFileDifference(
        &context, current.node_path, level.cover, level.removed);
    tracer.End(id).args = {{"level", static_cast<double>(li + 1)},
                           {"removed", static_cast<double>(removed)}};

    Span& level_span = tracer.End(level_id);
    level_ios.push_back(level_span.io.total_ios());
    level_span.args = {{"nodes", static_cast<double>(current.num_nodes)},
                       {"edges", static_cast<double>(level_edges)},
                       {"cover_nodes", static_cast<double>(cover.cover_count)},
                       {"next_edges", static_cast<double>(contraction.num_edges)}};
    levels.push_back(level);
    current = graph::DiskGraph{level.cover, contraction.edge_path,
                               cover.cover_count, contraction.num_edges};
  }

  graph::SccId next_scc_id = 0;
  std::string scc_path = context.NewTempPath("scc_semi");
  id = tracer.Begin("scc.semi", true);
  const scc::SemiSccStats semi = scc::RunSemiScc(
      options.semi_backend, &context, current, scc_path, &next_scc_id);
  tracer.End(id).args = {{"nodes", static_cast<double>(current.num_nodes)},
                         {"edges", static_cast<double>(current.num_edges)},
                         {"rounds", static_cast<double>(semi.rounds)},
                         {"edge_scans", static_cast<double>(semi.edge_scans)},
                         {"trimmed", static_cast<double>(semi.trimmed)}};

  const std::string scc_output = context.NewTempPath("scc");
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const bool outermost = std::next(it) == levels.rend();
    id = tracer.Begin("core.expand", true);
    const core::ExpansionResult expanded =
        core::ExpandLevel(&context, it->ein, it->eout, it->cover, it->removed,
                          scc_path, &next_scc_id, outermost ? scc_output : "");
    context.temp_files().Remove(scc_path);
    scc_path = expanded.scc_path;
    tracer.End(id).args = {
        {"level", static_cast<double>(levels.rend() - it)},
        {"joined", static_cast<double>(expanded.removed_in_existing_scc)},
        {"singletons", static_cast<double>(expanded.removed_singletons)}};
  }
  if (levels.empty()) {
    id = tracer.Begin("core.emit", true);
    io::CopyAllRecords<graph::SccEntry>(&context, scc_path, scc_output);
    context.temp_files().Remove(scc_path);
    tracer.End(id);
  }
  const Span& core_span = tracer.End(core_id);
  const double core_s = core_span.wall_s;
  const std::uint64_t core_ios = core_span.io.total_ios();

  // Label egress, byte for byte the tool's writer.
  id = tracer.Begin("graph.egress", true);
  std::uint64_t label_lines = 0;
  {
    std::ofstream out(labels_path);
    if (!out) Die("cannot create " + labels_path);
    io::RecordReader<graph::SccEntry> reader(&context, scc_output);
    graph::SccEntry entry;
    while (reader.Next(&entry)) {
      out << entry.node << ' ' << entry.scc << '\n';
      ++label_lines;
    }
    if (!reader.status().ok()) Die(reader.status().ToString());
  }
  tracer.End(id).args = {{"labels", static_cast<double>(label_lines)}};
  tracer.End(root);
  if (context.has_io_error()) Die(context.io_error().ToString());
  tracer.WriteChromeTrace(trace_path);

  // Fidelity reference: a plain RunExtScc on a fresh, identical context.
  io::IoContext plain_context(ToolOptions(memory, scratch));
  auto plain_loaded = graph::LoadTextEdgeList(&plain_context, edges_path);
  if (!plain_loaded.ok()) Die(plain_loaded.status().ToString());
  auto plain = core::RunExtScc(&plain_context, plain_loaded.value(),
                               plain_context.NewTempPath("scc"), options);
  if (!plain.ok()) Die(plain.status().ToString());

  const auto json_list = [](const std::vector<std::uint64_t>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(values[i]);
    }
    return out + "]";
  };
  std::vector<std::uint64_t> plain_level_ios;
  for (const core::ContractionIterationStats& iter : plain.value().iterations) {
    plain_level_ios.push_back(iter.ios);
  }
  const std::string plain_levels = json_list(plain_level_ios);
  const std::string traced_levels = json_list(level_ios);

  std::printf(
      "{\"core_s\":%.9f,\"core_ios\":%llu,\"levels\":%zu,"
      "\"traced_level_ios\":%s,\"plain_level_ios\":%s,"
      "\"plain_total_ios\":%llu,\"spans\":%s}\n",
      core_s, static_cast<unsigned long long>(core_ios), levels.size(),
      traced_levels.c_str(), plain_levels.c_str(),
      static_cast<unsigned long long>(plain.value().total_ios),
      tracer.SpansJson().c_str());
  return 0;
}

// ---- serve-mixed --------------------------------------------------------

// Streams a text edge list ("u v" per line, '#' comments). Not
// graph::LoadTextEdgeList: that writes scratch files through an IoContext,
// which would add I/Os and sort buffers to the measured serving process.
template <typename Fn>
void ForEachTextEdge(const std::string& path, Fn&& fn) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) Die("cannot open " + path);
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#') continue;
    char* end = nullptr;
    const unsigned long long u = std::strtoull(line, &end, 10);
    if (end == line) continue;
    char* end2 = nullptr;
    const unsigned long long v = std::strtoull(end, &end2, 10);
    if (end2 == end) continue;
    fn(graph::Edge{static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v)});
  }
  std::fclose(f);
}

int CmdServeMixed(int argc, char** argv) {
  if (argc != 12) {
    Die("usage: serve-mixed <edges> <artifact> <seed> <batches> <batch_size> "
        "<update_every> <update_edges> <check_out> <trace_out|-> <scratch>");
  }
  const std::string edges_path = argv[2];
  const std::string artifact_path = argv[3];
  const std::uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  const std::size_t batches = std::strtoull(argv[5], nullptr, 10);
  const std::size_t batch_size = std::strtoull(argv[6], nullptr, 10);
  const std::size_t update_every = std::strtoull(argv[7], nullptr, 10);
  const std::size_t update_edges = std::strtoull(argv[8], nullptr, 10);
  const std::string check_path = argv[9];
  const std::string trace_path = argv[10];
  const std::string scratch = argv[11];
  const std::size_t num_updates = batches / update_every;
  const std::size_t num_reinserts = (num_updates + 1) / 2;

  // Re-insert batches: a seeded reservoir sample of existing edges.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::vector<graph::Edge> reinsert_pool;
  const std::size_t pool_size = num_reinserts * update_edges;
  std::uint64_t seen = 0;
  graph::NodeId max_node = 0;
  ForEachTextEdge(edges_path, [&](const graph::Edge& e) {
    max_node = std::max({max_node, e.src, e.dst});
    if (reinsert_pool.size() < pool_size) {
      reinsert_pool.push_back(e);
    } else {
      const std::uint64_t j = rng() % (seen + 1);
      if (j < pool_size) reinsert_pool[j] = e;
    }
    ++seen;
  });
  const std::uint64_t num_nodes = static_cast<std::uint64_t>(max_node) + 1;

  io::IoContext context(ToolOptions(64u << 20, scratch));
  Tracer tracer(&context);
  std::FILE* check = std::fopen(check_path.c_str(), "w");
  if (check == nullptr) Die("cannot write " + check_path);

  auto opened_index = dyn::DynamicSccIndex::Open(&context, artifact_path);
  if (!opened_index.ok()) Die(opened_index.status().ToString());
  dyn::DynamicSccIndex index = std::move(opened_index).value();

  std::optional<serve::ArtifactReader> reader;
  std::optional<serve::QueryEngine> engine;
  std::string opens_json = "[";
  const auto open_live = [&]() {
    const int id = tracer.Begin("serve.open", true);
    engine.reset();
    auto opened = serve::ArtifactReader::Open(&context, artifact_path);
    if (!opened.ok()) Die(opened.status().ToString());
    reader.emplace(std::move(opened).value());
    engine.emplace(&*reader);
    const Span& s = tracer.End(id);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s{\"s\":%.9f,\"cpu_s\":%.9f,\"ios\":%llu}",
                  opens_json.size() > 1 ? "," : "", s.wall_s, s.cpu_s,
                  static_cast<unsigned long long>(s.io.total_ios()));
    opens_json += buf;
  };
  open_live();

  const int loop_id = tracer.Begin("serve.loop", false);
  std::uniform_int_distribution<std::uint64_t> node_dist(0, num_nodes - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<serve::Query> batch(batch_size);
  std::vector<serve::QueryAnswer> answers;
  std::string batches_json = "[", updates_json = "[";
  char buf[512];
  std::size_t reinsert_next = 0, update_index = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    for (serve::Query& q : batch) {
      const double r = unit(rng);
      q.type = r < 0.45 ? serve::QueryType::kReachable
               : r < 0.90 ? serve::QueryType::kSameScc
                          : serve::QueryType::kSccStat;
      q.u = static_cast<graph::NodeId>(node_dist(rng));
      q.v = q.type == serve::QueryType::kSccStat
                ? 0
                : static_cast<graph::NodeId>(node_dist(rng));
    }
    std::uint64_t reach = 0;
    for (const serve::Query& q : batch) reach += q.type == serve::QueryType::kReachable;

    serve::QueryBatchStats stats;
    const int id = tracer.Begin("serve.query", true);
    const util::Status status =
        serve::RunQueries(&context, *engine, batch, 1, &answers, &stats);
    Span& span = tracer.End(id);
    if (!status.ok()) Die(status.ToString());
    span.args = {{"batch", static_cast<double>(b)},
                 {"queries", static_cast<double>(stats.queries)},
                 {"probes", static_cast<double>(stats.probes)},
                 {"swept_blocks", static_cast<double>(stats.swept_blocks)},
                 {"probe_spill_runs", static_cast<double>(stats.probe_spill_runs)},
                 {"dfs_fallbacks", static_cast<double>(stats.labels.dfs_fallbacks)},
                 {"reach", static_cast<double>(reach)}};
    std::snprintf(buf, sizeof(buf),
                  "%s{\"s\":%.9f,\"cpu_s\":%.9f,\"ios\":%llu,\"queries\":%llu,"
                  "\"probes\":%llu,\"swept_blocks\":%llu,\"spill_runs\":%llu,"
                  "\"dfs_fallbacks\":%llu,\"reach\":%llu,\"unknown\":%llu}",
                  b == 0 ? "" : ",", span.wall_s, span.cpu_s,
                  static_cast<unsigned long long>(span.io.total_ios()),
                  static_cast<unsigned long long>(stats.queries),
                  static_cast<unsigned long long>(stats.probes),
                  static_cast<unsigned long long>(stats.swept_blocks),
                  static_cast<unsigned long long>(stats.probe_spill_runs),
                  static_cast<unsigned long long>(stats.labels.dfs_fallbacks),
                  static_cast<unsigned long long>(reach),
                  static_cast<unsigned long long>(stats.unknown_nodes));
    batches_json += buf;

    // A sampled subset of answers for the oracle replay, from every
    // seventh update epoch (each checked epoch costs the oracle a rebuild;
    // with alternating kinds this samples after both).
    for (int k = 0; (b / update_every) % 7 == 0 && k < 48; ++k) {
      const std::size_t i = static_cast<std::size_t>(rng() % batch.size());
      const serve::Query& q = batch[i];
      const serve::QueryAnswer& a = answers[i];
      std::fprintf(check, "Q %zu %d %u %u %d %d %llu\n", b,
                   static_cast<int>(q.type), q.u, q.v, a.known ? 1 : 0,
                   a.result ? 1 : 0,
                   static_cast<unsigned long long>(a.scc_size));
    }

    if ((b + 1) % update_every != 0 || update_index >= num_updates) continue;
    // Even updates re-insert existing edges (delta-log append path); odd
    // updates add fresh random edges (structural: artifact rewrite).
    const bool fresh = update_index % 2 == 1;
    std::vector<graph::Edge> edges;
    edges.reserve(update_edges);
    for (std::size_t k = 0; k < update_edges; ++k) {
      if (fresh) {
        edges.push_back(graph::Edge{static_cast<graph::NodeId>(node_dist(rng)),
                                    static_cast<graph::NodeId>(node_dist(rng))});
      } else {
        edges.push_back(reinsert_pool[reinsert_next++ % reinsert_pool.size()]);
      }
    }
    std::fprintf(check, "U %zu %d %zu\n", update_index, fresh ? 1 : 0,
                 edges.size());
    for (const graph::Edge& e : edges) std::fprintf(check, "%u %u\n", e.src, e.dst);

    const int uid = tracer.Begin("dyn.apply", true);
    auto applied = index.ApplyBatch(edges);
    Span& uspan = tracer.End(uid);
    if (!applied.ok()) Die(applied.status().ToString());
    const dyn::UpdateBatchStats& u = applied.value();
    uspan.args = {{"update", static_cast<double>(update_index)},
                  {"fresh", fresh ? 1.0 : 0.0},
                  {"edges_in", static_cast<double>(u.edges_in)},
                  {"intra_scc", static_cast<double>(u.intra_scc)},
                  {"merge_groups", static_cast<double>(u.merge_groups)},
                  {"rewrote", u.rewrote_artifact ? 1.0 : 0.0}};
    std::snprintf(buf, sizeof(buf),
                  "%s{\"fresh\":%s,\"s\":%.9f,\"cpu_s\":%.9f,\"ios\":%llu,"
                  "\"batch_ios\":%llu,\"edges_in\":%llu,\"intra_scc\":%llu,"
                  "\"merge_groups\":%llu,\"rewrote\":%s}",
                  update_index == 0 ? "" : ",", fresh ? "true" : "false",
                  uspan.wall_s, uspan.cpu_s,
                  static_cast<unsigned long long>(uspan.io.total_ios()),
                  static_cast<unsigned long long>(u.batch_ios),
                  static_cast<unsigned long long>(u.edges_in),
                  static_cast<unsigned long long>(u.intra_scc),
                  static_cast<unsigned long long>(u.merge_groups),
                  u.rewrote_artifact ? "true" : "false");
    updates_json += buf;
    ++update_index;

    // The serve refresh: peek the published version, reopen on a bump.
    const int pid = tracer.Begin("serve.peek", true);
    auto version = serve::PeekArtifactVersion(&context, artifact_path);
    tracer.End(pid);
    if (!version.ok()) Die(version.status().ToString());
    if (version.value() != reader->data_version()) open_live();
  }
  tracer.End(loop_id);
  std::fclose(check);
  if (context.has_io_error()) Die(context.io_error().ToString());
  tracer.WriteChromeTrace(trace_path);

  std::printf("{\"batches\":%s],\"updates\":%s],\"opens\":%s],\"spans\":%s}\n",
              batches_json.c_str(), updates_json.c_str(), opens_json.c_str(),
              tracer.SpansJson().c_str());
  return 0;
}

// ---- check-serve --------------------------------------------------------

// SCC labels, sizes and the condensation DAG of an in-memory edge list.
struct Oracle {
  explicit Oracle(const std::vector<graph::Edge>& edges) : g(edges) {
    graph::SccId next = 0;
    comp = scc::TarjanSccDense(g, &next);
    size.assign(next, 0);
    for (const graph::SccId c : comp) ++size[c];
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dag;
    for (std::size_t a = 0; a < g.num_nodes(); ++a) {
      for (const std::uint32_t b : g.out_neighbors(a)) {
        if (comp[a] != comp[b]) dag.emplace_back(comp[a], comp[b]);
      }
    }
    std::sort(dag.begin(), dag.end());
    dag.erase(std::unique(dag.begin(), dag.end()), dag.end());
    offsets.assign(next + 1, 0);
    for (const auto& [a, b] : dag) ++offsets[a + 1];
    for (std::size_t i = 0; i < next; ++i) offsets[i + 1] += offsets[i];
    targets.resize(dag.size());
    std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (const auto& [a, b] : dag) targets[fill[a]++] = b;
    mark.assign(next, 0);
  }

  bool Reaches(graph::SccId from, graph::SccId to) {
    if (from == to) return true;
    ++epoch;
    std::vector<std::uint32_t> stack = {from};
    mark[from] = epoch;
    while (!stack.empty()) {
      const std::uint32_t c = stack.back();
      stack.pop_back();
      for (std::uint32_t i = offsets[c]; i < offsets[c + 1]; ++i) {
        const std::uint32_t d = targets[i];
        if (d == to) return true;
        if (mark[d] != epoch) {
          mark[d] = epoch;
          stack.push_back(d);
        }
      }
    }
    return false;
  }

  graph::Digraph g;
  std::vector<graph::SccId> comp;
  std::vector<std::uint64_t> size;
  std::vector<std::uint32_t> offsets, targets, mark;
  std::uint32_t epoch = 0;
};

int CmdCheckServe(int argc, char** argv) {
  if (argc != 4) Die("usage: check-serve <edges> <check>");
  std::vector<graph::Edge> edges;
  ForEachTextEdge(argv[2], [&](const graph::Edge& e) { edges.push_back(e); });
  std::FILE* f = std::fopen(argv[3], "r");
  if (f == nullptr) Die(std::string("cannot open ") + argv[3]);
  std::optional<Oracle> oracle;
  std::uint64_t checked = 0, wrong = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == 'U') {
      std::size_t update = 0, count = 0;
      int fresh = 0;
      if (std::sscanf(line, "U %zu %d %zu", &update, &fresh, &count) != 3) Die("bad check line");
      for (std::size_t i = 0; i < count; ++i) {
        unsigned u = 0, v = 0;
        if (std::fscanf(f, "%u %u\n", &u, &v) != 2) Die("truncated update");
        edges.push_back(graph::Edge{u, v});
      }
      oracle.reset();
      continue;
    }
    std::size_t b = 0;
    int type = 0, known = 0, result = 0;
    unsigned u = 0, v = 0;
    unsigned long long size = 0;
    if (std::sscanf(line, "Q %zu %d %u %u %d %d %llu", &b, &type, &u, &v,
                    &known, &result, &size) != 7) {
      Die("bad check line");
    }
    if (!oracle) oracle.emplace(edges);
    const std::size_t iu = oracle->g.index_of(u);
    const std::size_t iv = type == 2 ? iu : oracle->g.index_of(v);
    const std::size_t n = oracle->g.num_nodes();
    bool ok;
    if (iu == n || iv == n) {
      ok = known == 0;
    } else if (known == 0) {
      ok = false;
    } else if (type == 0) {
      ok = (result != 0) == (oracle->comp[iu] == oracle->comp[iv]);
    } else if (type == 1) {
      ok = (result != 0) == oracle->Reaches(oracle->comp[iu], oracle->comp[iv]);
    } else {
      ok = size == oracle->size[oracle->comp[iu]];
    }
    ++checked;
    if (!ok) {
      ++wrong;
      if (wrong <= 5) std::fprintf(stderr, "mismatch: %s", line);
    }
  }
  std::fclose(f);
  std::printf("{\"checked\":%llu,\"wrong\":%llu}\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong));
  return wrong == 0 && checked > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "trace-solve") return CmdTraceSolve(argc, argv);
  if (command == "serve-mixed") return CmdServeMixed(argc, argv);
  if (command == "check-serve") return CmdCheckServe(argc, argv);
  std::fprintf(stderr,
               "usage: perfbench_driver trace-solve|serve-mixed|check-serve ...\n");
  return 2;
}
