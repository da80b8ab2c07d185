// extscc_tool — command-line front end over the library's public API.
//
//   extscc_tool [--sort-threads=0|1] [--scratch-dirs=a,b,...]
//               [--device-model=posix|mem|faulty[:...]]
//               [--checksum-blocks] [--crash-at=[tag:]N] <command> ...
//
//   extscc_tool generate <kind> <num_nodes> <out.txt> [seed]
//       kind: web | massive | large | small | rmat | cycle | dag
//   extscc_tool solve [--checkpoint-dir=D] [--resume]
//               <edges.txt> <out_labels.txt> [memory_bytes] [basic]
//   extscc_tool verify <edges.txt> <labels.txt>
//   extscc_tool condense <edges.txt> <dag_out.txt> [memory_bytes]
//   extscc_tool build-index <edges.txt> <artifact> [memory_bytes]
//   extscc_tool query [--batch-size=N] [--threads=N]
//               <artifact> <batch.txt>
//   extscc_tool serve [--batch-size=N] [--threads=N] <artifact>
//   extscc_tool update [--batch-size=N] --index=<artifact> --edges=<file>
//   extscc_tool fsck [--checkpoint-dir=D] [--dry-run] <artifact>
//
// The serving commands share the artifact + line protocol documented in
// docs/serving.md: build-index solves the graph once and publishes a
// versioned, checksummed artifact (3 interval-label rounds, the bow-tie
// split always included); query answers a batch file (one
// query per line — `same u v`, `reach u v`, `stat u`; blank line = batch
// boundary) with answers on stdout and batch stats on stderr; serve
// runs the same protocol as a stdin loop, flushing a batch every
// --batch-size lines, on a blank line, and at EOF. A failed read of the
// batch file or of stdin exits 5; neither is taken for the end of the
// input. update streams an edge-insert file ("u v" per line) through the
// incremental maintainer (docs/dynamic.md) in --batch-size chunks: each
// batch either lands in the delta log or atomically publishes a bumped
// artifact version, which a concurrently running serve picks up at its
// next batch boundary.
//
// Global flags (before the command) apply to every machine the tool
// builds. All but --checksum-blocks and --crash-at are the shared
// machine options (io::ParseMachineFlag): --sort-threads=1 enables
// overlapped run formation (labels are byte-identical; I/O counts can
// shift because file sorts halve their run buffers to double-buffer),
// --scratch-dirs builds one scratch device per listed directory (new
// scratch files go round-robin across them), --device-model selects
// what backs them (real files, RAM, or seeded fault injection), and
// --checksum-blocks adds a CRC32 trailer to every scratch block. With
// several devices, `solve` prints the per-device I/O breakdown and the
// critical-path (busiest-device) count.
//
// Every command rejects positional arguments beyond its usage line and
// flags the line does not list: both exit 2 with the usage text.
// Numeric arguments (memory_bytes, num_nodes, seed, --batch-size,
// --threads) are whole-string decimals: "4M", "1e5" or "x" exit 2 with
// a message naming the argument.
//
// Crash-safety knobs: `solve --checkpoint-dir=D` durably checkpoints
// every completed phase into D so a killed solve restarts from the last
// phase boundary with `--resume` (labels byte-identical to an unkilled
// run); `fsck` validates an artifact, its delta log, and optionally a
// checkpoint directory, repairing what is safely repairable (stale delta
// logs, orphaned *.tmp publishes, unusable checkpoint manifests); the
// global `--crash-at=[tag:]N` arms the seeded crash-point registry
// (io/crash_point.h) so a harness can kill the process deterministically
// at the Nth durability-relevant operation — the process dies with exit
// code 86, and the next run must recover.
//
// Text formats: edge lists are "u v" per line; label files are
// "node scc" per line. Both are read and written by graph_io's text pair
// codec (grammar and errors in graph/graph_io.h), which streams through
// read(2)/write(2), so pipes and /dev/stdout work as files.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/ext_scc.h"
#include "dyn/delta_log.h"
#include "dyn/dynamic_index.h"
#include "gen/classic_graphs.h"
#include "gen/rmat_generator.h"
#include "gen/synthetic_generator.h"
#include "gen/webgraph_generator.h"
#include "graph/disk_graph.h"
#include "graph/graph_io.h"
#include "graph/scc_file.h"
#include "io/crash_point.h"
#include "io/record_stream.h"
#include "io/storage.h"
#include "io/temp_file_manager.h"
#include "scc/condensation.h"
#include "scc/scc_verify.h"
#include "scc/semi_external_scc.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "serve/service.h"
#include "util/csv.h"
#include "util/status.h"

namespace {

using namespace extscc;

int Usage() {
  std::fprintf(
      stderr,
      "usage: extscc_tool [--sort-threads=0|1] [--scratch-dirs=a,b,...] "
      "[--device-model=MODEL] "
      "[--checksum-blocks] [--crash-at=[tag:]N] <command> ...\n"
      "  extscc_tool generate <web|massive|large|small|rmat|cycle|dag> "
      "<num_nodes> <out.txt> [seed]\n"
      "  extscc_tool solve [--checkpoint-dir=D] [--resume] "
      "<edges.txt> <labels_out.txt> [memory_bytes] [basic]\n"
      "  extscc_tool verify <edges.txt> <labels.txt>\n"
      "  extscc_tool condense <edges.txt> <dag_out.txt> "
      "[memory_bytes]\n"
      "  extscc_tool build-index <edges.txt> <artifact> [memory_bytes]\n"
      "  extscc_tool query [--batch-size=N] [--threads=N] "
      "<artifact> <batch.txt>\n"
      "  extscc_tool serve [--batch-size=N] [--threads=N] <artifact>\n"
      "  extscc_tool update [--batch-size=N] --index=<artifact> "
      "--edges=<edges.txt>\n"
      "  extscc_tool fsck [--checkpoint-dir=D] [--dry-run] <artifact>\n"
      "query protocol (one per line): same <u> <v> | reach <u> <v> | "
      "stat <u>; blank line flushes the batch\n"
      "device models:\n"
      "  posix (real files, the default) | mem (RAM) |\n"
      "  faulty[:key=value,...] — seeded fault injection on scratch I/O;\n"
      "    keys: seed=U64, rate=R (both directions), read_rate=R,\n"
      "    write_rate=R, short=R (torn transfers), corrupt=R (silent\n"
      "    bit flips; pair with --checksum-blocks to detect),\n"
      "    wfail_after=N / rfail_after=N (device dies persistently at\n"
      "    op N), tag=SUBSTR (only paths containing SUBSTR),\n"
      "    device=I (only scratch device I faults), inner=posix|mem\n"
      "exit codes:\n"
      "  0 success (verify: labels match; fsck: everything clean)\n"
      "  1 verify mismatch, or other non-status failure\n"
      "  2 usage error\n"
      "  3 invalid argument    4 not found\n"
      "  5 I/O error           6 resource exhausted (I/O budget)\n"
      "  7 failed precondition 8 data corruption detected\n"
      "  9 unimplemented      10 fsck found repairable damage\n"
      " 86 injected crash (--crash-at fired)\n");
  return 2;
}

// Maps each failure class to its documented exit code (see Usage) and
// reports the status on stderr. Distinct codes let a chaos harness
// assert on HOW a run failed — an injected I/O error (expected, exit 5)
// versus detected corruption (exit 8) versus a wrong answer (verify
// exit 1) — without parsing diagnostics.
int StatusExit(const util::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  switch (status.code()) {
    case util::StatusCode::kOk:
      return 0;
    case util::StatusCode::kInvalidArgument:
      return 3;
    case util::StatusCode::kNotFound:
      return 4;
    case util::StatusCode::kIoError:
      return 5;
    case util::StatusCode::kResourceExhausted:
      return 6;
    case util::StatusCode::kFailedPrecondition:
      return 7;
    case util::StatusCode::kCorruption:
      return 8;
    case util::StatusCode::kUnimplemented:
      return 9;
  }
  return 1;
}

// Global machine flags, parsed (and stripped) ahead of the command word.
io::IoContextOptions g_machine;

io::IoContext MakeContext(std::uint64_t memory_bytes) {
  io::IoContextOptions options = g_machine;
  options.block_size = 64 * 1024;
  options.memory_bytes =
      std::max<std::uint64_t>(memory_bytes, 2 * options.block_size);
  return io::IoContext(options);
}

// Per-device I/O breakdown + critical path for one phase (the deltas
// between two DeviceStats snapshots, so the rows sum to the phase's
// headline total and exclude import/read-back traffic), printed by
// `solve` whenever the machine has more than one scratch device or a
// non-posix backing.
void PrintDeviceBreakdown(
    const std::vector<io::IoContext::DeviceStatsRow>& before,
    const std::vector<io::IoContext::DeviceStatsRow>& after) {
  if (g_machine.scratch_dirs.size() <= 1 &&
      g_machine.device_model.model == io::DeviceModel::kPosix) {
    return;
  }
  std::string breakdown;
  std::uint64_t critical_path = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const std::uint64_t ios =
        (after[i].stats - before[i].stats).total_ios();
    if (ios == 0) continue;
    critical_path = std::max(critical_path, ios);
    if (!breakdown.empty()) breakdown += ", ";
    breakdown += after[i].name + "=" +
                 std::to_string(static_cast<unsigned long long>(ios));
  }
  std::printf("per-device I/Os: %s; critical path %llu\n", breakdown.c_str(),
              static_cast<unsigned long long>(critical_path));
}

// Splits a command's tail into positional arguments and `--flag=value`
// pairs the caller inspects one by one. Unknown flags are a usage
// error, reported by the caller.
struct CommandArgs {
  std::vector<std::string> positional;
  std::vector<std::string> flags;
};

CommandArgs SplitCommandArgs(int argc, char** argv) {
  CommandArgs out;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      out.flags.emplace_back(argv[i]);
    } else {
      out.positional.emplace_back(argv[i]);
    }
  }
  return out;
}

// The whole grammar of a command without flags of its own: no flags and
// `min`..`max` positional arguments.
bool PositionalOnly(const CommandArgs& args, std::size_t min,
                    std::size_t max) {
  return args.flags.empty() && args.positional.size() >= min &&
         args.positional.size() <= max;
}

bool FlagStringValue(const std::string& flag, const char* name,
                     std::string* value) {
  const std::size_t len = std::strlen(name);
  if (flag.compare(0, len, name) != 0 || flag.size() <= len ||
      flag[len] != '=') {
    return false;
  }
  *value = flag.substr(len + 1);
  return true;
}

// A numeric argument: the whole of `text` is a decimal in [min, max]
// (util::ParseDecimal). A bad value is reported naming the argument;
// the caller then exits 2.
bool ParseNumberArg(const char* name, const std::string& text,
                    std::uint64_t min, std::uint64_t max,
                    std::uint64_t* value) {
  if (util::ParseDecimal(text, max, value) && *value >= min) return true;
  std::fprintf(stderr, "bad %s \"%s\" (want a decimal integer %llu..%llu)\n",
               name, text.c_str(), static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  return false;
}

constexpr std::uint64_t kAnyU64 = ~std::uint64_t{0};

// The optional trailing memory_bytes positional of solve, condense and
// build-index (`fallback` when absent).
bool ParseMemoryArg(const std::vector<std::string>& positional,
                    std::size_t index, std::uint64_t fallback,
                    std::uint64_t* memory) {
  *memory = fallback;
  return positional.size() <= index ||
         ParseNumberArg("memory_bytes", positional[index], 0, kAnyU64,
                        memory);
}

int CmdGenerate(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  if (!PositionalOnly(args, 3, 4)) return Usage();
  const std::string& kind = args.positional[0];
  // Node ids are 32-bit with 0xffffffff reserved; every generator needs
  // two nodes.
  std::uint64_t n = 0;
  if (!ParseNumberArg("num_nodes", args.positional[1], 2, graph::kInvalidNode,
                      &n)) {
    return 2;
  }
  const std::string& out_path = args.positional[2];
  std::uint64_t seed = 1;
  if (args.positional.size() > 3 &&
      !ParseNumberArg("seed", args.positional[3], 0, kAnyU64, &seed)) {
    return 2;
  }
  auto context = MakeContext(64 << 20);

  graph::DiskGraph g;
  if (kind == "web") {
    gen::WebGraphParams params;
    params.num_nodes = n;
    params.seed = seed;
    g = gen::GenerateWebGraph(&context, params);
  } else if (kind == "massive" || kind == "large" || kind == "small") {
    gen::SyntheticParams params;
    if (kind == "massive") {
      params = gen::MassiveSccParams(n, 4.0, static_cast<std::uint32_t>(n / 250), seed);
    } else if (kind == "large") {
      params = gen::LargeSccParams(n, 4.0, 50,
                                   static_cast<std::uint32_t>(n / 125), seed);
    } else {
      params = gen::SmallSccParams(n, 4.0, static_cast<std::uint32_t>(n / 100),
                                   40, seed);
    }
    g = gen::GenerateSynthetic(&context, params);
  } else if (kind == "rmat") {
    gen::RmatParams params;
    params.num_nodes = n;
    params.num_edges = 4 * n;
    params.seed = seed;
    g = gen::GenerateRmat(&context, params);
  } else if (kind == "cycle") {
    g = graph::MakeDiskGraph(&context,
                             gen::CycleEdges(static_cast<std::uint32_t>(n)));
  } else if (kind == "dag") {
    g = graph::MakeDiskGraph(
        &context,
        gen::RandomDagEdges(static_cast<std::uint32_t>(n), 3 * n, seed));
  } else {
    return Usage();
  }
  const auto status = graph::SaveTextEdgeList(&context, g, out_path);
  if (!status.ok()) return StatusExit(status);
  std::printf("wrote %s: %s\n", out_path.c_str(), g.Describe().c_str());
  return 0;
}

int CmdSolve(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  std::string checkpoint_dir;
  bool resume = false;
  for (const std::string& flag : args.flags) {
    std::string text;
    if (FlagStringValue(flag, "--checkpoint-dir", &text)) {
      checkpoint_dir = text;
    } else if (flag == "--resume") {
      resume = true;
    } else {
      return Usage();
    }
  }
  if (args.positional.size() < 2 || args.positional.size() > 4) return Usage();
  if (resume && checkpoint_dir.empty()) return Usage();
  const std::string edges_path = args.positional[0];
  const std::string labels_path = args.positional[1];
  std::uint64_t memory = 0;
  if (!ParseMemoryArg(args.positional, 2, 4u << 20, &memory)) return 2;
  const bool basic = args.positional.size() > 3;
  if (basic && args.positional[3] != "basic") {
    std::fprintf(stderr, "bad mode \"%s\" (the only mode is basic)\n",
                 args.positional[3].c_str());
    return 2;
  }
  core::ExtSccOptions options = basic ? core::ExtSccOptions::Basic()
                                      : core::ExtSccOptions::Optimized();
  options.checkpoint_dir = checkpoint_dir;
  options.resume = resume;
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      return StatusExit(util::Status::IoError(
          "cannot create checkpoint directory " + checkpoint_dir + ": " +
          ec.message()));
    }
  }
  auto context = MakeContext(memory);
  auto loaded = graph::LoadTextEdgeList(&context, edges_path);
  if (!loaded.ok()) return StatusExit(loaded.status());
  const std::string scc_path = context.NewTempPath("scc");
  const auto dev_before = context.DeviceStats();
  auto result = core::RunExtScc(&context, loaded.value(), scc_path, options);
  const auto dev_after = context.DeviceStats();
  if (!result.ok()) return StatusExit(result.status());
  graph::TextPairWriter out(labels_path, context.block_size());
  io::RecordReader<graph::SccEntry> reader(&context, scc_path);
  graph::SccEntry entry;
  while (reader.Next(&entry)) out.Append(entry.node, entry.scc);
  // A read failure looks like EOF to the loop above; distinguish a
  // complete label file from a truncated one before reporting success.
  if (!reader.status().ok()) return StatusExit(reader.status());
  const util::Status written = out.Close();
  if (!written.ok()) return StatusExit(written);
  std::printf("%s: %llu SCCs, %u contraction levels, %llu I/Os, %.2fs\n",
              edges_path.c_str(),
              static_cast<unsigned long long>(result.value().num_sccs),
              result.value().num_levels(),
              static_cast<unsigned long long>(result.value().total_ios),
              result.value().total_seconds);
  PrintDeviceBreakdown(dev_before, dev_after);
  // Transient faults that the retry layer absorbed. Retries are not
  // model I/Os, so a fault-ridden-but-recovered solve prints the same
  // I/O count as a clean one — this line is the only trace it left.
  std::uint64_t read_retries = 0, write_retries = 0;
  for (std::size_t i = 0; i < dev_after.size(); ++i) {
    const io::IoStats delta = dev_after[i].stats - dev_before[i].stats;
    read_retries += delta.read_retries;
    write_retries += delta.write_retries;
  }
  if (read_retries + write_retries > 0) {
    std::printf("I/O retries absorbed: %llu reads, %llu writes\n",
                static_cast<unsigned long long>(read_retries),
                static_cast<unsigned long long>(write_retries));
  }
  // Durability work rides in its own counters (never model I/Os), so a
  // checkpointed run prints the same I/O line as a plain one plus this.
  const io::IoStats& totals = context.stats();
  if (totals.sync_calls + totals.checkpoint_writes + totals.checkpoint_reads >
      0) {
    std::printf(
        "durability: %llu fsyncs, %llu checkpoint writes, "
        "%llu checkpoint reads\n",
        static_cast<unsigned long long>(totals.sync_calls),
        static_cast<unsigned long long>(totals.checkpoint_writes),
        static_cast<unsigned long long>(totals.checkpoint_reads));
  }
  return 0;
}

int CmdVerify(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  if (!PositionalOnly(args, 2, 2)) return Usage();
  auto context = MakeContext(256 << 20);
  auto loaded = graph::LoadTextEdgeList(&context, args.positional[0]);
  if (!loaded.ok()) return StatusExit(loaded.status());
  // Parse the label file into an on-disk SCC file.
  const std::string scc_path = context.NewTempPath("labels");
  {
    graph::TextPairReader in(args.positional[1], context.block_size());
    const std::string staging = context.NewTempPath("labels_raw");
    io::RecordWriter<graph::SccEntry> writer(&context, staging);
    graph::SccEntry entry;
    while (in.Next(&entry.node, &entry.scc)) writer.Append(entry);
    if (!in.status().ok()) return StatusExit(in.status());
    writer.Finish();
    graph::SortSccFileByNode(&context, staging, scc_path);
  }
  std::string explanation;
  if (scc::VerifySccFile(&context, loaded.value(), scc_path, &explanation)) {
    std::puts("OK: labels match the oracle partition");
    return 0;
  }
  std::printf("MISMATCH: %s\n", explanation.c_str());
  return 1;
}

int CmdCondense(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  if (!PositionalOnly(args, 2, 3)) return Usage();
  std::uint64_t memory = 0;
  if (!ParseMemoryArg(args.positional, 2, 4u << 20, &memory)) return 2;
  auto context = MakeContext(memory);
  auto loaded = graph::LoadTextEdgeList(&context, args.positional[0]);
  if (!loaded.ok()) return StatusExit(loaded.status());
  const std::string scc_path = context.NewTempPath("scc");
  auto result = core::RunExtScc(&context, loaded.value(), scc_path,
                                core::ExtSccOptions::Optimized());
  if (!result.ok()) return StatusExit(result.status());
  const auto cond = scc::BuildCondensation(&context, loaded.value(),
                                           scc_path);
  const auto status =
      graph::SaveTextEdgeList(&context, cond.dag, args.positional[1]);
  if (!status.ok()) return StatusExit(status);
  std::printf("condensation: %s (from %s)\n", cond.dag.Describe().c_str(),
              loaded.value().Describe().c_str());
  return 0;
}

int CmdBuildIndex(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  if (!PositionalOnly(args, 2, 3)) return Usage();
  std::uint64_t memory = 0;
  if (!ParseMemoryArg(args.positional, 2, 64u << 20, &memory)) return 2;
  auto context = MakeContext(memory);
  auto loaded = graph::LoadTextEdgeList(&context, args.positional[0]);
  if (!loaded.ok()) return StatusExit(loaded.status());
  auto built =
      serve::BuildArtifact(&context, loaded.value(), args.positional[1]);
  if (!built.ok()) return StatusExit(built.status());
  const serve::ArtifactSummary& s = built.value().summary;
  std::printf(
      "built %s: %llu nodes, %llu SCCs, dag %llu/%llu, "
      "%u label rounds, solve %llu I/Os\n",
      args.positional[1].c_str(),
      static_cast<unsigned long long>(s.graph_nodes),
      static_cast<unsigned long long>(s.num_sccs),
      static_cast<unsigned long long>(s.dag_nodes),
      static_cast<unsigned long long>(s.dag_edges),
      s.num_label_rounds,
      static_cast<unsigned long long>(built.value().solve_stats.total_ios));
  std::printf("bow-tie: core=%llu in=%llu out=%llu other=%llu\n",
              static_cast<unsigned long long>(s.core_size),
              static_cast<unsigned long long>(s.in_size),
              static_cast<unsigned long long>(s.out_size),
              static_cast<unsigned long long>(s.other_size));
  return 0;
}

// Shared by `query` and `serve`: run one accumulated batch, print the
// answers in input order, fold the batch stats into the session totals.
// On failure the batch is left intact so serve's refresh-and-retry can
// re-run it against a reopened artifact.
util::Status RunOneBatch(io::IoContext* context,
                         const serve::QueryEngine& engine,
                         std::size_t threads, std::vector<serve::Query>* batch,
                         serve::QueryBatchStats* totals,
                         std::uint64_t* num_batches) {
  if (batch->empty()) return util::Status::Ok();
  std::vector<serve::QueryAnswer> answers;
  RETURN_IF_ERROR(
      serve::RunQueries(context, engine, *batch, threads, &answers, totals));
  for (std::size_t i = 0; i < batch->size(); ++i) {
    std::printf("%s\n",
                serve::FormatAnswer((*batch)[i], answers[i]).c_str());
  }
  batch->clear();
  ++*num_batches;
  return util::Status::Ok();
}

int FlushBatch(io::IoContext* context, const serve::QueryEngine& engine,
               std::size_t threads, std::vector<serve::Query>* batch,
               serve::QueryBatchStats* totals, std::uint64_t* num_batches) {
  const util::Status status =
      RunOneBatch(context, engine, threads, batch, totals, num_batches);
  return status.ok() ? 0 : StatusExit(status);
}

void PrintBatchStats(const serve::QueryBatchStats& totals,
                     std::uint64_t num_batches) {
  std::fprintf(stderr,
               "batches=%llu queries=%llu probes=%llu unknown=%llu "
               "swept_blocks=%llu spill_runs=%llu dfs_fallbacks=%llu\n",
               static_cast<unsigned long long>(num_batches),
               static_cast<unsigned long long>(totals.queries),
               static_cast<unsigned long long>(totals.probes),
               static_cast<unsigned long long>(totals.unknown_nodes),
               static_cast<unsigned long long>(totals.swept_blocks),
               static_cast<unsigned long long>(totals.probe_spill_runs),
               static_cast<unsigned long long>(totals.labels.dfs_fallbacks));
}

struct ServeFlags {
  std::uint64_t batch_size = 4096;
  std::uint64_t threads = 1;
  // 0 = parsed; else the exit code (a usage error or a bad value).
  int exit_code = 0;
};

ServeFlags ParseServeFlags(const std::vector<std::string>& flags) {
  ServeFlags out;
  for (const std::string& flag : flags) {
    std::string text;
    if (FlagStringValue(flag, "--batch-size", &text)) {
      if (!ParseNumberArg("--batch-size", text, 1, kAnyU64,
                          &out.batch_size)) {
        out.exit_code = 2;
      }
    } else if (FlagStringValue(flag, "--threads", &text)) {
      if (!ParseNumberArg("--threads", text, 0, 1024, &out.threads)) {
        out.exit_code = 2;
      }
    } else {
      out.exit_code = Usage();
    }
    if (out.exit_code != 0) break;
  }
  return out;
}

// Sets *line to the next query line of `in` (a batch file or serve's
// stdin) without its '\n'. False at the end of the input and on a failed
// read (a directory given as input), which std::getline cannot tell
// apart; a failed read also sets *error to kIoError naming `name`.
bool NextQueryLine(std::FILE* in, const std::string& name, std::string* line,
                   util::Status* error) {
  line->clear();
  int c;
  while ((c = std::getc(in)) != EOF && c != '\n') {
    line->push_back(static_cast<char>(c));
  }
  if (c != EOF) return true;
  if (std::ferror(in)) {
    const int err = errno;
    *error = util::Status::IoError(
        "read(" + name + ") failed: " + std::strerror(err), err);
    return false;
  }
  return !line->empty();
}

int CmdQuery(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  const ServeFlags flags = ParseServeFlags(args.flags);
  if (flags.exit_code != 0) return flags.exit_code;
  if (args.positional.size() != 2) return Usage();
  auto context = MakeContext(64 << 20);
  auto opened = serve::ArtifactReader::Open(&context, args.positional[0]);
  if (!opened.ok()) return StatusExit(opened.status());
  const serve::ArtifactReader artifact = std::move(opened).value();
  const serve::QueryEngine engine(&artifact);

  // The batch file follows the user-text error map: a file that cannot
  // be opened is kNotFound, a failed read (a directory) kIoError, never
  // an empty batch file.
  const std::string& batch_path = args.positional[1];
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> in(
      std::fopen(batch_path.c_str(), "r"), &std::fclose);
  if (in == nullptr) {
    return StatusExit(util::Status::NotFound(
        "cannot open " + batch_path + ": " + std::strerror(errno)));
  }
  std::vector<serve::Query> batch;
  serve::QueryBatchStats totals;
  std::uint64_t num_batches = 0;
  std::string line;
  std::uint64_t line_number = 0;
  util::Status read_error;
  while (NextQueryLine(in.get(), batch_path, &line, &read_error)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      // Blank line: explicit batch boundary.
      const int rc = FlushBatch(&context, engine, flags.threads, &batch,
                                &totals, &num_batches);
      if (rc != 0) return rc;
      continue;
    }
    serve::Query query;
    if (!serve::ParseQueryLine(line, &query)) {
      return StatusExit(util::Status::InvalidArgument(
          batch_path + ":" + std::to_string(line_number) +
          ": malformed query: " + line));
    }
    batch.push_back(query);
    if (batch.size() >= flags.batch_size) {
      const int rc = FlushBatch(&context, engine, flags.threads, &batch,
                                &totals, &num_batches);
      if (rc != 0) return rc;
    }
  }
  if (!read_error.ok()) return StatusExit(read_error);
  const int rc = FlushBatch(&context, engine, flags.threads, &batch,
                            &totals, &num_batches);
  if (rc != 0) return rc;
  PrintBatchStats(totals, num_batches);
  return 0;
}

int CmdServe(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  const ServeFlags flags = ParseServeFlags(args.flags);
  if (flags.exit_code != 0) return flags.exit_code;
  if (args.positional.size() != 1) return Usage();
  auto context = MakeContext(64 << 20);
  const std::string source = args.positional[0];

  // The live artifact: reopened whenever an `update` publishes a new
  // data version at the source path. The engine borrows the reader, so
  // both rebuild together.
  std::optional<serve::ArtifactReader> artifact;
  std::optional<serve::QueryEngine> engine;
  const auto open_live = [&]() -> util::Status {
    auto opened = serve::ArtifactReader::Open(&context, source);
    RETURN_IF_ERROR(opened.status());
    engine.reset();
    artifact.emplace(std::move(opened).value());
    engine.emplace(&*artifact);
    return util::Status::Ok();
  };
  const util::Status first_open = open_live();
  if (!first_open.ok()) return StatusExit(first_open);
  std::fprintf(stderr, "serving %s: %llu nodes, %llu SCCs, data version %llu\n",
               source.c_str(),
               static_cast<unsigned long long>(
                   artifact->summary().graph_nodes),
               static_cast<unsigned long long>(artifact->summary().num_sccs),
               static_cast<unsigned long long>(artifact->data_version()));

  const auto note_reloaded = [&]() {
    std::fprintf(stderr,
                 "reloaded %s: data version %llu, %llu nodes, %llu SCCs\n",
                 source.c_str(),
                 static_cast<unsigned long long>(artifact->data_version()),
                 static_cast<unsigned long long>(
                     artifact->summary().graph_nodes),
                 static_cast<unsigned long long>(
                     artifact->summary().num_sccs));
  };
  // Refresh protocol (docs/serving.md): at batch boundaries peek the
  // SOURCE preamble's data version — one block read — and reopen on a
  // bump. Publication is an atomic rename, so the peek sees either the
  // old complete version or the new complete version, never a torn
  // file. Any refresh failure keeps the current artifact serving.
  const auto maybe_refresh = [&]() {
    auto version = serve::PeekArtifactVersion(&context, source);
    if (!version.ok() || version.value() == artifact->data_version()) return;
    const util::Status reopened = open_live();
    if (reopened.ok()) {
      note_reloaded();
    } else {
      std::fprintf(stderr, "refresh of %s failed (%s); still serving "
                           "data version %llu\n",
                   source.c_str(), reopened.ToString().c_str(),
                   static_cast<unsigned long long>(artifact->data_version()));
    }
  };

  std::vector<serve::Query> batch;
  serve::QueryBatchStats totals;
  std::uint64_t num_batches = 0;
  // The refresh peek runs BEFORE the batch, but an update can still
  // publish mid-sweep (the map scanner reopens the source by path, so
  // the old CRC table meets new bytes and the sweep reports
  // corruption). That failure is the swap itself: reopen the artifact
  // and retry the batch once before treating it as real corruption.
  const auto flush = [&]() -> int {
    maybe_refresh();
    util::Status status = RunOneBatch(&context, *engine, flags.threads,
                                      &batch, &totals, &num_batches);
    if (status.code() == util::StatusCode::kCorruption) {
      const util::Status reopened = open_live();
      if (reopened.ok()) {
        note_reloaded();
        status = RunOneBatch(&context, *engine, flags.threads, &batch,
                             &totals, &num_batches);
      }
    }
    return status.ok() ? 0 : StatusExit(status);
  };
  std::string line;
  util::Status read_error;
  while (NextQueryLine(stdin, "stdin", &line, &read_error)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      const int rc = flush();
      if (rc != 0) return rc;
      std::fflush(stdout);
      continue;
    }
    serve::Query query;
    if (!serve::ParseQueryLine(line, &query)) {
      // Interactive loop: a typo must not kill the server. Echo the
      // offending line and keep accumulating.
      std::printf("error %s\n", line.c_str());
      std::fflush(stdout);
      continue;
    }
    batch.push_back(query);
    if (batch.size() >= flags.batch_size) {
      const int rc = flush();
      if (rc != 0) return rc;
      std::fflush(stdout);
    }
  }
  if (!read_error.ok()) return StatusExit(read_error);
  const int rc = flush();
  if (rc != 0) return rc;
  std::fflush(stdout);
  PrintBatchStats(totals, num_batches);
  return 0;
}

int CmdUpdate(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  std::string index_path, edges_path;
  std::uint64_t batch_size = 65536;
  for (const std::string& flag : args.flags) {
    std::string text;
    if (FlagStringValue(flag, "--index", &text)) {
      index_path = text;
    } else if (FlagStringValue(flag, "--edges", &text)) {
      edges_path = text;
    } else if (FlagStringValue(flag, "--batch-size", &text)) {
      if (!ParseNumberArg("--batch-size", text, 1, kAnyU64, &batch_size)) {
        return 2;
      }
    } else {
      return Usage();
    }
  }
  if (index_path.empty() || edges_path.empty() || !args.positional.empty()) {
    return Usage();
  }
  auto context = MakeContext(64 << 20);
  auto opened = dyn::DynamicSccIndex::Open(&context, index_path);
  if (!opened.ok()) return StatusExit(opened.status());
  dyn::DynamicSccIndex index = std::move(opened).value();
  graph::TextPairReader in(edges_path, context.block_size());

  std::vector<graph::Edge> batch;
  std::uint64_t total_edges = 0, total_ios = 0, rewrites = 0,
                num_batches = 0;
  const auto flush = [&]() -> int {
    if (batch.empty()) return 0;
    auto applied = index.ApplyBatch(batch);
    if (!applied.ok()) return StatusExit(applied.status());
    const dyn::UpdateBatchStats& s = applied.value();
    ++num_batches;
    total_edges += s.edges_in;
    total_ios += s.batch_ios;
    if (s.rewrote_artifact) ++rewrites;
    std::fprintf(stderr,
                 "batch %llu: %llu edges (%llu intra, %llu dup-dag, "
                 "%llu new-dag, %llu new nodes, %llu merges), %s, "
                 "%llu I/Os, version %llu\n",
                 static_cast<unsigned long long>(num_batches),
                 static_cast<unsigned long long>(s.edges_in),
                 static_cast<unsigned long long>(s.intra_scc),
                 static_cast<unsigned long long>(s.duplicate_dag),
                 static_cast<unsigned long long>(s.new_dag_edges),
                 static_cast<unsigned long long>(s.new_nodes),
                 static_cast<unsigned long long>(s.merge_groups),
                 s.rewrote_artifact ? "rewrote artifact" : "delta log",
                 static_cast<unsigned long long>(s.batch_ios),
                 static_cast<unsigned long long>(s.published_version));
    batch.clear();
    return 0;
  };
  graph::Edge edge;
  while (in.Next(&edge.src, &edge.dst)) {
    batch.push_back(edge);
    if (batch.size() >= batch_size) {
      const int rc = flush();
      if (rc != 0) return rc;
    }
  }
  // A bad line fails the batch that holds it before it is applied;
  // batches already published stay.
  if (!in.status().ok()) return StatusExit(in.status());
  const int rc = flush();
  if (rc != 0) return rc;
  std::printf(
      "updated %s: %llu edges in %llu batches, %llu rewrites, "
      "data version %llu, %llu pending delta edges, %llu I/Os\n",
      index_path.c_str(), static_cast<unsigned long long>(total_edges),
      static_cast<unsigned long long>(num_batches),
      static_cast<unsigned long long>(rewrites),
      static_cast<unsigned long long>(index.data_version()),
      static_cast<unsigned long long>(index.pending_delta_edges()),
      static_cast<unsigned long long>(total_ios));
  return 0;
}

// fsck: offline consistency check + repair of the serving state for one
// artifact. Checks, in order: the artifact itself (full Open — preamble,
// footer, section checksums — plus a CRC-verified sweep of the node→SCC
// map), orphaned "*.tmp" publishes beside it (a publisher killed between
// write and rename), the delta log (a stale one is deleted, a damaged
// one exits 8), and optionally a checkpoint directory (a manifest that
// is corrupt or references missing files is removed so the next
// --resume falls back to a fresh run). Exit codes:
// 0 everything clean, 10 repairable damage found (repaired unless
// --dry-run), otherwise the failure's usual status exit (a torn
// ARTIFACT is unrecoverable by design — rebuild or re-publish — and
// exits 8).
int CmdFsck(int argc, char** argv) {
  const CommandArgs args = SplitCommandArgs(argc, argv);
  std::string checkpoint_dir;
  bool dry_run = false;
  for (const std::string& flag : args.flags) {
    std::string text;
    if (FlagStringValue(flag, "--checkpoint-dir", &text)) {
      checkpoint_dir = text;
    } else if (flag == "--dry-run") {
      dry_run = true;
    } else {
      return Usage();
    }
  }
  if (args.positional.size() != 1) return Usage();
  const std::string artifact_path = args.positional[0];
  auto context = MakeContext(64 << 20);
  bool damage = false;

  const auto file_exists = [&](const std::string& path) {
    std::unique_ptr<io::StorageFile> f;
    return context.ResolveDevice(path)->Open(path, io::OpenMode::kRead, &f)
        .ok();
  };
  const auto reap = [&](const std::string& path, const char* what) {
    if (!file_exists(path)) return;
    damage = true;
    if (dry_run) {
      std::printf("fsck: %s: orphaned %s (would remove)\n", path.c_str(),
                  what);
    } else {
      (void)context.ResolveDevice(path)->Delete(path);
      std::printf("fsck: %s: orphaned %s removed\n", path.c_str(), what);
    }
  };

  // 1. The artifact. Open validates preamble/footer/section checksums
  // and loads the resident sections; the sweep re-reads every node→SCC
  // block against its CRC. A missing artifact is exactly what a crash
  // BEFORE the publish rename leaves behind: reap the stranded .tmp
  // (that is the only damage) and report not-found, so a harness can
  // tell "never published" (4/10) from "published but sick" (5/8).
  if (!file_exists(artifact_path)) {
    reap(artifact_path + ".tmp", "artifact publish");
    reap(dyn::DeltaLogPathFor(artifact_path) + ".tmp", "delta log publish");
    if (damage) {
      std::printf(dry_run ? "fsck: repairable damage found (dry run)\n"
                          : "fsck: damage repaired\n");
      return 10;
    }
    return StatusExit(
        util::Status::NotFound(artifact_path + ": no artifact"));
  }
  auto opened = serve::ArtifactReader::Open(&context, artifact_path);
  if (!opened.ok()) return StatusExit(opened.status());
  const serve::ArtifactReader& artifact = opened.value();
  {
    serve::SccMapScanner scan = artifact.OpenNodeSccScan();
    graph::SccEntry entry;
    std::uint64_t entries = 0;
    while (scan.Next(&entry)) ++entries;
    if (!scan.status().ok()) return StatusExit(scan.status());
    if (entries != artifact.summary().graph_nodes) {
      return StatusExit(util::Status::Corruption(
          artifact_path + ": node->SCC map holds " + std::to_string(entries) +
          " entries, summary says " +
          std::to_string(artifact.summary().graph_nodes)));
    }
    std::printf("fsck: %s: OK (data version %llu, %llu nodes, %llu SCCs)\n",
                artifact_path.c_str(),
                static_cast<unsigned long long>(artifact.data_version()),
                static_cast<unsigned long long>(
                    artifact.summary().graph_nodes),
                static_cast<unsigned long long>(artifact.summary().num_sccs));
  }

  // 2. Orphaned tmp publishes beside the artifact.
  const std::string dlog_path = dyn::DeltaLogPathFor(artifact_path);
  reap(artifact_path + ".tmp", "artifact publish");
  reap(dlog_path + ".tmp", "delta log publish");

  // 3. The delta log: a pending-edge count that is only ever replaced
  // whole, so a damaged one is corruption, never repaired here.
  {
    auto log = dyn::ReadDeltaLog(&context, dlog_path,
                                 artifact.data_version());
    if (!log.ok()) return StatusExit(log.status());
    if (!log.value().exists) {
      std::printf("fsck: %s: no delta log (nothing pending)\n",
                  dlog_path.c_str());
    } else if (log.value().stale) {
      damage = true;
      if (dry_run) {
        std::printf("fsck: %s: stale (edges already folded into the "
                    "artifact; would remove)\n", dlog_path.c_str());
      } else {
        dyn::RemoveDeltaLog(&context, dlog_path);
        std::printf("fsck: %s: stale log removed\n", dlog_path.c_str());
      }
    } else {
      std::printf("fsck: %s: OK (%llu pending edges)\n", dlog_path.c_str(),
                  static_cast<unsigned long long>(
                      log.value().pending_edges));
    }
  }

  // 4. The checkpoint directory. The manifest's data version binds it
  // to a solve, not to this artifact, so fsck validates structure only.
  if (!checkpoint_dir.empty()) {
    core::CheckpointSession ckpt(&context, checkpoint_dir, 0);
    reap(ckpt.ManifestPath() + ".tmp", "checkpoint manifest publish");
    auto loaded = ckpt.Load();
    if (loaded.ok()) {
      std::printf("fsck: %s: OK (phase %u, %llu levels, %llu expansions)\n",
                  checkpoint_dir.c_str(), loaded.value().phase,
                  static_cast<unsigned long long>(loaded.value().levels_done),
                  static_cast<unsigned long long>(loaded.value().expand_done));
    } else if (loaded.status().code() == util::StatusCode::kNotFound) {
      std::printf("fsck: %s: no checkpoint manifest\n",
                  checkpoint_dir.c_str());
    } else {
      // Corrupt manifest or missing/resized files: not resumable. The
      // safe repair is to drop the manifest so the next solve starts
      // fresh instead of refusing forever.
      damage = true;
      if (dry_run) {
        std::printf("fsck: %s: unusable checkpoint (%s); would remove "
                    "manifest\n", checkpoint_dir.c_str(),
                    loaded.status().ToString().c_str());
      } else {
        (void)context.ResolveDevice(ckpt.ManifestPath())
            ->Delete(ckpt.ManifestPath());
        std::printf("fsck: %s: unusable checkpoint (%s); manifest removed\n",
                    checkpoint_dir.c_str(),
                    loaded.status().ToString().c_str());
      }
    }
  }

  if (!damage) {
    std::printf("fsck: clean\n");
    return 0;
  }
  std::printf(dry_run ? "fsck: repairable damage found (dry run)\n"
                      : "fsck: damage repaired\n");
  return 10;
}

}  // namespace

int main(int argc, char** argv) {
  // An interrupted run (Ctrl-C, job-queue SIGTERM) must not leave
  // gigabytes of scratch runs behind: the handler removes every live
  // filesystem session root before exiting with 128+signo.
  io::InstallScratchSignalCleanup();
  // Strip leading global flags so the Cmd* handlers keep their
  // positional argv layout.
  int first = 1;
  while (first < argc && std::strncmp(argv[first], "--", 2) == 0) {
    if (std::strcmp(argv[first], "--checksum-blocks") == 0) {
      g_machine.checksum_blocks = true;
    } else if (std::strncmp(argv[first], "--crash-at=", 11) == 0) {
      io::CrashSpec spec;
      const std::string error = io::ParseCrashSpec(argv[first] + 11, &spec);
      if (!error.empty()) {
        std::fprintf(stderr, "--crash-at: %s\n", error.c_str());
        return 2;
      }
      io::ArmCrashPoint(spec);
    } else {
      const std::string error = io::ParseMachineFlag(argv[first], &g_machine);
      if (!error.empty()) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return Usage();
      }
    }
    ++first;
  }
  const std::string error = io::ValidateMachineOptions(g_machine);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  for (int i = first; i < argc; ++i) argv[i - first + 1] = argv[i];
  argc -= first - 1;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "solve") return CmdSolve(argc, argv);
  if (command == "verify") return CmdVerify(argc, argv);
  if (command == "condense") return CmdCondense(argc, argv);
  if (command == "build-index") return CmdBuildIndex(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "update") return CmdUpdate(argc, argv);
  if (command == "fsck") return CmdFsck(argc, argv);
  return Usage();
}
