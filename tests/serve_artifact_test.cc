// Serve-artifact durability: the on-disk format round-trips the full
// solve byte for byte, rejects foreign/corrupt/truncated files with
// typed errors, and — the load-bearing claim — NO injected bit flip,
// device fault or value forged under valid checksums ever surfaces as a
// wrong query answer or an abort. Detection (kCorruption) or a correct
// answer are the only allowed outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_scc.h"
#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/checksum.h"
#include "io/record_stream.h"
#include "io/storage.h"
#include "serve/artifact.h"
#include "serve/artifact_format.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace extscc {
namespace {

namespace fs = std::filesystem;
using graph::Edge;
using graph::NodeId;
using graph::SccEntry;
using serve::ArtifactReader;
using serve::Query;
using serve::QueryAnswer;
using serve::QueryType;
using testing::MakeTestContext;

// One built artifact + its ground truth, shared by the corruption
// sweeps. The graph is small but spans many 4K blocks, so flips land in
// every region (preamble, payload, meta, footer).
struct BuiltArtifact {
  // The directory holding the artifact and every copy a test makes of
  // it (testing::ScopedTempPath). Declared first, so it is removed
  // last, with everything in it.
  std::unique_ptr<testing::ScopedTempPath> dir;
  std::unique_ptr<io::IoContext> context;
  std::string path;
  std::vector<Edge> edges;
  std::vector<SccEntry> solver_labels;  // reference node→SCC map

  // A file beside the artifact, removed with it.
  std::string PathFor(const std::string& name) const {
    return (fs::path(dir->path()) / name).string();
  }
};

BuiltArtifact BuildTestArtifact(std::vector<Edge> edges,
                                const std::vector<NodeId>& extra_nodes = {},
                                std::size_t block_size = 4096) {
  BuiltArtifact out;
  out.context = MakeTestContext(4 << 20, block_size);
  out.edges = std::move(edges);
  const auto g =
      graph::MakeDiskGraph(out.context.get(), out.edges, extra_nodes);
  // The artifact is a user-facing file: a real filesystem path on the
  // base device, NOT a scratch path (virtual under the mem test
  // matrix), so the corruption sweeps can patch its bytes with
  // ordinary file ops.
  out.dir = std::make_unique<testing::ScopedTempPath>("artifact");
  fs::create_directories(out.dir->path());
  out.path = out.PathFor("graph.art");
  auto built = serve::BuildArtifact(out.context.get(), g, out.path);
  EXPECT_TRUE(built.ok()) << built.status().ToString();

  // Independent reference solve, canonicalized the way build-index does
  // (labels rewritten dense-by-first-occurrence in node order) — the
  // artifact's map section must match these bytes exactly.
  const std::string scc_path = out.context->NewTempPath("ref_scc");
  auto solved = core::RunExtScc(out.context.get(), g, scc_path,
                                core::ExtSccOptions::Optimized());
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();
  out.solver_labels =
      io::ReadAllRecords<SccEntry>(out.context.get(), scc_path);
  std::vector<graph::SccId> canon;
  graph::SccId next = 0;
  for (SccEntry& e : out.solver_labels) {
    while (canon.size() <= e.scc) canon.push_back(graph::kInvalidScc);
    if (canon[e.scc] == graph::kInvalidScc) canon[e.scc] = next++;
    e.scc = canon[e.scc];
  }
  return out;
}

BuiltArtifact BuildTestArtifact(std::uint32_t nodes, std::uint64_t num_edges,
                                std::uint64_t seed) {
  return BuildTestArtifact(gen::RandomDigraphEdges(nodes, num_edges, seed));
}

// Every node queried once (stat + a reach against a fixed pivot): a
// batch that forces the sweep to cover the whole map section, so a
// payload flip cannot hide behind early exit.
std::vector<Query> FullCoverageQueries(const BuiltArtifact& built) {
  std::vector<Query> queries;
  for (const SccEntry& e : built.solver_labels) {
    queries.push_back({QueryType::kSccStat, e.node, 0});
    queries.push_back({QueryType::kReachable, e.node,
                       built.solver_labels.front().node});
  }
  return queries;
}

// ---- Round trip ------------------------------------------------------

TEST(ServeArtifactTest, RoundTripMatchesSolveAndOracle) {
  auto built = BuildTestArtifact(600, 2400, 11);
  auto opened = ArtifactReader::Open(built.context.get(), built.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ArtifactReader reader = std::move(opened).value();

  // The map section is the canonicalized solver output, byte for byte
  // and in node order.
  serve::SccMapScanner scan = reader.OpenNodeSccScan();
  std::vector<SccEntry> from_artifact;
  SccEntry entry;
  while (scan.Next(&entry)) from_artifact.push_back(entry);
  ASSERT_TRUE(scan.status().ok()) << scan.status().ToString();
  ASSERT_EQ(from_artifact.size(), built.solver_labels.size());
  for (std::size_t i = 0; i < from_artifact.size(); ++i) {
    EXPECT_EQ(from_artifact[i].node, built.solver_labels[i].node);
    EXPECT_EQ(from_artifact[i].scc, built.solver_labels[i].scc);
  }

  // Summary and per-SCC sizes against the in-memory oracle.
  const auto oracle = testing::Oracle(built.edges);
  const auto oracle_sizes = oracle.SortedComponentSizes();
  EXPECT_EQ(reader.num_sccs(), oracle_sizes.size());
  EXPECT_EQ(reader.summary().num_sccs, oracle_sizes.size());
  EXPECT_EQ(reader.summary().graph_nodes, built.solver_labels.size());
  EXPECT_EQ(reader.summary().largest_scc_size, oracle.LargestComponent());
  std::vector<std::uint64_t> artifact_sizes;
  std::uint64_t singletons = 0, total = 0;
  for (std::uint64_t s = 0; s < reader.num_sccs(); ++s) {
    const std::uint64_t size =
        reader.scc_size(static_cast<graph::SccId>(s));
    artifact_sizes.push_back(size);
    if (size == 1) ++singletons;
    total += size;
  }
  std::sort(artifact_sizes.begin(), artifact_sizes.end(),
            std::greater<std::uint64_t>());
  EXPECT_EQ(artifact_sizes, oracle_sizes);
  EXPECT_EQ(reader.summary().num_singletons, singletons);
  EXPECT_EQ(total, built.solver_labels.size());

  // Bow-tie sections partition the graph.
  ASSERT_EQ(reader.summary().bowtie_computed, 1u);
  EXPECT_EQ(reader.summary().core_size, oracle.LargestComponent());
  EXPECT_EQ(reader.summary().core_size + reader.summary().in_size +
                reader.summary().out_size + reader.summary().other_size,
            reader.summary().graph_nodes);
}

TEST(ServeArtifactTest, EmptyAndTinyGraphs) {
  auto context = MakeTestContext(2 << 20);
  // Empty graph: nothing to serve; a typed error, not a crash or a
  // zero-section artifact that fails at Open.
  {
    const auto g = graph::MakeDiskGraph(context.get(), {});
    auto built = serve::BuildArtifact(
        context.get(), g, context->NewTempPath("empty_art"));
    EXPECT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), util::StatusCode::kInvalidArgument);
  }
  // Two-node cycle: the smallest real artifact round-trips.
  {
    const auto g = graph::MakeDiskGraph(context.get(), gen::CycleEdges(2));
    const std::string path = context->NewTempPath("tiny_art");
    auto built = serve::BuildArtifact(context.get(), g, path);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto opened = ArtifactReader::Open(context.get(), path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value().num_sccs(), 1u);
    EXPECT_EQ(opened.value().scc_size(0), 2u);
  }
}

// ---- Typed rejection -------------------------------------------------

void PatchBytes(const std::string& path, std::uint64_t offset,
                const void* data, std::size_t n) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  ASSERT_TRUE(f.good());
}

TEST(ServeArtifactTest, RejectsForeignAndDamagedHeaders) {
  auto built = BuildTestArtifact(200, 800, 5);
  auto* ctx = built.context.get();
  const std::uint64_t size = fs::file_size(built.path);

  int copy_seq = 0;
  const auto copy_to = [&](const char* tag) {
    const std::string copy = built.PathFor(
        std::string(tag) + "_" + std::to_string(copy_seq++) + ".art");
    fs::copy_file(built.path, copy,
                  fs::copy_options::overwrite_existing);
    return copy;
  };

  // Not an artifact at all (wrong magic): the CRC over the preamble
  // fails first, so this is corruption, not a version complaint.
  {
    const std::string path = copy_to("wrong_magic");
    PatchBytes(path, 0, "NOTANART", 8);
    auto opened = ArtifactReader::Open(ctx, path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), util::StatusCode::kCorruption);
  }

  // A well-formed artifact from the FUTURE: version bumped and the
  // preamble CRC recomputed so it is internally consistent. That is not
  // corruption — it is a file this build does not speak.
  {
    const std::string path = copy_to("future_version");
    serve::ArtifactPreamble preamble{};
    {
      std::ifstream f(path, std::ios::binary);
      f.read(reinterpret_cast<char*>(&preamble), sizeof(preamble));
      ASSERT_TRUE(f.good());
    }
    preamble.format_version = serve::kArtifactFormatVersion + 1;
    preamble.crc = io::Crc32(&preamble, sizeof(preamble) - sizeof(uint32_t));
    PatchBytes(path, 0, &preamble, sizeof(preamble));
    auto opened = ArtifactReader::Open(ctx, path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
  }

  // Truncations: to a non-block multiple, by whole blocks (footer
  // gone), and to a stub shorter than the minimum geometry.
  for (const std::uint64_t new_size :
       {size - 1, size - 4096, std::uint64_t{4096}, std::uint64_t{0}}) {
    const std::string path = copy_to("truncated");
    fs::resize_file(path, new_size);
    auto opened = ArtifactReader::Open(ctx, path);
    ASSERT_FALSE(opened.ok()) << "size " << new_size;
    EXPECT_EQ(opened.status().code(), util::StatusCode::kCorruption)
        << "size " << new_size << ": " << opened.status().ToString();
  }

  // Missing file keeps its errno-typed code (not corruption).
  {
    auto opened = ArtifactReader::Open(ctx, ctx->NewTempPath("never"));
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().code(), util::StatusCode::kCorruption);
  }
}

// ---- Forged values under valid checksums ------------------------------

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f), {});
}

// Rewrites the records of section `id` in the artifact at `path` through
// `edit`, then recomputes the CRC-table entries of the blocks it spans,
// the meta CRC and the footer CRC: every checksum in the result is
// valid, and only the section's values are forged.
template <typename T>
void ForgeSection(const std::string& path, std::size_t bs,
                  serve::SectionId id,
                  const std::function<void(std::vector<T>*)>& edit) {
  std::vector<char> bytes = FileBytes(path);
  ASSERT_GE(bytes.size(), 2 * bs);
  serve::ArtifactFooter footer;
  char* footer_at = bytes.data() + bytes.size() - bs;
  std::memcpy(&footer, footer_at, sizeof(footer));
  char* meta = bytes.data() + footer.meta_first_block * bs;
  char* crc_table =
      meta + footer.num_sections * sizeof(serve::ArtifactSectionEntry);
  serve::ArtifactSectionEntry entry{};
  for (std::uint32_t i = 0; i < footer.num_sections; ++i) {
    std::memcpy(&entry, meta + i * sizeof(entry), sizeof(entry));
    if (entry.id == static_cast<std::uint32_t>(id)) break;
  }
  ASSERT_EQ(entry.id, static_cast<std::uint32_t>(id));
  ASSERT_EQ(entry.record_size, sizeof(T));

  char* payload = bytes.data() + entry.first_block * bs;
  std::vector<T> records(entry.record_count);
  std::memcpy(records.data(), payload, entry.payload_bytes);
  edit(&records);
  ASSERT_EQ(records.size(), entry.record_count);
  std::memcpy(payload, records.data(), entry.payload_bytes);

  const std::uint64_t blocks = (entry.payload_bytes + bs - 1) / bs;
  for (std::uint64_t b = entry.first_block; b < entry.first_block + blocks;
       ++b) {
    const std::uint32_t crc = io::Crc32(bytes.data() + b * bs, bs);
    std::memcpy(crc_table + (b - 1) * sizeof(crc), &crc, sizeof(crc));
  }
  footer.meta_crc = io::Crc32(meta, footer.meta_bytes);
  footer.crc = io::Crc32(&footer, sizeof(footer) - sizeof(std::uint32_t));
  std::memcpy(footer_at, &footer, sizeof(footer));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// A CRC-valid map whose labels or node order lie: Open accepts it (it
// never reads the map), but every reader of the map — a query batch and
// Publish's sweep — reports kCorruption instead of aborting on an
// out-of-range label or answering `unknown` for a labelled node, and a
// refused publish leaves the live artifact as it was. Record B/8 is the
// first one past block 1's 4096 bytes: at B = 4100 it straddles blocks
// 1 and 2, so the scanner's carry across a block boundary is checked
// too.
TEST(ServeArtifactTest, ForgedMapRecordsAreCorruption) {
  for (const std::size_t bs : {std::size_t{4096}, std::size_t{4100}}) {
    SCOPED_TRACE("block size " + std::to_string(bs));
    auto built =
        BuildTestArtifact(gen::RandomDigraphEdges(600, 2400, 11), {}, bs);
    auto* ctx = built.context.get();
    const std::vector<Query> queries = FullCoverageQueries(built);
    const std::vector<char> live_bytes = FileBytes(built.path);
    std::uint64_t num_sccs = 0;
    {
      auto live = ArtifactReader::Open(ctx, built.path);
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      num_sccs = live.value().num_sccs();
    }
    ASSERT_GT(num_sccs, 1u);
    const std::size_t boundary = 4096 / sizeof(SccEntry);
    ASSERT_GT(built.solver_labels.size(), boundary + 1);

    const auto label_past_end = [&](std::size_t i) {
      return [&, i](std::vector<SccEntry>* map) {
        (*map)[i].scc = static_cast<graph::SccId>(num_sccs);
      };
    };
    const auto swap_after = [](std::size_t i) {
      return [i](std::vector<SccEntry>* map) {
        std::swap((*map)[i], (*map)[i + 1]);
      };
    };
    const std::pair<std::string,
                    std::function<void(std::vector<SccEntry>*)>>
        forgeries[] = {
            {"label_past_end", label_past_end(0)},
            {"boundary_label_past_end", label_past_end(boundary)},
            {"swapped_records", swap_after(10)},
            {"boundary_swapped_records", swap_after(boundary - 1)},
        };
    for (const auto& [name, edit] : forgeries) {
      SCOPED_TRACE(name);
      const std::string forged = built.PathFor(name + ".art");
      fs::copy_file(built.path, forged);
      ForgeSection<SccEntry>(forged, bs, serve::SectionId::kNodeSccMap,
                             edit);

      auto opened = ArtifactReader::Open(ctx, forged);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      {
        // The scan stops at the forged block and stays stopped.
        serve::SccMapScanner scan = opened.value().OpenNodeSccScan();
        SccEntry entry;
        while (scan.Next(&entry)) {
        }
        EXPECT_EQ(scan.status().code(), util::StatusCode::kCorruption);
        EXPECT_FALSE(scan.Next(&entry));
      }
      std::vector<QueryAnswer> answers(queries.size());
      const util::Status ran =
          serve::QueryEngine(&opened.value())
              .RunBatch(ctx, queries.data(), queries.size(), answers.data());
      EXPECT_EQ(ran.code(), util::StatusCode::kCorruption) << ran.ToString();

      auto published = ArtifactReader::Publish(ctx, forged, built.path);
      ASSERT_FALSE(published.ok());
      EXPECT_EQ(published.status().code(), util::StatusCode::kCorruption)
          << published.status().ToString();
      EXPECT_FALSE(fs::exists(forged)) << "a refused candidate is removed";
      EXPECT_EQ(FileBytes(built.path), live_bytes);
    }
  }
}

// The map's labels index the DAG, so Open refuses a DAG whose nodes are
// not exactly the labels 0..S-1 — here an isolated SCC renumbered past
// the end, which every count and checksum still agrees with.
TEST(ServeArtifactTest, ForgedDagNodeIdsAreCorruption) {
  // A 4-cycle (SCC 0) and isolated node 90 (SCC 1): DAG {0, 1}, no edges.
  auto built = BuildTestArtifact(gen::CycleEdges(4), /*extra_nodes=*/{90});
  auto* ctx = built.context.get();
  ASSERT_TRUE(ArtifactReader::Open(ctx, built.path).ok());
  ForgeSection<NodeId>(built.path, ctx->block_size(),
                       serve::SectionId::kDagNodes,
                       [](std::vector<NodeId>* dag_nodes) {
                         ASSERT_EQ(*dag_nodes, (std::vector<NodeId>{0, 1}));
                         (*dag_nodes)[1] = 2;
                       });
  auto opened = ArtifactReader::Open(ctx, built.path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kCorruption)
      << opened.status().ToString();
}

// ---- Bit-flip sweep --------------------------------------------------

// Flip one bit at a sampled file offset, then try to use the artifact.
// Acceptable outcomes, and nothing else:
//   - Open fails typed (kCorruption; kInvalidArgument only if the flip
//     forged a consistent-but-unsupported header, which a CRC'd
//     preamble makes effectively impossible for single-bit flips);
//   - the full-coverage query batch fails with kCorruption;
//   - every answer matches the clean run (flips in padding / unread
//     slack are harmless by design).
TEST(ServeArtifactTest, BitFlipNeverYieldsWrongAnswer) {
  auto built = BuildTestArtifact(500, 2000, 23);
  auto* ctx = built.context.get();
  const std::vector<Query> queries = FullCoverageQueries(built);

  std::vector<QueryAnswer> clean_answers;
  {
    auto opened = ArtifactReader::Open(ctx, built.path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const ArtifactReader reader = std::move(opened).value();
    const serve::QueryEngine engine(&reader);
    clean_answers.resize(queries.size());
    ASSERT_TRUE(engine
                    .RunBatch(ctx, queries.data(), queries.size(),
                              clean_answers.data())
                    .ok());
  }

  const std::uint64_t size = fs::file_size(built.path);
  const std::string mutant = built.PathFor("mutant.art");
  util::Rng rng(99);
  std::uint64_t detected = 0, harmless = 0;
  // Stride chosen to hit every block and both halves of most 8-byte
  // words; a seeded random bit within the byte.
  for (std::uint64_t offset = 0; offset < size; offset += 509) {
    fs::copy_file(built.path, mutant, fs::copy_options::overwrite_existing);
    std::uint8_t byte = 0;
    {
      std::ifstream f(mutant, std::ios::binary);
      f.seekg(static_cast<std::streamoff>(offset));
      f.read(reinterpret_cast<char*>(&byte), 1);
      ASSERT_TRUE(f.good());
    }
    byte = static_cast<std::uint8_t>(byte ^ (1u << rng.Uniform(8)));
    PatchBytes(mutant, offset, &byte, 1);

    auto opened = ArtifactReader::Open(ctx, mutant);
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), util::StatusCode::kCorruption)
          << "offset " << offset << ": " << opened.status().ToString();
      ++detected;
      continue;
    }
    const ArtifactReader reader = std::move(opened).value();
    const serve::QueryEngine engine(&reader);
    std::vector<QueryAnswer> answers(queries.size());
    const util::Status status =
        engine.RunBatch(ctx, queries.data(), queries.size(), answers.data());
    if (!status.ok()) {
      EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
          << "offset " << offset << ": " << status.ToString();
      ++detected;
      continue;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(answers[i].known, clean_answers[i].known)
          << "offset " << offset << " query " << i;
      ASSERT_EQ(answers[i].result, clean_answers[i].result)
          << "offset " << offset << " query " << i;
      ASSERT_EQ(answers[i].scc_size, clean_answers[i].scc_size)
          << "offset " << offset << " query " << i;
    }
    ++harmless;
  }
  // The sweep must actually exercise detection — an artifact whose
  // every flip were "harmless" would mean the checksums are dead code.
  EXPECT_GT(detected, 0u);
  // And zero-padding means SOME flips are legitimately harmless; if not,
  // the stride is misconfigured rather than the format airtight.
  EXPECT_GT(detected + harmless, 0u);
}

// ---- Device-level fault injection ------------------------------------

// The artifact is built on a CLEAN context (building through a
// corrupting device would bake flips into the file before any CRC could
// cover them), then copied into the session root of a context whose
// device silently corrupts read payloads. Every read of the artifact
// now goes through the corrupting wrapper; across seeds the run must
// either detect (kCorruption) or answer exactly like the clean run.
TEST(ServeArtifactTest, FaultInjectingDeviceSweepDetectsOrAnswersRight) {
  auto built = BuildTestArtifact(400, 1600, 31);
  const std::vector<Query> queries = FullCoverageQueries(built);
  std::vector<QueryAnswer> clean_answers;
  {
    auto opened = ArtifactReader::Open(built.context.get(), built.path);
    ASSERT_TRUE(opened.ok());
    const ArtifactReader reader = std::move(opened).value();
    const serve::QueryEngine engine(&reader);
    clean_answers.resize(queries.size());
    ASSERT_TRUE(engine
                    .RunBatch(built.context.get(), queries.data(),
                              queries.size(), clean_answers.data())
                    .ok());
  }

  std::uint64_t detected = 0, clean_runs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    io::IoContextOptions options;
    options.block_size = 4096;
    options.memory_bytes = 4 << 20;
    options.scratch_dirs = {fs::temp_directory_path().string()};
    options.device_model.model = io::DeviceModel::kFaulty;
    options.device_model.fault.seed = seed;
    options.device_model.fault.corrupt_rate = 0.05;
    options.device_model.fault.inner = io::DeviceModel::kPosix;
    io::IoContext faulty(options);
    // A temp path of THIS context lives under the faulty device's
    // session root, so opening it resolves to the corrupting wrapper.
    const std::string faulty_path = faulty.NewTempPath("artifact");
    fs::copy_file(built.path, faulty_path);
    ASSERT_NE(faulty.ResolveDevice(faulty_path),
              faulty.ResolveDevice(built.path))
        << "artifact copy must land on the faulty scratch device";

    auto opened = ArtifactReader::Open(&faulty, faulty_path);
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), util::StatusCode::kCorruption)
          << "seed " << seed << ": " << opened.status().ToString();
      ++detected;
      continue;
    }
    const ArtifactReader reader = std::move(opened).value();
    const serve::QueryEngine engine(&reader);
    std::vector<QueryAnswer> answers(queries.size());
    const util::Status status = engine.RunBatch(&faulty, queries.data(),
                                                queries.size(),
                                                answers.data());
    if (!status.ok()) {
      EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
          << "seed " << seed << ": " << status.ToString();
      ++detected;
      continue;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(answers[i].result, clean_answers[i].result)
          << "seed " << seed << " query " << i;
      ASSERT_EQ(answers[i].scc_size, clean_answers[i].scc_size)
          << "seed " << seed << " query " << i;
    }
    ++clean_runs;
  }
  // At a 5% per-read corruption rate over dozens of block reads, a
  // sweep where nothing ever faulted means the injection never reached
  // the artifact's device — the test would be vacuous.
  EXPECT_GT(detected, 0u) << "clean runs: " << clean_runs;
}

}  // namespace
}  // namespace extscc
