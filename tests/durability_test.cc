// Crash-safety unit tests: the delta-log sidecar read at EVERY
// truncation and after bit flips in its header, the checkpoint
// manifest's round-trip/validation contract, the durable-rename publish
// primitive, crash-spec parsing, orphan scratch-root reaping, and the
// promise that durability costs live only in the sync/checkpoint
// counters. The process-kill side of crash safety (spawning
// extscc_tool and dying at seeded crash points) lives in
// crash_test.cc; this suite covers everything testable in-process.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/ext_scc.h"
#include "dyn/delta_log.h"
#include "graph/graph_types.h"
#include "io/checksum.h"
#include "io/crash_point.h"
#include "io/durability.h"
#include "io/io_context.h"
#include "io/storage.h"
#include "test_util.h"
#include "util/status.h"

namespace extscc {
namespace {

namespace fs = std::filesystem;

// Delta-log and checkpoint files live beside artifacts on the REAL
// filesystem (the posix base device), never on scratch — so these
// tests can truncate/corrupt them byte by byte regardless of the CI
// matrix's scratch-device override.
std::unique_ptr<io::IoContext> MakeContext(std::size_t block_size) {
  return testing::MakeTestContext(1 << 20, block_size);
}

// A fresh per-test, per-pid directory (testing::ScopedTempPath),
// removed with everything in it — .tmp and .dlog siblings included —
// at scope end.
class FreshDir {
 public:
  explicit FreshDir(const std::string& name) : scoped_(name) {
    fs::create_directories(scoped_.path());
  }
  fs::path operator/(const std::string& leaf) const {
    return fs::path(scoped_.path()) / leaf;
  }
  const std::string& string() const { return scoped_.path(); }

 private:
  testing::ScopedTempPath scoped_;
};

std::vector<char> Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void Spit(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- the pending-edge sidecar ----------------------------------------

// Truncate the sidecar at EVERY byte offset: a cut inside the 40-byte
// header is kCorruption and never a count, and a cut that only sheds
// zero padding reads the same count. The only writer replaces the whole
// block, so a write over any damaged copy publishes a clean one.
TEST(DurabilityTest, TruncationSweepEveryByteOffset) {
  constexpr std::size_t kBlock = 512;
  constexpr std::uint64_t kPending = 0x1234567890ull;
  auto context = MakeContext(kBlock);
  const FreshDir dir("durability_truncation_sweep");
  const std::string log = (dir / "art.dlog").string();
  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), log, 7, kPending).ok());
  const std::vector<char> pristine = Slurp(log);
  ASSERT_EQ(pristine.size(), kBlock);

  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    Spit(log, pristine);
    fs::resize_file(log, cut);
    auto read = dyn::ReadDeltaLog(context.get(), log, 7);
    if (cut < sizeof(dyn::DeltaLogHeader)) {
      ASSERT_FALSE(read.ok()) << "cut=" << cut;
      EXPECT_EQ(read.status().code(), util::StatusCode::kCorruption)
          << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": "
                           << read.status().ToString();
    EXPECT_TRUE(read.value().exists) << "cut=" << cut;
    EXPECT_FALSE(read.value().stale) << "cut=" << cut;
    EXPECT_EQ(read.value().pending_edges, kPending) << "cut=" << cut;
  }

  fs::resize_file(log, sizeof(dyn::DeltaLogHeader) / 2);
  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), log, 7, kPending + 1).ok());
  auto rewritten = dyn::ReadDeltaLog(context.get(), log, 7);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten.value().pending_edges, kPending + 1);
  EXPECT_EQ(fs::file_size(log), kBlock);
  EXPECT_FALSE(fs::exists(log + ".tmp"));
}

TEST(DurabilityTest, DamagedHeaderIsCorruptionNotSelfHealing) {
  auto context = MakeContext(512);
  const FreshDir dir("durability_bad_header");
  const std::string log = (dir / "art.dlog").string();
  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), log, 1, 5).ok());
  const std::vector<char> pristine = Slurp(log);
  // One flipped bit in the magic, the block size, the base version, the
  // count, the reserved word and the CRC itself.
  for (const std::size_t at : {3, 13, 18, 26, 33, 38}) {
    std::vector<char> bytes = pristine;
    bytes[at] ^= 0x40;
    Spit(log, bytes);
    auto read = dyn::ReadDeltaLog(context.get(), log, 1);
    ASSERT_FALSE(read.ok()) << "byte " << at;
    EXPECT_EQ(read.status().code(), util::StatusCode::kCorruption)
        << "byte " << at;
    // Reading repairs nothing: the damaged bytes are still there.
    EXPECT_EQ(Slurp(log), bytes) << "byte " << at;
  }
}

// A sidecar from another format or block size is refused as
// unsupported, never read as a count.
TEST(DurabilityTest, OtherFormatOrBlockSizeIsInvalidArgument) {
  constexpr std::size_t kBlock = 512;
  auto context = MakeContext(kBlock);
  const FreshDir dir("durability_other_format");
  const std::string log = (dir / "art.dlog").string();

  // The format-2 header (the record log's): 32 bytes with the CRC over
  // the first 28, zero-padded to a block.
  struct V2Header {
    char magic[8];
    std::uint32_t format_version;
    std::uint32_t block_size;
    std::uint64_t base_version;
    std::uint32_t reserved;
    std::uint32_t crc;
  };
  V2Header v2{};
  std::memcpy(v2.magic, dyn::kDeltaLogMagic, sizeof(v2.magic));
  v2.format_version = 2;
  v2.block_size = kBlock;
  v2.crc = io::Crc32(&v2, sizeof(v2) - sizeof(std::uint32_t));
  std::vector<char> bytes(kBlock, 0);
  std::memcpy(bytes.data(), &v2, sizeof(v2));
  Spit(log, bytes);
  auto old_format = dyn::ReadDeltaLog(context.get(), log, 0);
  ASSERT_FALSE(old_format.ok());
  EXPECT_EQ(old_format.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(old_format.status().ToString().find(
                "unsupported delta log format version 2"),
            std::string::npos)
      << old_format.status().ToString();

  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), log, 0, 9).ok());
  auto other_block = dyn::ReadDeltaLog(MakeContext(4096).get(), log, 0);
  ASSERT_FALSE(other_block.ok());
  EXPECT_EQ(other_block.status().code(), util::StatusCode::kInvalidArgument);
}

// ---- durability accounting ------------------------------------------

TEST(DurabilityTest, DeltaLogSyncsAreCountedOutsideModelColumns) {
  auto context = MakeContext(4096);
  const FreshDir dir("durability_sync_counts");
  const std::string log = (dir / "art.dlog").string();
  const auto before = context->stats();
  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), log, 2, 100).ok());
  ASSERT_TRUE(dyn::WriteDeltaLog(context.get(), log, 2, 150).ok());
  const auto delta = context->stats() - before;
  // Each write is a durable publish: a file fsync plus a directory
  // fsync.
  EXPECT_EQ(delta.sync_calls, 4u);
  // Syncs are never model I/Os: checkpoint counters untouched, and the
  // block writes are exactly the sidecar's one block per write, not
  // inflated by the fsyncs.
  EXPECT_EQ(delta.checkpoint_writes, 0u);
  EXPECT_EQ(delta.checkpoint_reads, 0u);
  EXPECT_EQ(delta.total_ios(), 2u);
}

TEST(DurabilityTest, DurableRenamePublishesAndCountsOneDirSync) {
  auto context = MakeContext(4096);
  const FreshDir dir("durability_rename");
  const std::string tmp = (dir / "artifact.tmp").string();
  const std::string final_path = (dir / "artifact").string();
  Spit(tmp, {'h', 'i'});
  const auto before = context->stats();
  ASSERT_TRUE(io::DurableRename(context.get(), tmp, final_path).ok());
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_TRUE(fs::exists(final_path));
  EXPECT_EQ((context->stats() - before).sync_calls, 1u);
  EXPECT_EQ((context->stats() - before).total_ios(), 0u);
}

TEST(DurabilityTest, ParentDirOfContract) {
  EXPECT_EQ(io::ParentDirOf("/a/b/c"), "/a/b");
  EXPECT_EQ(io::ParentDirOf("/top"), "/");
  EXPECT_EQ(io::ParentDirOf("relative"), ".");
}

// ---- crash-spec parsing ---------------------------------------------

TEST(DurabilityTest, ParseCrashSpecAcceptsOrdinalAndTagForms) {
  io::CrashSpec spec;
  EXPECT_EQ(io::ParseCrashSpec("7", &spec), "");
  EXPECT_EQ(spec.tag, "");
  EXPECT_EQ(spec.ordinal, 7u);
  EXPECT_EQ(io::ParseCrashSpec("publish.rename:12", &spec), "");
  EXPECT_EQ(spec.tag, "publish.rename");
  EXPECT_EQ(spec.ordinal, 12u);
}

TEST(DurabilityTest, ParseCrashSpecRejectsMalformedSpecs) {
  io::CrashSpec spec;
  EXPECT_NE(io::ParseCrashSpec("", &spec), "");
  EXPECT_NE(io::ParseCrashSpec("abc", &spec), "");
  EXPECT_NE(io::ParseCrashSpec(":3", &spec), "");
  EXPECT_NE(io::ParseCrashSpec("tag:", &spec), "");
  EXPECT_NE(io::ParseCrashSpec("tag:0", &spec), "");
}

TEST(DurabilityTest, DisarmedCrashPointsOnlyCount) {
  const std::uint64_t before = io::CrashPointsPassed();
  io::CrashPointHit("durability.test.site");
  EXPECT_EQ(io::CrashPointsPassed(), before + 1);
}

// ---- orphan scratch-root reaping ------------------------------------

TEST(DurabilityTest, ReapsDeadOwnersKeepsLiveOnes) {
  const FreshDir parent("durability_reap");

  // A pid that is guaranteed dead AND guaranteed once-valid: a child
  // we already waited on.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  const long dead = static_cast<long>(child);
  const long live = static_cast<long>(getpid());

  auto make_root = [&](const std::string& name, long pid_file_owner) {
    fs::create_directories(parent / name);
    std::ofstream(parent / name / "scratch.bin") << "leftovers";
    if (pid_file_owner != 0) {
      std::ofstream(parent / name / ".pid") << pid_file_owner << "\n";
    }
  };
  make_root("extscc_" + std::to_string(dead) + "_0", 0);     // reaped
  make_root("extscc_" + std::to_string(live) + "_5", 0);     // ours: kept
  make_root("extscc_" + std::to_string(live) + "_7", dead);  // .pid wins
  make_root("extscc_" + std::to_string(dead) + "_1", live);  // .pid wins
  make_root("not_a_session_root", 0);                        // ignored

  EXPECT_EQ(io::ReapOrphanScratchRoots(parent.string()), 2u);
  EXPECT_FALSE(fs::exists(parent / ("extscc_" + std::to_string(dead) + "_0")));
  EXPECT_TRUE(fs::exists(parent / ("extscc_" + std::to_string(live) + "_5")));
  EXPECT_FALSE(fs::exists(parent / ("extscc_" + std::to_string(live) + "_7")));
  EXPECT_TRUE(fs::exists(parent / ("extscc_" + std::to_string(dead) + "_1")));
  EXPECT_TRUE(fs::exists(parent / "not_a_session_root"));
}

// ---- checkpoint manifest --------------------------------------------

class CheckpointManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    context_ = MakeContext(4096);
    ckpt_ = std::make_unique<core::CheckpointSession>(
        context_.get(), dir_.string(), /*data_version=*/42);
    // One completed contraction level: the manifest obligates the four
    // level files plus the live contracted edge file.
    state_.phase = core::CheckpointSession::kContracting;
    state_.data_version = 42;
    state_.block_size = 4096;
    state_.levels_done = 1;
    state_.current_num_nodes = 11;
    state_.current_num_edges = 23;
    state_.contraction_seconds = 1.5;
    core::ContractionIterationStats it;
    it.level = 0;
    it.nodes = 64;
    it.cover_nodes = 11;
    state_.iterations.push_back(it);
    for (const char* kind : {"ein", "eout", "cover", "removed", "enext"}) {
      files_.push_back(ckpt_->LevelPath(0, kind));
      std::ofstream(files_.back(), std::ios::binary) << kind << "-data";
    }
  }

  // First member: removed last, after the session and context.
  FreshDir dir_{"durability_ckpt"};
  std::unique_ptr<io::IoContext> context_;
  std::unique_ptr<core::CheckpointSession> ckpt_;
  core::CheckpointSession::ResumeState state_;
  std::vector<std::string> files_;
};

TEST_F(CheckpointManifestTest, SaveLoadRoundTripWithCounters) {
  const auto before = context_->stats();
  ASSERT_TRUE(ckpt_->Save(state_, files_).ok());
  const auto after_save = context_->stats() - before;
  EXPECT_EQ(after_save.checkpoint_writes, 1u);
  // 5 data-file fsyncs + manifest fsync + the publish's dir fsync.
  EXPECT_GE(after_save.sync_calls, 7u);
  EXPECT_EQ(after_save.total_ios(), 0u)
      << "checkpoint traffic leaked into the model I/O columns";

  auto loaded = ckpt_->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((context_->stats() - before).checkpoint_reads, 1u);
  const auto& st = loaded.value();
  EXPECT_EQ(st.phase, core::CheckpointSession::kContracting);
  EXPECT_EQ(st.data_version, 42u);
  EXPECT_EQ(st.block_size, 4096u);
  EXPECT_EQ(st.levels_done, 1u);
  EXPECT_EQ(st.current_num_nodes, 11u);
  EXPECT_EQ(st.current_num_edges, 23u);
  EXPECT_DOUBLE_EQ(st.contraction_seconds, 1.5);
  ASSERT_EQ(st.iterations.size(), 1u);
  EXPECT_EQ(st.iterations[0].nodes, 64u);
  EXPECT_EQ(st.iterations[0].cover_nodes, 11u);
}

TEST_F(CheckpointManifestTest, MissingManifestIsNotFound) {
  auto loaded = ckpt_->Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(CheckpointManifestTest, CorruptManifestIsCorruption) {
  ASSERT_TRUE(ckpt_->Save(state_, files_).ok());
  auto bytes = Slurp(ckpt_->ManifestPath());
  bytes[bytes.size() / 2] ^= 0x01;
  Spit(ckpt_->ManifestPath(), bytes);
  auto loaded = ckpt_->Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption);
}

TEST_F(CheckpointManifestTest, ResizedDataFileIsFailedPrecondition) {
  ASSERT_TRUE(ckpt_->Save(state_, files_).ok());
  fs::resize_file(files_[0], fs::file_size(files_[0]) - 1);
  auto loaded = ckpt_->Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointManifestTest, MissingDataFileIsFailedPrecondition) {
  ASSERT_TRUE(ckpt_->Save(state_, files_).ok());
  fs::remove(files_[2]);
  auto loaded = ckpt_->Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointManifestTest, FinishRemovesManifestAndPhaseFiles) {
  ASSERT_TRUE(ckpt_->Save(state_, files_).ok());
  ckpt_->Finish(/*num_levels=*/1);
  EXPECT_FALSE(fs::exists(ckpt_->ManifestPath()));
  for (const auto& f : files_) EXPECT_FALSE(fs::exists(f)) << f;
}

TEST(DurabilityTest, SolveDataVersionBindsOptionsAndGeometryNotPaths) {
  auto context = MakeContext(4096);
  graph::DiskGraph a;
  a.num_nodes = 100;
  a.num_edges = 400;
  a.node_path = "/scratch/run1/nodes";
  a.edge_path = "/scratch/run1/edges";
  graph::DiskGraph b = a;
  // Same shape through DIFFERENT per-session scratch paths — exactly
  // what a crashed solve and its resume look like.
  b.node_path = "/scratch/run2/nodes";
  b.edge_path = "/scratch/run2/edges";
  const auto opt = core::ExtSccOptions::Optimized();
  EXPECT_EQ(core::SolveDataVersion(a, opt, 4096),
            core::SolveDataVersion(b, opt, 4096));
  EXPECT_NE(core::SolveDataVersion(a, opt, 4096),
            core::SolveDataVersion(a, opt, 8192));
  EXPECT_NE(core::SolveDataVersion(a, opt, 4096),
            core::SolveDataVersion(a, core::ExtSccOptions::Basic(), 4096));
  graph::DiskGraph c = a;
  c.num_nodes = 101;
  EXPECT_NE(core::SolveDataVersion(a, opt, 4096),
            core::SolveDataVersion(c, opt, 4096));
}

}  // namespace
}  // namespace extscc
