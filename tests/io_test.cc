#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <vector>

#include "io/block_file.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "test_util.h"

namespace extscc {
namespace {

using testing::MakeTestContext;

struct Record {
  std::uint64_t key;
  std::uint32_t payload;
};

// ---------------- IoStats ------------------------------------------------

TEST(IoStatsTest, ArithmeticAndTotals) {
  io::IoStats a;
  a.sequential_reads = 3;
  a.random_reads = 2;
  a.sequential_writes = 5;
  a.random_writes = 1;
  io::IoStats b = a;
  b += a;
  EXPECT_EQ(b.total_reads(), 10u);
  EXPECT_EQ(b.total_writes(), 12u);
  EXPECT_EQ(b.total_ios(), 22u);
  EXPECT_EQ(b.random_ios(), 6u);
  const io::IoStats diff = b - a;
  EXPECT_EQ(diff.total_ios(), a.total_ios());
  EXPECT_NE(a.ToString().find("ios="), std::string::npos);
}

// ---------------- MemoryBudget -------------------------------------------

TEST(MemoryBudgetTest, ReserveRelease) {
  io::MemoryBudget budget(1000);
  EXPECT_EQ(budget.available_bytes(), 1000u);
  budget.Reserve(400);
  EXPECT_EQ(budget.used_bytes(), 400u);
  EXPECT_EQ(budget.available_bytes(), 600u);
  budget.Release(400);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemoryBudgetTest, ScopedReservation) {
  io::MemoryBudget budget(100);
  {
    io::ScopedReservation r(&budget, 60);
    EXPECT_EQ(budget.used_bytes(), 60u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemoryBudgetTest, OversubscriptionAborts) {
  io::MemoryBudget budget(10);
  EXPECT_DEATH(budget.Reserve(11), "oversubscribed");
}

TEST(MemoryBudgetTest, SizingHelpers) {
  io::MemoryBudget budget(1 << 20);
  EXPECT_EQ(budget.MaxRecordsInMemory(8), (1u << 20) / 8);
  // fan-in = buffers - 1 output buffer
  EXPECT_EQ(budget.MergeFanIn(4096), (1u << 20) / 4096 - 1);
  io::MemoryBudget tiny(128);
  EXPECT_GE(tiny.MaxRecordsInMemory(1024), 2u);
  EXPECT_GE(tiny.MergeFanIn(4096), 2u);
}

// ---------------- TempFileManager ----------------------------------------

TEST(TempFileManagerTest, CreatesUniquePathsAndCleansUp) {
  std::string dir;
  {
    io::TempFileManager manager(io::MakePosixScratchDevices("", {}));
    dir = manager.dir();
    EXPECT_TRUE(std::filesystem::exists(dir));
    const std::string a = manager.NewPath("x");
    const std::string b = manager.NewPath("x");
    EXPECT_NE(a, b);
    EXPECT_EQ(a.rfind(dir, 0), 0u) << "paths live under the session dir";
  }
  EXPECT_FALSE(std::filesystem::exists(dir)) << "dir removed on destruction";
}

TEST(TempFileManagerTest, RoundRobinsFilesAcrossScratchDirs) {
  namespace fs = std::filesystem;
  const testing::ScopedTempPath dir_a("scratch_a");
  const testing::ScopedTempPath dir_b("scratch_b");
  const std::string& parent_a = dir_a.path();
  const std::string& parent_b = dir_b.path();
  fs::create_directories(parent_a);
  fs::create_directories(parent_b);
  std::vector<std::string> session_dirs;
  {
    io::TempFileManager manager(
        io::MakePosixScratchDevices("", {parent_a, parent_b}));
    ASSERT_EQ(manager.dirs().size(), 2u);
    session_dirs = manager.dirs();
    EXPECT_EQ(session_dirs[0].rfind(parent_a, 0), 0u);
    EXPECT_EQ(session_dirs[1].rfind(parent_b, 0), 0u);
    // Consecutive paths alternate devices; names stay unique.
    const std::string p0 = manager.NewPath("run");
    const std::string p1 = manager.NewPath("run");
    const std::string p2 = manager.NewPath("run");
    EXPECT_EQ(p0.rfind(session_dirs[0], 0), 0u);
    EXPECT_EQ(p1.rfind(session_dirs[1], 0), 0u);
    EXPECT_EQ(p2.rfind(session_dirs[0], 0), 0u);
    EXPECT_NE(p0, p2);
  }
  for (const auto& dir : session_dirs) {
    EXPECT_FALSE(fs::exists(dir)) << "session dirs removed on destruction";
  }
}

// ---------------- BlockFile ----------------------------------------------

TEST(BlockFileTest, RoundTripAndSize) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("bf");
  std::vector<char> block(ctx->block_size(), 'a');
  {
    io::BlockFile file(ctx.get(), path, io::OpenMode::kTruncateWrite);
    file.WriteBlock(0, block.data(), block.size());
    file.WriteBlock(1, block.data(), 100);  // partial tail
    EXPECT_EQ(file.size_bytes(), ctx->block_size() + 100);
    EXPECT_EQ(file.num_blocks(), 2u);
  }
  io::BlockFile file(ctx.get(), path, io::OpenMode::kRead);
  std::vector<char> buf(ctx->block_size());
  EXPECT_EQ(file.ReadBlock(0, buf.data()), ctx->block_size());
  EXPECT_EQ(file.ReadBlock(1, buf.data()), 100u);
  EXPECT_EQ(file.ReadBlock(2, buf.data()), 0u) << "EOF";
}

TEST(BlockFileTest, SequentialVsRandomClassification) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("bf");
  std::vector<char> block(ctx->block_size(), 'z');
  io::BlockFile file(ctx.get(), path, io::OpenMode::kReadWrite);
  for (int i = 0; i < 8; ++i) {
    file.WriteBlock(i, block.data(), block.size());
  }
  const auto before = ctx->stats();
  std::vector<char> buf(ctx->block_size());
  file.ReadBlock(0, buf.data());  // first read: random
  file.ReadBlock(1, buf.data());  // sequential
  file.ReadBlock(2, buf.data());  // sequential
  file.ReadBlock(7, buf.data());  // random
  file.ReadBlock(3, buf.data());  // random
  const auto delta = ctx->stats() - before;
  EXPECT_EQ(delta.sequential_reads, 2u);
  EXPECT_EQ(delta.random_reads, 3u);
}

TEST(BlockFileTest, WriteClassification) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("bf");
  std::vector<char> block(ctx->block_size(), 'q');
  io::BlockFile file(ctx.get(), path, io::OpenMode::kTruncateWrite);
  const auto before = ctx->stats();
  file.WriteBlock(0, block.data(), block.size());  // first: append treated
  file.WriteBlock(1, block.data(), block.size());  // sequential
  file.WriteBlock(5, block.data(), block.size());  // random
  const auto delta = ctx->stats() - before;
  EXPECT_EQ(delta.random_writes + delta.sequential_writes, 3u);
  EXPECT_GE(delta.random_writes, 1u);
}

TEST(IoContextTest, IoBudgetTripsFlag) {
  auto ctx = MakeTestContext();
  ctx->set_io_budget(3);
  const std::string path = ctx->NewTempPath("bf");
  std::vector<char> block(ctx->block_size(), 'b');
  io::BlockFile file(ctx.get(), path, io::OpenMode::kTruncateWrite);
  file.WriteBlock(0, block.data(), block.size());
  EXPECT_FALSE(ctx->io_budget_exceeded());
  file.WriteBlock(1, block.data(), block.size());
  file.WriteBlock(2, block.data(), block.size());
  file.WriteBlock(3, block.data(), block.size());
  EXPECT_TRUE(ctx->io_budget_exceeded());
  ctx->reset_io_budget_flag();
  EXPECT_FALSE(ctx->io_budget_exceeded());
}

TEST(IoContextTest, RequiresMAtLeastTwoBlocks) {
  io::IoContextOptions options;
  options.block_size = 4096;
  options.memory_bytes = 4096;  // < 2B
  EXPECT_DEATH(io::IoContext ctx(options), "M >= 2B");
}

// ---------------- Record streams -----------------------------------------

TEST(RecordStreamTest, WriteReadRoundTrip) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("records");
  constexpr int kCount = 10'000;  // spans many 4K blocks
  {
    io::RecordWriter<Record> writer(ctx.get(), path);
    for (int i = 0; i < kCount; ++i) {
      writer.Append(Record{static_cast<std::uint64_t>(i),
                           static_cast<std::uint32_t>(i * 3)});
    }
    EXPECT_EQ(writer.count(), static_cast<std::uint64_t>(kCount));
    writer.Finish();
  }
  io::RecordReader<Record> reader(ctx.get(), path);
  EXPECT_EQ(reader.num_records(), static_cast<std::uint64_t>(kCount));
  Record r;
  int i = 0;
  while (reader.Next(&r)) {
    ASSERT_EQ(r.key, static_cast<std::uint64_t>(i));
    ASSERT_EQ(r.payload, static_cast<std::uint32_t>(i * 3));
    ++i;
  }
  EXPECT_EQ(i, kCount);
}

TEST(RecordStreamTest, EmptyFile) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("empty");
  {
    io::RecordWriter<Record> writer(ctx.get(), path);
    writer.Finish();
  }
  io::RecordReader<Record> reader(ctx.get(), path);
  Record r;
  EXPECT_FALSE(reader.Next(&r));
  EXPECT_EQ(io::NumRecordsInFile<Record>(ctx.get(), path), 0u);
}

TEST(RecordStreamTest, WriterFinishIsIdempotentViaDestructor) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("records");
  {
    io::RecordWriter<std::uint32_t> writer(ctx.get(), path);
    writer.Append(7);
    // No explicit Finish: destructor must flush.
  }
  const auto all = io::ReadAllRecords<std::uint32_t>(ctx.get(), path);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], 7u);
}

TEST(RecordStreamTest, PeekableReader) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("peek");
  io::WriteAllRecords<std::uint32_t>(ctx.get(), path, {1, 2, 3});
  io::PeekableReader<std::uint32_t> reader(ctx.get(), path);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader.Peek(), 1u);
  EXPECT_EQ(reader.Pop(), 1u);
  EXPECT_EQ(reader.Peek(), 2u);
  EXPECT_EQ(reader.Pop(), 2u);
  EXPECT_EQ(reader.Pop(), 3u);
  EXPECT_FALSE(reader.has_value());
}

TEST(RecordStreamTest, RandomRecordReader) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("random");
  std::vector<std::uint64_t> values(5000);
  std::iota(values.begin(), values.end(), 0);
  io::WriteAllRecords(ctx.get(), path, values);
  io::RandomRecordReader<std::uint64_t> reader(ctx.get(), path);
  EXPECT_EQ(reader.num_records(), 5000u);
  EXPECT_EQ(reader.Get(0), 0u);
  EXPECT_EQ(reader.Get(4999), 4999u);
  EXPECT_EQ(reader.Get(1234), 1234u);
  // Same-block hits are cached (no extra I/O).
  const auto before = ctx->stats().total_ios();
  reader.Get(1235);
  EXPECT_EQ(ctx->stats().total_ios(), before);
}

TEST(RecordStreamTest, ReadAllWriteAllRoundTrip) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("all");
  const std::vector<std::uint32_t> values{9, 8, 7, 6};
  io::WriteAllRecords(ctx.get(), path, values);
  EXPECT_EQ(io::ReadAllRecords<std::uint32_t>(ctx.get(), path), values);
}

// ---------------- Batched record I/O --------------------------------------

TEST(RecordStreamTest, BatchRoundTripAcrossBlockBoundaries) {
  auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20, /*block_size=*/1024);
  const std::string path = ctx->NewTempPath("batch");
  std::vector<Record> values(10'000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = Record{i, static_cast<std::uint32_t>(i * 7)};
  }
  {
    io::RecordWriter<Record> writer(ctx.get(), path);
    // Uneven batch sizes so appends repeatedly straddle block boundaries.
    std::size_t at = 0;
    const std::size_t sizes[] = {1, 33, 700, 9, 2048};
    std::size_t s = 0;
    while (at < values.size()) {
      const std::size_t n = std::min(sizes[s++ % 5], values.size() - at);
      writer.AppendBatch(values.data() + at, n);
      at += n;
    }
    EXPECT_EQ(writer.count(), values.size());
    writer.Finish();
  }
  io::RecordReader<Record> reader(ctx.get(), path);
  std::vector<Record> got(values.size());
  std::size_t at = 0;
  std::size_t n;
  while ((n = reader.NextBatch(got.data() + at, 777)) > 0) at += n;
  ASSERT_EQ(at, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(got[i].key, values[i].key) << i;
    ASSERT_EQ(got[i].payload, values[i].payload) << i;
  }

  // 12-byte records do not divide a 1 KiB block, so the one-record paths
  // (Append, Next) also meet records that straddle a block boundary;
  // interleave them with the batch calls on both sides.
  struct Triple {
    std::uint32_t a, b, c;
  };
  static_assert(sizeof(Triple) == 12);
  const std::string triples_path = ctx->NewTempPath("triples");
  std::vector<Triple> triples(5'000);
  for (std::uint32_t i = 0; i < triples.size(); ++i) {
    triples[i] = Triple{i, i * 3 + 1, ~i};
  }
  const std::size_t batch_sizes[] = {1, 17, 85, 3, 256};
  {
    io::RecordWriter<Triple> writer(ctx.get(), triples_path);
    std::size_t written = 0;
    for (std::size_t s = 0; written < triples.size(); ++s) {
      const std::size_t n =
          std::min(batch_sizes[s % 5], triples.size() - written);
      if (s % 2 == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          writer.Append(triples[written + i]);
        }
      } else {
        writer.AppendBatch(triples.data() + written, n);
      }
      written += n;
    }
    EXPECT_EQ(writer.count(), triples.size());
    writer.Finish();
  }
  io::RecordReader<Triple> triple_reader(ctx.get(), triples_path);
  EXPECT_EQ(triple_reader.num_records(), triples.size());
  std::vector<Triple> read_back(triples.size() + 1);
  at = 0;
  for (std::size_t s = 0;; ++s) {
    const std::size_t want = batch_sizes[(s + 2) % 5];
    std::size_t got_now = 0;
    if (s % 2 == 0) {
      while (got_now < want && at + got_now < read_back.size() &&
             triple_reader.Next(&read_back[at + got_now])) {
        ++got_now;
      }
    } else {
      got_now = triple_reader.NextBatch(
          read_back.data() + at, std::min(want, read_back.size() - at));
    }
    at += got_now;
    if (got_now < want) break;
  }
  ASSERT_EQ(at, triples.size());
  EXPECT_FALSE(triple_reader.Next(&read_back[at])) << "read past the end";
  EXPECT_TRUE(triple_reader.status().ok());
  for (std::size_t i = 0; i < triples.size(); ++i) {
    ASSERT_EQ(read_back[i].a, triples[i].a) << i;
    ASSERT_EQ(read_back[i].b, triples[i].b) << i;
    ASSERT_EQ(read_back[i].c, triples[i].c) << i;
  }
}

TEST(RecordStreamTest, NextBatchReturnsShortCountAtEof) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("short");
  io::WriteAllRecords<std::uint32_t>(ctx.get(), path, {1, 2, 3});
  io::RecordReader<std::uint32_t> reader(ctx.get(), path);
  std::uint32_t buf[8];
  EXPECT_EQ(reader.NextBatch(buf, 8), 3u);
  EXPECT_EQ(buf[0], 1u);
  EXPECT_EQ(buf[2], 3u);
  EXPECT_EQ(reader.NextBatch(buf, 8), 0u);
}

TEST(RecordStreamTest, CopyAllRecordsCopiesAndCounts) {
  auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20, /*block_size=*/512);
  const std::string from = ctx->NewTempPath("from");
  const std::string to = ctx->NewTempPath("to");
  std::vector<std::uint64_t> values(5'000);
  std::iota(values.begin(), values.end(), 100);
  io::WriteAllRecords(ctx.get(), from, values);
  EXPECT_EQ((io::CopyAllRecords<std::uint64_t>(ctx.get(), from, to)),
            values.size());
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), to), values);
}

}  // namespace
}  // namespace extscc
