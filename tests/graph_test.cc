#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/edge_file.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/node_file.h"
#include "graph/scc_file.h"
#include "io/record_stream.h"
#include "test_util.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccEntry;
using testing::MakeTestContext;
using testing::ScopedTempPath;
using testing::WriteTextFile;

// ---------------- edge_file ----------------------------------------------

TEST(EdgeFileTest, SortAndCount) {
  auto ctx = MakeTestContext();
  const std::string raw = ctx->NewTempPath("raw");
  io::WriteAllRecords<Edge>(ctx.get(), raw, {{2, 1}, {1, 3}, {1, 2}, {2, 1}});
  EXPECT_EQ(graph::CountEdges(ctx.get(), raw), 4u);

  const std::string by_src = ctx->NewTempPath("bysrc");
  graph::SortEdgesBySrc(ctx.get(), raw, by_src);
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx.get(), by_src),
            (std::vector<Edge>{{1, 2}, {1, 3}, {2, 1}, {2, 1}}));

  const std::string dedup = ctx->NewTempPath("dedup");
  graph::SortEdgesBySrc(ctx.get(), raw, dedup, /*dedup=*/true);
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx.get(), dedup),
            (std::vector<Edge>{{1, 2}, {1, 3}, {2, 1}}));
}

// ---------------- node_file ----------------------------------------------

TEST(NodeFileTest, SortDedupAndCanonicalCheck) {
  auto ctx = MakeTestContext();
  const std::string raw = ctx->NewTempPath("raw");
  io::WriteAllRecords<NodeId>(ctx.get(), raw, {5, 1, 5, 3, 1});
  const std::string canonical = ctx->NewTempPath("canon");
  graph::SortNodeFile(ctx.get(), raw, canonical);
  EXPECT_EQ(io::ReadAllRecords<NodeId>(ctx.get(), canonical),
            (std::vector<NodeId>{1, 3, 5}));
  EXPECT_TRUE(graph::IsNodeFileCanonical(ctx.get(), canonical));
  EXPECT_FALSE(graph::IsNodeFileCanonical(ctx.get(), raw));
  EXPECT_EQ(graph::CountNodes(ctx.get(), canonical), 3u);
}

TEST(NodeFileTest, Difference) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string b = ctx->NewTempPath("b");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords<NodeId>(ctx.get(), a, {1, 2, 3, 5, 8});
  io::WriteAllRecords<NodeId>(ctx.get(), b, {2, 5, 9});
  EXPECT_EQ(graph::NodeFileDifference(ctx.get(), a, b, out), 3u);
  EXPECT_EQ(io::ReadAllRecords<NodeId>(ctx.get(), out),
            (std::vector<NodeId>{1, 3, 8}));
}

TEST(NodeFileTest, DifferenceWithEmptySides) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string empty = ctx->NewTempPath("b");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords<NodeId>(ctx.get(), a, {1, 2});
  io::WriteAllRecords<NodeId>(ctx.get(), empty, {});
  EXPECT_EQ(graph::NodeFileDifference(ctx.get(), a, empty, out), 2u);
  const std::string out2 = ctx->NewTempPath("out2");
  EXPECT_EQ(graph::NodeFileDifference(ctx.get(), empty, a, out2), 0u);
}

// ---------------- scc_file -----------------------------------------------

TEST(SccFileTest, SortAndMerge) {
  auto ctx = MakeTestContext();
  const std::string raw = ctx->NewTempPath("raw");
  io::WriteAllRecords<SccEntry>(ctx.get(), raw, {{3, 0}, {1, 1}, {2, 0}});
  const std::string sorted = ctx->NewTempPath("sorted");
  graph::SortSccFileByNode(ctx.get(), raw, sorted);
  EXPECT_EQ(io::ReadAllRecords<SccEntry>(ctx.get(), sorted),
            (std::vector<SccEntry>{{1, 1}, {2, 0}, {3, 0}}));

  const std::string other = ctx->NewTempPath("other");
  io::WriteAllRecords<SccEntry>(ctx.get(), other, {{0, 5}, {4, 6}});
  const std::string merged = ctx->NewTempPath("merged");
  graph::MergeSccFiles(ctx.get(), sorted, other, merged);
  EXPECT_EQ(io::ReadAllRecords<SccEntry>(ctx.get(), merged),
            (std::vector<SccEntry>{{0, 5}, {1, 1}, {2, 0}, {3, 0}, {4, 6}}));

  const auto map = graph::ReadSccFile(ctx.get(), merged);
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.at(4), 6u);
}

TEST(SccFileDeathTest, MergeRejectsOverlappingNodeSets) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string b = ctx->NewTempPath("b");
  io::WriteAllRecords<SccEntry>(ctx.get(), a, {{1, 0}});
  io::WriteAllRecords<SccEntry>(ctx.get(), b, {{1, 9}});
  const std::string out = ctx->NewTempPath("out");
  EXPECT_DEATH(graph::MergeSccFiles(ctx.get(), a, b, out), "disjoint");
}

// ---------------- Digraph ------------------------------------------------

TEST(DigraphTest, CsrStructure) {
  const std::vector<Edge> edges{{10, 20}, {10, 30}, {20, 10}};
  graph::Digraph g(edges);
  ASSERT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  const std::size_t i10 = g.index_of(10);
  const std::size_t i20 = g.index_of(20);
  const std::size_t i30 = g.index_of(30);
  EXPECT_EQ(g.out_degree(i10), 2u);
  EXPECT_EQ(g.in_degree(i10), 1u);
  EXPECT_EQ(g.out_degree(i30), 0u);
  EXPECT_EQ(g.in_degree(i30), 1u);
  EXPECT_EQ(g.out_neighbors(i20).size(), 1u);
  EXPECT_EQ(g.out_neighbors(i20)[0], i10);
  EXPECT_EQ(g.index_of(999), g.num_nodes()) << "missing id sentinel";
  EXPECT_EQ(g.id_of(i10), 10u);
}

TEST(DigraphTest, IsolatedNodesViaExplicitList) {
  graph::Digraph g({42, 7}, {{1, 2}});
  EXPECT_EQ(g.num_nodes(), 4u);  // 1, 2, 7, 42
  EXPECT_EQ(g.out_degree(g.index_of(42)), 0u);
}

// ---------------- DiskGraph / builder / io -------------------------------

TEST(DiskGraphTest, MakeFromVectors) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), {{1, 2}, {2, 3}}, {99});
  EXPECT_EQ(g.num_nodes, 4u);
  EXPECT_EQ(g.num_edges, 2u);
  EXPECT_TRUE(graph::IsNodeFileCanonical(ctx.get(), g.node_path));
  EXPECT_NE(g.Describe().find("|V|=4"), std::string::npos);
}

TEST(GraphBuilderTest, StreamingBuild) {
  auto ctx = MakeTestContext();
  graph::GraphBuilder builder(ctx.get());
  for (NodeId v = 0; v < 1000; ++v) {
    builder.AddEdge(v, (v + 1) % 1000);
  }
  builder.AddNode(5000);
  const auto g = builder.Finish();
  EXPECT_EQ(g.num_edges, 1000u);
  EXPECT_EQ(g.num_nodes, 1001u);
}

TEST(GraphIoTest, TextRoundTrip) {
  auto ctx = MakeTestContext();
  // Text edge lists are user-facing files: real filesystem paths, not
  // scratch paths (which are virtual names under the mem test matrix).
  const ScopedTempPath text("graph.txt");
  const std::string& text_path = text.path();
  WriteTextFile(text_path, "# comment line\n1 2\n2 3\n3 1\n");
  auto loaded = graph::LoadTextEdgeList(ctx.get(), text_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_edges, 3u);
  EXPECT_EQ(loaded.value().num_nodes, 3u);

  const ScopedTempPath out("out.txt");
  const std::string& out_path = out.path();
  ASSERT_TRUE(
      graph::SaveTextEdgeList(ctx.get(), loaded.value(), out_path).ok());
  auto reloaded = graph::LoadTextEdgeList(ctx.get(), out_path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().num_edges, 3u);
}

TEST(GraphIoTest, MissingFileIsNotFound) {
  auto ctx = MakeTestContext();
  const auto result =
      graph::LoadTextEdgeList(ctx.get(), "/nonexistent/really/not.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST(GraphIoTest, MalformedLineIsCorruption) {
  auto ctx = MakeTestContext();
  const ScopedTempPath bad("bad.txt");
  const std::string& path = bad.path();
  WriteTextFile(path, "1 2\nnot an edge\n");
  const auto result = graph::LoadTextEdgeList(ctx.get(), path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

// ---------------- text pair codec ---------------------------------------

// The buffer sizes the codec tests sweep: a few lines, the test
// contexts' block size, and the tool's block size.
constexpr std::size_t kBufferSizes[] = {64, 4096, 65536};

// The edge-list parser the codec replaced: getline plus one
// istringstream per line. The codec must build the same graph from
// every file this loop accepts (it differs only on signed fields and
// on values past 2^64).
util::Result<graph::DiskGraph> ReferenceLoad(io::IoContext* context,
                                             const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open " + path);
  graph::GraphBuilder builder(context);
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    std::uint64_t src = 0, dst = 0;
    if (!(fields >> src >> dst)) {
      return util::Status::Corruption("malformed line " +
                                      std::to_string(line_no) + " in " +
                                      path + ": '" + line + "'");
    }
    if (src > graph::kInvalidNode - 1 || dst > graph::kInvalidNode - 1) {
      return util::Status::InvalidArgument(
          "node id out of 32-bit range at line " + std::to_string(line_no));
    }
    builder.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst));
  }
  return builder.Finish();
}

// A random file in the text pair grammar: blank runs of every blank
// byte, CRLF line ends, empty lines, '#' and '%' comments (one longer
// than the largest buffer), third fields and trailing junk, ids with
// leading zeros and ids up to kInvalidNode - 1. Without a final newline
// the file ends in an edge line.
std::string RandomPairText(std::uint64_t seed, int lines,
                           bool final_newline) {
  std::mt19937_64 rng(seed);
  static constexpr char kBlanks[] = {' ', '\t', '\r', '\v', '\f'};
  const auto blanks = [&](int min) {
    std::string out;
    for (int n = min + static_cast<int>(rng() % 3); n > 0; --n) {
      out += kBlanks[rng() % 5];
    }
    return out;
  };
  const auto id = [&]() -> std::string {
    switch (rng() % 4) {
      case 0:
        return std::to_string(rng() % 16);
      case 1:
        return std::to_string(rng() % 100000);
      case 2:
        return std::to_string(graph::kInvalidNode - 1 - rng() % 4);
      default:
        return "00" + std::to_string(rng() % 1000);
    }
  };
  const auto junk = [&]() {
    std::string out(rng() % 40, ' ');
    for (char& c : out) c = static_cast<char>(' ' + rng() % 95);
    return out;
  };
  const auto edge = [&]() { return blanks(0) + id() + blanks(1) + id(); };
  const int long_comment_at = static_cast<int>(rng() % lines);
  std::string text;
  for (int i = 0; i < lines; ++i) {
    if (i == long_comment_at) {
      text += (rng() % 2 ? '#' : '%') + std::string(70000, 'c') + "\n";
    }
    switch (rng() % 10) {
      case 0:
        break;  // empty line
      case 1:
        text += '#' + junk();
        break;
      case 2:
        text += '%' + junk();
        break;
      default:
        text += edge();
        switch (rng() % 5) {
          case 0:
            break;
          case 1:
            text += blanks(1) + id();  // a weight column
            break;
          case 2:
            text += '\r';
            break;
          case 3:
            text += blanks(1) + "w=0.5 " + junk();
            break;
          default:
            text += 'x' + junk();
            break;
        }
    }
    text += '\n';
  }
  if (!final_newline) text += edge();
  return text;
}

void ExpectSameGraph(io::IoContext* context, const graph::DiskGraph& got,
                     const graph::DiskGraph& want) {
  EXPECT_EQ(got.num_edges, want.num_edges);
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(io::ReadAllRecords<Edge>(context, got.edge_path),
            io::ReadAllRecords<Edge>(context, want.edge_path));
  EXPECT_EQ(io::ReadAllRecords<NodeId>(context, got.node_path),
            io::ReadAllRecords<NodeId>(context, want.node_path));
}

TEST(TextPairCodecTest, RandomGrammarFilesLoadLikeTheReferenceLoop) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ScopedTempPath file("edges.txt");
    const std::string text =
        RandomPairText(seed, 3000, /*final_newline=*/seed % 2 == 0);
    WriteTextFile(file.path(), text);
    for (const std::size_t block : kBufferSizes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", B = " +
                   std::to_string(block));
      auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20, block);
      auto want = ReferenceLoad(ctx.get(), file.path());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      auto got = graph::LoadTextEdgeList(ctx.get(), file.path());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_GT(got.value().num_edges, 1500u);
      ExpectSameGraph(ctx.get(), got.value(), want.value());
    }
  }
}

TEST(TextPairCodecTest, MalformedLineAcrossABufferBoundaryNamesItsLine) {
  // 21 lines, 84 bytes.
  std::string prefix;
  for (int i = 0; i < 20; ++i) prefix += "3 4\n";
  prefix += "# c\n";
  // Line 22 runs from byte 84 across the 128-, 4096- and 65536-byte
  // boundaries.
  const std::string long_bad = prefix + "5 " + std::string(70000, 'z') + "\n";
  // A short bad line at bytes 4094..4098 straddles byte 4096 (a boundary
  // at B = 64 and 4096, mid-buffer at 65536).
  std::string short_bad = prefix;
  while (short_bad.size() < 4092) short_bad += "1 2\n";
  short_bad += "\n\n7 x8\n9 9\n";
  for (const std::string& text : {long_bad, short_bad}) {
    const ScopedTempPath file("bad.txt");
    WriteTextFile(file.path(), text);
    for (const std::size_t block : kBufferSizes) {
      SCOPED_TRACE("B = " + std::to_string(block));
      auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20, block);
      const auto want = ReferenceLoad(ctx.get(), file.path());
      const auto got = graph::LoadTextEdgeList(ctx.get(), file.path());
      ASSERT_FALSE(want.ok());
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), util::StatusCode::kCorruption);
      EXPECT_EQ(got.status().message(), want.status().message());
    }
  }
}

// Loads `text` through the codec at buffer size `block`. The graph's
// scratch files are gone on return; its counts remain.
util::Result<graph::DiskGraph> LoadText(const std::string& text,
                                        std::size_t block) {
  const ScopedTempPath file("edges.txt");
  WriteTextFile(file.path(), text);
  auto ctx = MakeTestContext(/*memory_bytes=*/1 << 20, block);
  return graph::LoadTextEdgeList(ctx.get(), file.path());
}

TEST(TextPairCodecTest, GrammarEdgeCases) {
  for (const std::size_t block : kBufferSizes) {
    SCOPED_TRACE("B = " + std::to_string(block));
    const std::pair<const char*, std::uint64_t> good[] = {
        {"1 2", 1},          {"1 2\n3 4", 2},
        {"1 2\n", 1},        {"\t 1\v\f2 3 4\r\n5 6\r\n", 2},
        {"1 2x\n", 1},       {"\n\n# only comments\n%\n", 0},
        {"", 0},             {"4294967294 0\n", 1}};
    for (const auto& [text, edges] : good) {
      const auto loaded = LoadText(text, block);
      ASSERT_TRUE(loaded.ok()) << "'" << text << "'";
      EXPECT_EQ(loaded.value().num_edges, edges) << "'" << text << "'";
    }
    for (const char* bad : {"   \n1 2\n", "\r\n", "1\n", "1 \n", "1x 2\n",
                            "  # indented comment\n", "+5 3\n", "-5 3\n",
                            "5 +3\n", "a b\n"}) {
      EXPECT_EQ(LoadText(bad, block).status().code(),
                util::StatusCode::kCorruption)
          << "'" << bad << "'";
    }
    for (const char* huge : {"1 4294967295\n", "4294967296 1\n",
                             "1 18446744073709551616\n",
                             "99999999999999999999999999 5 x\n"}) {
      const util::Status status =
          LoadText(std::string("0 0\n") + huge, block).status();
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << huge;
      EXPECT_NE(status.message().find("out of 32-bit range at line 2"),
                std::string::npos)
          << status.message();
    }
  }
}

TEST(TextPairCodecTest, WriterOutputReadsBackUnchanged) {
  std::mt19937_64 rng(11);
  std::vector<Edge> pairs = {{0, 0}, {graph::kInvalidNode - 1, 7}};
  for (int i = 0; i < 5000; ++i) {
    pairs.push_back({static_cast<NodeId>(rng() % graph::kInvalidNode),
                     static_cast<NodeId>(rng() % 1000)});
  }
  std::string expected;
  for (const Edge& e : pairs) {
    expected += std::to_string(e.src) + " " + std::to_string(e.dst) + "\n";
  }
  for (const std::size_t block : kBufferSizes) {
    SCOPED_TRACE("B = " + std::to_string(block));
    const ScopedTempPath file("pairs.txt");
    graph::TextPairWriter writer(file.path(), block);
    for (const Edge& e : pairs) writer.Append(e.src, e.dst);
    ASSERT_TRUE(writer.Close().ok());
    std::ifstream in(file.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, expected);

    graph::TextPairReader reader(file.path(), block);
    std::vector<Edge> read_back;
    Edge e;
    while (reader.Next(&e.src, &e.dst)) read_back.push_back(e);
    EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
    EXPECT_EQ(read_back, pairs);
  }
}

TEST(TextPairCodecTest, FifoLoadsLikeTheFile) {
  auto ctx = MakeTestContext();
  const std::string text = RandomPairText(/*seed=*/9, 2000, true);
  const ScopedTempPath file("edges.txt");
  const ScopedTempPath fifo("edges.fifo");
  WriteTextFile(file.path(), text);
  ASSERT_EQ(::mkfifo(fifo.path().c_str(), 0600), 0) << std::strerror(errno);
  // Opening a FIFO blocks until both ends are open, so the writer runs
  // beside the load; the load sees short reads, never a seekable size.
  // A load that stops early must fail the test, not end the process
  // with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    std::ofstream out(fifo.path(), std::ios::binary);
    out << text;
  });
  auto from_fifo = graph::LoadTextEdgeList(ctx.get(), fifo.path());
  writer.join();
  ASSERT_TRUE(from_fifo.ok()) << from_fifo.status().ToString();
  auto from_file = graph::LoadTextEdgeList(ctx.get(), file.path());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ExpectSameGraph(ctx.get(), from_fifo.value(), from_file.value());
}

TEST(TextPairCodecTest, DirectoryIsIoError) {
  auto ctx = MakeTestContext();
  const ScopedTempPath dir("dir");
  ASSERT_TRUE(std::filesystem::create_directory(dir.path()));
  const auto result = graph::LoadTextEdgeList(ctx.get(), dir.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

TEST(GraphIoTest, SaveToFullDeviceIsIoError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), gen::CycleEdges(10));
  const util::Status status =
      graph::SaveTextEdgeList(ctx.get(), g, "/dev/full");
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
}

}  // namespace
}  // namespace extscc
