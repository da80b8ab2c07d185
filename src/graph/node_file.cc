#include "graph/node_file.h"

#include "extsort/external_sorter.h"
#include "io/record_stream.h"

namespace extscc::graph {

std::uint64_t CountNodes(io::IoContext* context, const std::string& path) {
  return io::NumRecordsInFile<NodeId>(context, path);
}

void SortNodeFile(io::IoContext* context, const std::string& input,
                  const std::string& output) {
  extsort::SortFile<NodeId, NodeIdLess>(context, input, output, NodeIdLess(),
                                        /*dedup=*/true);
}

std::uint64_t NodeFileDifference(io::IoContext* context, const std::string& a,
                                 const std::string& b,
                                 const std::string& output) {
  io::PeekableReader<NodeId> in_a(context, a);
  io::PeekableReader<NodeId> in_b(context, b);
  io::RecordWriter<NodeId> writer(context, output);
  while (in_a.has_value()) {
    if (!in_b.has_value() || in_a.Peek() < in_b.Peek()) {
      writer.Append(in_a.Pop());
    } else if (in_a.Peek() == in_b.Peek()) {
      in_a.Pop();
      in_b.Pop();
    } else {
      in_b.Pop();
    }
  }
  const std::uint64_t count = writer.count();
  writer.Finish();
  return count;
}

bool IsNodeFileCanonical(io::IoContext* context, const std::string& path) {
  io::RecordReader<NodeId> reader(context, path);
  NodeId prev = 0;
  NodeId cur;
  bool first = true;
  while (reader.Next(&cur)) {
    if (!first && cur <= prev) return false;
    prev = cur;
    first = false;
  }
  return true;
}

}  // namespace extscc::graph
