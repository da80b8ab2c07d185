#include "graph/scc_file.h"

#include "extsort/external_sorter.h"
#include "io/record_stream.h"
#include "util/logging.h"

namespace extscc::graph {

void SortSccFileByNode(io::IoContext* context, const std::string& input,
                       const std::string& output) {
  extsort::SortFile<SccEntry, SccEntryByNode>(context, input, output,
                                              SccEntryByNode());
}

void MergeSccFiles(io::IoContext* context, const std::string& a,
                   const std::string& b, const std::string& output) {
  io::PeekableReader<SccEntry> in_a(context, a);
  io::PeekableReader<SccEntry> in_b(context, b);
  io::RecordWriter<SccEntry> writer(context, output);
  while (in_a.has_value() || in_b.has_value()) {
    if (!in_b.has_value() ||
        (in_a.has_value() && in_a.Peek().node < in_b.Peek().node)) {
      writer.Append(in_a.Pop());
    } else {
      CHECK(!in_a.has_value() || in_a.Peek().node != in_b.Peek().node)
          << "MergeSccFiles inputs must have disjoint node sets";
      writer.Append(in_b.Pop());
    }
  }
  writer.Finish();
}

std::unordered_map<NodeId, SccId> ReadSccFile(io::IoContext* context,
                                              const std::string& path) {
  std::unordered_map<NodeId, SccId> out;
  io::RecordReader<SccEntry> reader(context, path);
  SccEntry entry;
  while (reader.Next(&entry)) {
    out[entry.node] = entry.scc;
  }
  return out;
}

}  // namespace extscc::graph
