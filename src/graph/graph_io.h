// User-facing graph loading/saving: text pair files (edge lists "u v",
// label files "node scc"). These are the only Status-returning entry
// points in the graph layer — user files may be missing or malformed.
//
// Text pair grammar, shared by every edge and label file the tool reads:
//  - A line ends at '\n'; the last line may lack one.
//  - Empty lines and lines whose first byte is '#' or '%' are skipped.
//    A line of only blanks is malformed.
//  - Any other line is: optional blanks (space, \t, \r, \v, \f), digits,
//    blanks, digits, then anything. The rest of the line is ignored, so
//    CRLF files and "u v w" lists load. No sign is accepted ("+5" and
//    "-5" are malformed).
// Errors:
//  - a value >= 2^32 - 1 (kInvalidNode) is kInvalidArgument ("node id
//    out of 32-bit range at line N in PATH");
//  - any other bad line is kCorruption ("malformed line N in PATH:
//    'LINE'");
//  - a file that cannot be opened is kNotFound; a failed read or write
//    (a directory given as input, a full device) is kIoError.
//
// TextPairReader and TextPairWriter each hold one B-byte buffer (B = the
// context's block size); the reader also holds at most the one line
// that straddles a buffer boundary. Neither reads the whole file nor
// maps it. Like every per-stream block buffer, the buffer is not
// reserved from the MemoryBudget. They move bytes with sequential
// read(2)/write(2) on the file descriptor — no seek, no size probe — so
// pipes, FIFOs and /dev/stdout work as inputs and outputs. That traffic
// is outside the model: it is not counted in IoStats.
#ifndef EXTSCC_GRAPH_GRAPH_IO_H_
#define EXTSCC_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "util/status.h"

namespace extscc::graph {

// Streams the pairs of a text pair file, one line at a time.
class TextPairReader {
 public:
  TextPairReader(const std::string& path, std::size_t buffer_bytes);
  ~TextPairReader();

  TextPairReader(const TextPairReader&) = delete;
  TextPairReader& operator=(const TextPairReader&) = delete;

  // Reads the next pair. Returns false at the end of the file or at the
  // first error; status() tells the two apart.
  bool Next(std::uint32_t* first, std::uint32_t* second);

  // kNotFound when the file could not be opened, else the first error
  // Next hit (sticky).
  const util::Status& status() const { return status_; }

 private:
  // Sets *line to the next line without its '\n'; false at the end.
  bool NextLine(std::string_view* line);
  // Refills the buffer with one read(2); false at the end or on error.
  bool Fill();

  std::string path_;
  int fd_ = -1;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
  // The line that straddles a buffer boundary. Of a comment only the
  // part in the first buffer is kept; the rest is skipped, not stored.
  std::string carry_;
  std::uint64_t line_no_ = 0;
  util::Status status_;
};

// Writes "first second\n" lines through one buffer.
class TextPairWriter {
 public:
  // Creates or truncates `path`.
  TextPairWriter(const std::string& path, std::size_t buffer_bytes);
  // Closes the file if Close() was not called; its outcome is lost.
  ~TextPairWriter();

  TextPairWriter(const TextPairWriter&) = delete;
  TextPairWriter& operator=(const TextPairWriter&) = delete;

  // After a failed open or write the pair is dropped; Close() reports
  // the error.
  void Append(std::uint32_t first, std::uint32_t second);

  // Flushes the buffer and closes the file. Returns the first failed
  // open, write(2) or close(2) as kIoError.
  util::Status Close();

 private:
  void Flush();

  std::string path_;
  int fd_ = -1;
  std::vector<char> buffer_;
  std::size_t fill_ = 0;
  util::Status status_;
};

// Parses a text edge list at `text_path` into a DiskGraph backed by
// scratch files of `context`.
util::Result<DiskGraph> LoadTextEdgeList(io::IoContext* context,
                                         const std::string& text_path);

// Writes `graph`'s edges as a text edge list.
util::Status SaveTextEdgeList(io::IoContext* context, const DiskGraph& graph,
                              const std::string& text_path);

}  // namespace extscc::graph

#endif  // EXTSCC_GRAPH_GRAPH_IO_H_
