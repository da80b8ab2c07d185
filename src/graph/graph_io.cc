#include "graph/graph_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "graph/graph_builder.h"
#include "io/record_stream.h"

namespace extscc::graph {

namespace {

// The longest line TextPairWriter emits: two 10-digit values, a blank
// and a newline.
constexpr std::size_t kMaxPairLine = 22;

bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

const char* SkipBlanks(const char* p, const char* end) {
  while (p < end && IsBlank(*p)) ++p;
  return p;
}

// Parses the digits at `p` into *value. Returns the end of the digits,
// or nullptr when `p` does not start with one. A value that does not fit
// below kInvalidNode clears *in_range.
const char* ParseId(const char* p, const char* end, std::uint32_t* value,
                    bool* in_range) {
  const auto [past, ec] = std::from_chars(p, end, *value);
  if (ec == std::errc::invalid_argument) return nullptr;
  if (ec == std::errc::result_out_of_range || *value == kInvalidNode) {
    *in_range = false;
  }
  return past;
}

}  // namespace

TextPairReader::TextPairReader(const std::string& path,
                               std::size_t buffer_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    status_ = util::Status::NotFound("cannot open " + path + ": " +
                                     std::strerror(errno));
    return;
  }
  buffer_.resize(std::max<std::size_t>(buffer_bytes, 1));
}

TextPairReader::~TextPairReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool TextPairReader::Fill() {
  pos_ = end_ = 0;
  while (!eof_) {
    const ssize_t n = ::read(fd_, buffer_.data(), buffer_.size());
    if (n > 0) {
      end_ = static_cast<std::size_t>(n);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      status_ = util::Status::IoError(
          "read(" + path_ + ") failed: " + std::strerror(errno), errno);
    }
    eof_ = true;
  }
  return false;
}

bool TextPairReader::NextLine(std::string_view* line) {
  carry_.clear();
  while (true) {
    const char* begin = buffer_.data() + pos_;
    const std::size_t left = end_ - pos_;
    const char* newline =
        static_cast<const char*>(std::memchr(begin, '\n', left));
    const std::size_t len = newline != nullptr
                                ? static_cast<std::size_t>(newline - begin)
                                : left;
    if (newline != nullptr && carry_.empty()) {
      *line = std::string_view(begin, len);
      pos_ += len + 1;
      return true;
    }
    if (carry_.empty() || (carry_[0] != '#' && carry_[0] != '%')) {
      carry_.append(begin, len);
    }
    if (newline != nullptr) {
      *line = carry_;
      pos_ += len + 1;
      return true;
    }
    if (!Fill()) {
      // The last line may lack its '\n'.
      *line = carry_;
      return status_.ok() && !carry_.empty();
    }
  }
}

bool TextPairReader::Next(std::uint32_t* first, std::uint32_t* second) {
  std::string_view line;
  while (status_.ok() && NextLine(&line)) {
    ++line_no_;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const char* end = line.data() + line.size();
    bool in_range = true;
    const char* p =
        ParseId(SkipBlanks(line.data(), end), end, first, &in_range);
    if (p != nullptr && p < end && IsBlank(*p)) {
      p = ParseId(SkipBlanks(p, end), end, second, &in_range);
    } else {
      p = nullptr;
    }
    if (p == nullptr) {
      status_ = util::Status::Corruption(
          "malformed line " + std::to_string(line_no_) + " in " + path_ +
          ": '" + std::string(line) + "'");
    } else if (!in_range) {
      status_ = util::Status::InvalidArgument(
          "node id out of 32-bit range at line " + std::to_string(line_no_) +
          " in " + path_);
    }
    return status_.ok();
  }
  return false;
}

TextPairWriter::TextPairWriter(const std::string& path,
                               std::size_t buffer_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    status_ = util::Status::IoError("cannot create " + path + ": " +
                                        std::strerror(errno),
                                    errno);
    return;
  }
  buffer_.resize(std::max(buffer_bytes, kMaxPairLine));
}

TextPairWriter::~TextPairWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void TextPairWriter::Append(std::uint32_t first, std::uint32_t second) {
  if (!status_.ok()) return;
  if (buffer_.size() - fill_ < kMaxPairLine) Flush();
  char* out = buffer_.data() + fill_;
  char* const limit = buffer_.data() + buffer_.size();
  out = std::to_chars(out, limit, first).ptr;
  *out++ = ' ';
  out = std::to_chars(out, limit, second).ptr;
  *out++ = '\n';
  fill_ = static_cast<std::size_t>(out - buffer_.data());
}

void TextPairWriter::Flush() {
  std::size_t done = 0;
  while (status_.ok() && done < fill_) {
    const ssize_t n = ::write(fd_, buffer_.data() + done, fill_ - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const int err = n < 0 ? errno : ENOSPC;
      status_ = util::Status::IoError(
          "write(" + path_ + ") failed: " + std::strerror(err), err);
    } else {
      done += static_cast<std::size_t>(n);
    }
  }
  fill_ = 0;
}

util::Status TextPairWriter::Close() {
  if (fd_ < 0) return status_;
  Flush();
  if (::close(fd_) != 0 && status_.ok()) {
    status_ = util::Status::IoError(
        "close(" + path_ + ") failed: " + std::strerror(errno), errno);
  }
  fd_ = -1;
  return status_;
}

util::Result<DiskGraph> LoadTextEdgeList(io::IoContext* context,
                                         const std::string& text_path) {
  TextPairReader reader(text_path, context->block_size());
  if (!reader.status().ok()) return reader.status();
  GraphBuilder builder(context);
  NodeId src = 0, dst = 0;
  while (reader.Next(&src, &dst)) builder.AddEdge(src, dst);
  if (!reader.status().ok()) return reader.status();
  return builder.Finish();
}

util::Status SaveTextEdgeList(io::IoContext* context, const DiskGraph& graph,
                              const std::string& text_path) {
  TextPairWriter writer(text_path, context->block_size());
  io::RecordReader<Edge> reader(context, graph.edge_path);
  Edge e;
  while (reader.Next(&e)) writer.Append(e.src, e.dst);
  RETURN_IF_ERROR(reader.status());
  return writer.Close();
}

}  // namespace extscc::graph
