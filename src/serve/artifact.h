// Writer / reader for the serve artifact (artifact_format.h).
//
// ArtifactWriter streams records section by section through sinks that
// satisfy extsort::RecordSinkFor<T> — so solver output flows in via the
// same sink plumbing as every other stage (SinkAppendAllRecords from
// the solver's label file, SortingWriter::FinishInto, ...). All I/O
// goes through BlockFile on whatever StorageDevice the path resolves
// to, so artifact traffic is counted per device like everything else.
//
// ArtifactReader opens read-only, validates preamble/footer/meta
// checksums, and loads the resident sections (condensation DAG,
// interval labels, SCC sizes, summary) into memory; the node→SCC map —
// the one section proportional to |V| — stays on disk and is read by
// SccMapScanner, one sequential CRC-verified sweep per query batch.
// Every scanner owns its own BlockFile, so N reader threads scan one
// immutable artifact concurrently; the reader itself is const after
// Open.
//
// Error contract: wrong magic, bad CRC, truncation, inconsistent
// geometry, or checksummed values that contradict each other (a DAG
// that is not nodes 0..S-1, a map label >= S, map nodes out of order)
// → kCorruption; an unsupported format version or mismatched
// block size → kInvalidArgument; device-level failures keep their
// errno-typed codes. Corruption is always detected before a record is
// handed out — never a wrong answer.
#ifndef EXTSCC_SERVE_ARTIFACT_H_
#define EXTSCC_SERVE_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/interval_labels.h"
#include "extsort/record_sink.h"
#include "graph/graph_types.h"
#include "io/block_file.h"
#include "io/io_context.h"
#include "serve/artifact_format.h"
#include "util/status.h"

namespace extscc::serve {

class ArtifactWriter {
 public:
  // Opens `path` for truncating write on the device the context
  // resolves for it and writes the preamble block. `data_version` is
  // the monotonic data version stamped into the preamble (0 for a
  // fresh build-index; the dynamic updater passes old + 1). Check
  // status() / Finish() for I/O errors.
  ArtifactWriter(io::IoContext* context, const std::string& path,
                 std::uint64_t data_version = 0);

  // Typed append handle for the currently open section; satisfies
  // extsort::RecordSinkFor<T>.
  template <typename T>
  class SectionSink {
   public:
    void Append(const T& record) { writer_->AppendRaw(&record, sizeof(T)); }
    void AppendBatch(const T* records, std::size_t n) {
      writer_->AppendRaw(records, n * sizeof(T));
    }

   private:
    friend class ArtifactWriter;
    explicit SectionSink(ArtifactWriter* writer) : writer_(writer) {}
    ArtifactWriter* writer_;
  };

  // Starts section `id` on a fresh block boundary. One section may be
  // open at a time; every section id at most once per artifact.
  template <typename T>
  SectionSink<T> BeginSection(SectionId id) {
    BeginSectionRaw(id, sizeof(T));
    return SectionSink<T>(this);
  }

  // Closes the open section: zero-pads its final block and records the
  // directory entry.
  void EndSection();

  // Writes the meta region (directory + per-payload-block CRC table)
  // and the footer, then closes the file and returns its final status.
  // Call exactly once, after the last EndSection.
  util::Status Finish();

  // First I/O error of the underlying file (sticky).
  util::Status status() const { return file_->status(); }

 private:
  void BeginSectionRaw(SectionId id, std::size_t record_size);
  void AppendRaw(const void* data, std::size_t n);
  // Flushes buf_ as the next block (zero-padding the tail); payload
  // blocks record their CRC in the table.
  void FlushBlock(bool track_crc);

  io::IoContext* context_;
  std::unique_ptr<io::BlockFile> file_;
  std::vector<unsigned char> buf_;
  std::size_t fill_ = 0;
  std::uint64_t next_block_ = 0;
  std::optional<ArtifactSectionEntry> open_section_;
  std::vector<ArtifactSectionEntry> sections_;
  std::vector<std::uint32_t> block_crcs_;  // payload blocks, in order
  bool finished_ = false;
};

// Streaming CRC-verified reader of the node→SCC section, in node order.
// Obtained from ArtifactReader::OpenNodeSccScan; must not outlive its
// reader. Sequential block reads; a checksum mismatch, a short read, a
// label >= num_sccs() or a node id not above the previous one parks
// kCorruption and ends the stream (error-as-EOF, check status()), so
// every record handed out names a real SCC, in strictly increasing
// node order.
class SccMapScanner {
 public:
  // Appends up to `max` entries into `out`; returns the count (0 at end
  // of section or on a parked error).
  std::size_t NextBatch(graph::SccEntry* out, std::size_t max);
  bool Next(graph::SccEntry* entry);

  util::Status status() const { return status_; }

  // Model block reads this scanner has issued (for the sublinearity
  // assertions: one batch sweep costs at most the section's blocks).
  std::uint64_t blocks_read() const { return blocks_read_; }

 private:
  friend class ArtifactReader;
  SccMapScanner(io::IoContext* context, const std::string& path,
                const ArtifactSectionEntry& section,
                const std::vector<std::uint32_t>* block_crcs,
                std::uint64_t num_sccs);

  // Loads the next payload block into block_; false at end/error.
  bool RefillBlock();
  // The value check, once per block after its CRC: each record that ends
  // in the block must name an SCC < num_sccs_ and a node above the
  // previous record's. False parks kCorruption.
  bool CheckBlockRecords();

  std::unique_ptr<io::BlockFile> file_;
  ArtifactSectionEntry section_;
  const std::vector<std::uint32_t>* block_crcs_;  // owned by the reader
  std::uint64_t num_sccs_;
  std::uint64_t min_next_node_ = 0;  // previous record's node + 1
  // Head of a record that continues in the next block.
  unsigned char carry_[sizeof(graph::SccEntry)] = {};
  std::size_t carry_len_ = 0;
  std::vector<unsigned char> block_;
  std::size_t block_pos_ = 0;
  std::size_t block_payload_ = 0;  // valid payload bytes in block_
  std::uint64_t next_block_;       // absolute next block to read
  std::uint64_t payload_left_;     // section payload bytes not yet staged
  std::uint64_t blocks_read_ = 0;
  util::Status status_;
};

class ArtifactReader {
 public:
  // Opens and fully validates `path`, loading the resident sections.
  // See the error contract above.
  static util::Result<ArtifactReader> Open(io::IoContext* context,
                                           const std::string& path);

  // The one publish step for a finished candidate at `tmp_path`: a full
  // Open plus a sweep of the node→SCC map (checksums and values, as
  // SccMapScanner checks them), then io::DurableRename
  // over `path`. Only a candidate that proved readable can become the
  // live version. Returns the validated reader, re-pointed at `path`;
  // on any failure removes `tmp_path` and leaves `path` untouched.
  static util::Result<ArtifactReader> Publish(io::IoContext* context,
                                              const std::string& tmp_path,
                                              const std::string& path);

  ArtifactReader(ArtifactReader&&) = default;
  ArtifactReader& operator=(ArtifactReader&&) = default;

  const ArtifactSummary& summary() const { return summary_; }
  // Monotonic data version from the preamble (0 = initial build; the
  // dynamic updater bumps it on every published rewrite).
  std::uint64_t data_version() const { return data_version_; }
  // Resident interval labels over the condensation DAG.
  const app::IntervalLabels& labels() const { return labels_; }
  std::uint64_t num_sccs() const { return scc_sizes_.size(); }
  std::uint64_t scc_size(graph::SccId scc) const;

  // Geometry of the on-disk node→SCC map (first_block / payload_bytes /
  // record_count) — the tests' sublinearity bound.
  const ArtifactSectionEntry& node_scc_section() const {
    return node_scc_section_;
  }

  // Fresh sequential scanner over the node→SCC map. Thread-safe to call
  // concurrently; each scanner has its own file handle.
  SccMapScanner OpenNodeSccScan() const;

  const std::string& path() const { return path_; }

 private:
  ArtifactReader() = default;

  io::IoContext* context_ = nullptr;
  std::string path_;
  std::uint64_t data_version_ = 0;
  ArtifactSummary summary_{};
  app::IntervalLabels labels_;
  std::vector<std::uint64_t> scc_sizes_;
  ArtifactSectionEntry node_scc_section_{};
  std::vector<std::uint32_t> block_crcs_;  // payload blocks, in order
};

// Reads and validates ONLY the preamble block of the artifact at
// `path` and returns its data version — the one-block poll a serving
// process issues at batch boundaries to notice a published update
// without paying a full Open. Same error contract as Open (bad
// magic/CRC → kCorruption, unsupported version/block size →
// kInvalidArgument, device errors keep their errno codes).
util::Result<std::uint64_t> PeekArtifactVersion(io::IoContext* context,
                                                const std::string& path);

}  // namespace extscc::serve

#endif  // EXTSCC_SERVE_ARTIFACT_H_
