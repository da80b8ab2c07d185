#include "serve/artifact.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "io/checksum.h"
#include "io/crash_point.h"
#include "util/logging.h"

namespace extscc::serve {

namespace {

using graph::Edge;
using graph::NodeId;

// CRC of a header struct whose last field is its u32 crc.
template <typename H>
std::uint32_t HeaderCrc(const H& header) {
  return io::Crc32(&header, sizeof(H) - sizeof(std::uint32_t));
}

std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

util::Status ShortRead(const io::BlockFile& file, const char* what) {
  if (!file.status().ok()) return file.status();
  return util::Status::Corruption(std::string("artifact ") + what +
                                  ": short read");
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactWriter

ArtifactWriter::ArtifactWriter(io::IoContext* context, const std::string& path,
                               std::uint64_t data_version)
    : context_(context),
      file_(std::make_unique<io::BlockFile>(context, path,
                                            io::OpenMode::kTruncateWrite)),
      buf_(context->block_size(), 0) {
  ArtifactPreamble preamble{};
  std::memcpy(preamble.magic, kArtifactMagic, sizeof(preamble.magic));
  preamble.format_version = kArtifactFormatVersion;
  preamble.block_size = static_cast<std::uint32_t>(context->block_size());
  preamble.data_version = data_version;
  preamble.crc = HeaderCrc(preamble);
  std::memcpy(buf_.data(), &preamble, sizeof(preamble));
  fill_ = sizeof(preamble);
  FlushBlock(/*track_crc=*/false);
}

void ArtifactWriter::FlushBlock(bool track_crc) {
  const std::size_t bs = buf_.size();
  std::memset(buf_.data() + fill_, 0, bs - fill_);
  if (track_crc) block_crcs_.push_back(io::Crc32(buf_.data(), bs));
  file_->WriteBlock(next_block_++, buf_.data(), bs);
  fill_ = 0;
}

void ArtifactWriter::BeginSectionRaw(SectionId id, std::size_t record_size) {
  CHECK(!finished_);
  CHECK(!open_section_.has_value()) << "one section at a time";
  CHECK_EQ(fill_, 0u);  // sections start on fresh block boundaries
  CHECK_GT(record_size, 0u);
  for (const ArtifactSectionEntry& entry : sections_) {
    CHECK_NE(entry.id, static_cast<std::uint32_t>(id))
        << "section written twice";
  }
  ArtifactSectionEntry entry{};
  entry.id = static_cast<std::uint32_t>(id);
  entry.record_size = static_cast<std::uint32_t>(record_size);
  entry.first_block = next_block_;
  open_section_ = entry;
}

void ArtifactWriter::AppendRaw(const void* data, std::size_t n) {
  CHECK(open_section_.has_value()) << "append outside a section";
  const auto* src = static_cast<const unsigned char*>(data);
  open_section_->payload_bytes += n;
  const std::size_t bs = buf_.size();
  while (n > 0) {
    const std::size_t take = std::min(n, bs - fill_);
    std::memcpy(buf_.data() + fill_, src, take);
    fill_ += take;
    src += take;
    n -= take;
    if (fill_ == bs) FlushBlock(/*track_crc=*/true);
  }
}

void ArtifactWriter::EndSection() {
  CHECK(open_section_.has_value());
  if (fill_ > 0) FlushBlock(/*track_crc=*/true);
  ArtifactSectionEntry entry = *open_section_;
  CHECK_EQ(entry.payload_bytes % entry.record_size, 0u)
      << "section payload is not whole records";
  entry.record_count = entry.payload_bytes / entry.record_size;
  sections_.push_back(entry);
  open_section_.reset();
}

util::Status ArtifactWriter::Finish() {
  CHECK(!finished_) << "Finish called twice";
  CHECK(!open_section_.has_value()) << "unfinished section";
  finished_ = true;

  const std::uint64_t meta_first_block = next_block_;
  const std::uint64_t payload_blocks = meta_first_block - 1;
  CHECK_EQ(block_crcs_.size(), payload_blocks);

  // Meta region: the directory, then the payload-block CRC table.
  std::vector<unsigned char> meta(sections_.size() *
                                      sizeof(ArtifactSectionEntry) +
                                  block_crcs_.size() * sizeof(std::uint32_t));
  unsigned char* cursor = meta.data();
  std::memcpy(cursor, sections_.data(),
              sections_.size() * sizeof(ArtifactSectionEntry));
  cursor += sections_.size() * sizeof(ArtifactSectionEntry);
  std::memcpy(cursor, block_crcs_.data(),
              block_crcs_.size() * sizeof(std::uint32_t));
  const std::uint32_t meta_crc = io::Crc32(meta.data(), meta.size());
  for (std::size_t off = 0; off < meta.size();) {
    const std::size_t take = std::min(meta.size() - off, buf_.size() - fill_);
    std::memcpy(buf_.data() + fill_, meta.data() + off, take);
    fill_ += take;
    off += take;
    if (fill_ == buf_.size()) FlushBlock(/*track_crc=*/false);
  }
  if (fill_ > 0) FlushBlock(/*track_crc=*/false);

  ArtifactFooter footer{};
  std::memcpy(footer.magic, kArtifactEndMagic, sizeof(footer.magic));
  footer.format_version = kArtifactFormatVersion;
  footer.block_size = static_cast<std::uint32_t>(buf_.size());
  footer.payload_blocks = payload_blocks;
  footer.meta_first_block = meta_first_block;
  footer.meta_bytes = meta.size();
  for (const ArtifactSectionEntry& entry : sections_) {
    footer.total_records += entry.record_count;
  }
  footer.num_sections = static_cast<std::uint32_t>(sections_.size());
  footer.meta_crc = meta_crc;
  footer.crc = HeaderCrc(footer);
  std::memcpy(buf_.data(), &footer, sizeof(footer));
  fill_ = sizeof(footer);
  FlushBlock(/*track_crc=*/false);

  // Every ArtifactWriter target is a publish destination (a serve
  // artifact or the tmp file about to be renamed over one), so the
  // bytes must be durable before the rename makes them reachable —
  // renaming an unsynced file durably publishes garbage. Counted in
  // sync_calls, never as a model I/O.
  io::CrashPointHit("publish.file.sync");
  RETURN_IF_ERROR(file_->Sync());
  return file_->Close();
}

// ---------------------------------------------------------------------------
// SccMapScanner

SccMapScanner::SccMapScanner(io::IoContext* context, const std::string& path,
                             const ArtifactSectionEntry& section,
                             const std::vector<std::uint32_t>* block_crcs)
    : file_(std::make_unique<io::BlockFile>(context, path,
                                            io::OpenMode::kRead)),
      section_(section),
      block_crcs_(block_crcs),
      block_(context->block_size()),
      next_block_(section.first_block),
      payload_left_(section.payload_bytes) {
  status_ = file_->status();
}

bool SccMapScanner::RefillBlock() {
  if (!status_.ok() || payload_left_ == 0) return false;
  const std::size_t bs = block_.size();
  if (file_->ReadBlock(next_block_, block_.data()) != bs) {
    status_ = ShortRead(*file_, "node->SCC section");
    return false;
  }
  const std::uint64_t crc_index = next_block_ - 1;
  if (crc_index >= block_crcs_->size() ||
      io::Crc32(block_.data(), bs) != (*block_crcs_)[crc_index]) {
    status_ = util::Status::Corruption(
        "artifact block " + std::to_string(next_block_) +
        ": checksum mismatch in node->SCC section");
    return false;
  }
  ++blocks_read_;
  ++next_block_;
  block_payload_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(payload_left_, bs));
  payload_left_ -= block_payload_;
  block_pos_ = 0;
  return true;
}

std::size_t SccMapScanner::NextBatch(graph::SccEntry* out, std::size_t max) {
  constexpr std::size_t kRec = sizeof(graph::SccEntry);
  std::size_t produced = 0;
  while (produced < max) {
    if (block_pos_ == block_payload_ && !RefillBlock()) break;
    const std::size_t avail = block_payload_ - block_pos_;
    const std::size_t whole = std::min(max - produced, avail / kRec);
    if (whole == 0) {
      // A record straddling the block boundary: the tail of this block
      // plus the head of the next (possible only when the record size
      // does not divide the block size).
      unsigned char rec[kRec];
      std::size_t have = 0;
      while (have < kRec) {
        if (block_pos_ == block_payload_ && !RefillBlock()) {
          if (status_.ok() && have > 0) {
            status_ = util::Status::Corruption(
                "artifact node->SCC section ends mid-record");
          }
          return produced;
        }
        const std::size_t take = std::min(
            kRec - have, block_payload_ - block_pos_);
        std::memcpy(rec + have, block_.data() + block_pos_, take);
        have += take;
        block_pos_ += take;
      }
      std::memcpy(&out[produced++], rec, kRec);
      continue;
    }
    std::memcpy(&out[produced], block_.data() + block_pos_, whole * kRec);
    produced += whole;
    block_pos_ += whole * kRec;
  }
  return produced;
}

bool SccMapScanner::Next(graph::SccEntry* entry) {
  return NextBatch(entry, 1) == 1;
}

// ---------------------------------------------------------------------------
// ArtifactReader

namespace {

// Reads and CRC-verifies a whole section into `out` (payload bytes
// only, padding stripped).
util::Status ReadSectionBytes(io::BlockFile* file,
                              const ArtifactSectionEntry& entry,
                              const std::vector<std::uint32_t>& block_crcs,
                              std::vector<unsigned char>* out) {
  const std::size_t bs = file->block_size();
  out->resize(static_cast<std::size_t>(entry.payload_bytes));
  std::vector<unsigned char> block(bs);
  std::uint64_t off = 0;
  for (std::uint64_t b = entry.first_block; off < entry.payload_bytes; ++b) {
    if (file->ReadBlock(b, block.data()) != bs) {
      return ShortRead(*file, "section");
    }
    const std::uint64_t crc_index = b - 1;
    if (crc_index >= block_crcs.size() ||
        io::Crc32(block.data(), bs) != block_crcs[crc_index]) {
      return util::Status::Corruption("artifact block " + std::to_string(b) +
                                      ": checksum mismatch");
    }
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(entry.payload_bytes - off, bs));
    std::memcpy(out->data() + off, block.data(), take);
    off += take;
  }
  return util::Status::Ok();
}

template <typename T>
util::Result<std::vector<T>> ReadSectionRecords(
    io::BlockFile* file, const ArtifactSectionEntry& entry,
    const std::vector<std::uint32_t>& block_crcs) {
  std::vector<unsigned char> bytes;
  RETURN_IF_ERROR(ReadSectionBytes(file, entry, block_crcs, &bytes));
  std::vector<T> records(bytes.size() / sizeof(T));
  // An empty section leaves data() null, and memcpy's pointers must be
  // valid even for zero bytes.
  if (!records.empty()) {
    std::memcpy(records.data(), bytes.data(), records.size() * sizeof(T));
  }
  return records;
}

// Reads block 0 and validates magic/CRC/version/block size — the part
// of the open protocol that PeekArtifactVersion shares with Open.
// Checksum before version: a flipped version byte is corruption; only
// an intact preamble can be honestly "too new".
util::Result<ArtifactPreamble> ReadPreamble(io::BlockFile* file,
                                            const std::string& path,
                                            std::size_t bs) {
  std::vector<unsigned char> block(bs);
  if (file->ReadBlock(0, block.data()) != bs) {
    return ShortRead(*file, "preamble");
  }
  ArtifactPreamble preamble;
  std::memcpy(&preamble, block.data(), sizeof(preamble));
  if (std::memcmp(preamble.magic, kArtifactMagic, sizeof(kArtifactMagic)) !=
      0) {
    return util::Status::Corruption("not an extscc artifact (bad magic): " +
                                    path);
  }
  if (HeaderCrc(preamble) != preamble.crc) {
    return util::Status::Corruption("artifact preamble checksum mismatch");
  }
  if (preamble.format_version != kArtifactFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported artifact format version " +
        std::to_string(preamble.format_version) + " (reader supports " +
        std::to_string(kArtifactFormatVersion) + ")");
  }
  if (preamble.block_size != bs) {
    return util::Status::InvalidArgument(
        "artifact block size " + std::to_string(preamble.block_size) +
        " does not match context block size " + std::to_string(bs));
  }
  return preamble;
}

// Expected record sizes per known section id (0 = unknown id, accepted
// for forward compatibility but never loaded).
std::uint32_t ExpectedRecordSize(std::uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kNodeSccMap:
      return sizeof(graph::SccEntry);
    case SectionId::kDagNodes:
      return sizeof(graph::NodeId);
    case SectionId::kDagEdges:
      return sizeof(graph::Edge);
    case SectionId::kLabelRanks:
    case SectionId::kLabelMins:
      return sizeof(std::uint32_t);
    case SectionId::kSccSizes:
      return sizeof(std::uint64_t);
    case SectionId::kSummary:
      return sizeof(ArtifactSummary);
  }
  return 0;
}

}  // namespace

util::Result<ArtifactReader> ArtifactReader::Open(io::IoContext* context,
                                                  const std::string& path) {
  io::BlockFile file(context, path, io::OpenMode::kRead);
  RETURN_IF_ERROR(file.status());
  const std::size_t bs = context->block_size();
  const std::uint64_t size = file.size_bytes();
  if (size < 2 * bs || size % bs != 0) {
    return util::Status::Corruption(
        "artifact " + path + ": size " + std::to_string(size) +
        " is not a whole number of blocks (truncated?)");
  }
  const std::uint64_t num_blocks = size / bs;
  std::vector<unsigned char> block(bs);

  auto preamble_result = ReadPreamble(&file, path, bs);
  RETURN_IF_ERROR(preamble_result.status());
  const ArtifactPreamble preamble = preamble_result.value();

  // Footer.
  if (file.ReadBlock(num_blocks - 1, block.data()) != bs) {
    return ShortRead(file, "footer");
  }
  ArtifactFooter footer;
  std::memcpy(&footer, block.data(), sizeof(footer));
  if (std::memcmp(footer.magic, kArtifactEndMagic,
                  sizeof(kArtifactEndMagic)) != 0) {
    return util::Status::Corruption(
        "artifact footer magic mismatch (truncated?)");
  }
  if (HeaderCrc(footer) != footer.crc) {
    return util::Status::Corruption("artifact footer checksum mismatch");
  }
  if (footer.format_version != kArtifactFormatVersion ||
      footer.block_size != bs) {
    return util::Status::Corruption(
        "artifact footer disagrees with preamble");
  }
  const std::uint64_t meta_blocks = CeilDiv(footer.meta_bytes, bs);
  if (footer.meta_first_block != footer.payload_blocks + 1 ||
      footer.num_sections > 64 ||
      footer.meta_bytes !=
          footer.num_sections * sizeof(ArtifactSectionEntry) +
              footer.payload_blocks * sizeof(std::uint32_t) ||
      1 + footer.payload_blocks + meta_blocks + 1 != num_blocks) {
    return util::Status::Corruption("artifact geometry is inconsistent");
  }

  // Meta region: section directory + payload-block CRC table.
  std::vector<unsigned char> meta(
      static_cast<std::size_t>(meta_blocks * bs));
  for (std::uint64_t m = 0; m < meta_blocks; ++m) {
    if (file.ReadBlock(footer.meta_first_block + m,
                       meta.data() + m * bs) != bs) {
      return ShortRead(file, "meta region");
    }
  }
  if (io::Crc32(meta.data(), static_cast<std::size_t>(footer.meta_bytes)) !=
      footer.meta_crc) {
    return util::Status::Corruption("artifact meta checksum mismatch");
  }
  std::vector<ArtifactSectionEntry> sections(footer.num_sections);
  std::memcpy(sections.data(), meta.data(),
              sections.size() * sizeof(ArtifactSectionEntry));
  ArtifactReader reader;
  reader.block_crcs_.resize(
      static_cast<std::size_t>(footer.payload_blocks));
  std::memcpy(reader.block_crcs_.data(),
              meta.data() + sections.size() * sizeof(ArtifactSectionEntry),
              reader.block_crcs_.size() * sizeof(std::uint32_t));

  // Directory sanity + lookup.
  const ArtifactSectionEntry* by_id[8] = {};
  for (const ArtifactSectionEntry& entry : sections) {
    const std::uint32_t expected = ExpectedRecordSize(entry.id);
    if (entry.record_size == 0 || entry.record_size > bs ||
        (expected != 0 && entry.record_size != expected) ||
        entry.payload_bytes != entry.record_count * entry.record_size ||
        entry.first_block < 1 ||
        entry.first_block + CeilDiv(entry.payload_bytes, bs) >
            1 + footer.payload_blocks) {
      return util::Status::Corruption("artifact section directory entry " +
                                      std::to_string(entry.id) +
                                      " is inconsistent");
    }
    if (entry.id < 8) {
      if (by_id[entry.id] != nullptr) {
        return util::Status::Corruption("artifact has duplicate section " +
                                        std::to_string(entry.id));
      }
      by_id[entry.id] = &entry;
    }
  }
  auto require = [&](SectionId id) -> const ArtifactSectionEntry* {
    return by_id[static_cast<std::uint32_t>(id)];
  };
  for (const SectionId id :
       {SectionId::kNodeSccMap, SectionId::kDagNodes, SectionId::kDagEdges,
        SectionId::kLabelRanks, SectionId::kLabelMins, SectionId::kSccSizes,
        SectionId::kSummary}) {
    if (require(id) == nullptr) {
      return util::Status::Corruption(
          "artifact is missing section " +
          std::to_string(static_cast<std::uint32_t>(id)));
    }
  }

  // Resident sections.
  {
    const ArtifactSectionEntry& entry = *require(SectionId::kSummary);
    if (entry.record_count != 1) {
      return util::Status::Corruption(
          "artifact summary section must hold exactly one record");
    }
    auto records = ReadSectionRecords<ArtifactSummary>(&file, entry,
                                                       reader.block_crcs_);
    RETURN_IF_ERROR(records.status());
    reader.summary_ = records.value()[0];
  }
  {
    auto sizes = ReadSectionRecords<std::uint64_t>(
        &file, *require(SectionId::kSccSizes), reader.block_crcs_);
    RETURN_IF_ERROR(sizes.status());
    reader.scc_sizes_ = std::move(sizes).value();
  }
  auto dag_nodes = ReadSectionRecords<NodeId>(
      &file, *require(SectionId::kDagNodes), reader.block_crcs_);
  RETURN_IF_ERROR(dag_nodes.status());
  auto dag_edges = ReadSectionRecords<Edge>(
      &file, *require(SectionId::kDagEdges), reader.block_crcs_);
  RETURN_IF_ERROR(dag_edges.status());
  std::vector<std::uint32_t> rank_words, min_words;
  {
    auto ranks = ReadSectionRecords<std::uint32_t>(
        &file, *require(SectionId::kLabelRanks), reader.block_crcs_);
    RETURN_IF_ERROR(ranks.status());
    rank_words = std::move(ranks).value();
    auto mins = ReadSectionRecords<std::uint32_t>(
        &file, *require(SectionId::kLabelMins), reader.block_crcs_);
    RETURN_IF_ERROR(mins.status());
    min_words = std::move(mins).value();
  }
  reader.node_scc_section_ = *require(SectionId::kNodeSccMap);

  // Cross-section consistency: all CRC-valid, but the summary must
  // agree with what the sections actually hold.
  const ArtifactSummary& summary = reader.summary_;
  graph::Digraph dag(std::move(dag_nodes).value(), dag_edges.value());
  const std::uint64_t n = dag.num_nodes();
  const std::uint32_t rounds = summary.num_label_rounds;
  if (summary.num_sccs != reader.scc_sizes_.size() ||
      summary.dag_nodes != n || summary.dag_edges != dag.num_edges() ||
      summary.graph_nodes != reader.node_scc_section_.record_count ||
      rounds == 0 || rank_words.size() != rounds * n ||
      min_words.size() != rounds * n) {
    return util::Status::Corruption(
        "artifact summary disagrees with its sections");
  }
  std::vector<std::vector<std::uint32_t>> ranks(rounds), mins(rounds);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    ranks[r].assign(rank_words.begin() + r * n,
                    rank_words.begin() + (r + 1) * n);
    mins[r].assign(min_words.begin() + r * n,
                   min_words.begin() + (r + 1) * n);
  }
  auto labels = app::IntervalLabels::FromParts(std::move(dag),
                                               std::move(ranks),
                                               std::move(mins));
  if (!labels.ok()) {
    return util::Status::Corruption("artifact interval labels invalid: " +
                                    labels.status().message());
  }
  reader.labels_ = std::move(labels).value();
  reader.context_ = context;
  reader.path_ = path;
  reader.data_version_ = preamble.data_version;
  RETURN_IF_ERROR(file.Close());
  return reader;
}

std::uint64_t ArtifactReader::scc_size(graph::SccId scc) const {
  CHECK_LT(scc, scc_sizes_.size()) << "unknown SCC " << scc;
  return scc_sizes_[scc];
}

SccMapScanner ArtifactReader::OpenNodeSccScan() const {
  return SccMapScanner(context_, path_, node_scc_section_, &block_crcs_);
}

util::Result<std::uint64_t> PeekArtifactVersion(io::IoContext* context,
                                                const std::string& path) {
  io::BlockFile file(context, path, io::OpenMode::kRead);
  RETURN_IF_ERROR(file.status());
  const std::size_t bs = context->block_size();
  if (file.size_bytes() < bs) {
    return util::Status::Corruption("artifact " + path +
                                    ": shorter than one block (truncated?)");
  }
  auto preamble = ReadPreamble(&file, path, bs);
  RETURN_IF_ERROR(preamble.status());
  RETURN_IF_ERROR(file.Close());
  return preamble.value().data_version;
}

}  // namespace extscc::serve
