// On-disk layout of the serve artifact — the durable product of one
// Ext-SCC solve (docs/serving.md). A single file of whole blocks at the
// context's block size:
//
//   block 0                    preamble (magic, version, block size)
//   blocks 1 .. P              payload: sections, each starting on a
//                              fresh block boundary, records packed
//                              contiguously inside a section (a record
//                              may straddle two blocks), final block of
//                              a section zero-padded
//   blocks P+1 .. P+m          meta region: the section directory
//                              (ArtifactSectionEntry per section)
//                              followed by one CRC32 per payload block
//   last block                 footer (magic, geometry, meta CRC)
//
// Every byte is covered by some checksum: the preamble and footer carry
// their own CRCs, each payload block (padding included) has an entry in
// the meta CRC table, and the meta region is covered by footer.meta_crc.
// Readers therefore turn any bit flip or truncation into kCorruption
// instead of a wrong answer; an unknown format_version is
// kInvalidArgument (honest "too new", not corruption).
//
// All structs are fixed-layout PODs written natively (the artifact is
// host-endian, like every record file in the engine); each ends in its
// `crc` field with no tail padding, so a struct's CRC is Crc32 over
// sizeof(struct) - 4 leading bytes.
#ifndef EXTSCC_SERVE_ARTIFACT_FORMAT_H_
#define EXTSCC_SERVE_ARTIFACT_FORMAT_H_

#include <cstdint>

namespace extscc::serve {

inline constexpr char kArtifactMagic[8] = {'E', 'X', 'S', 'C',
                                           'C', 'A', 'R', 'T'};
inline constexpr char kArtifactEndMagic[8] = {'E', 'X', 'S', 'C',
                                              'C', 'E', 'N', 'D'};
inline constexpr std::uint32_t kArtifactFormatVersion = 1;

// Section identifiers. Values are stable on disk; new sections append.
enum class SectionId : std::uint32_t {
  kNodeSccMap = 1,  // graph::SccEntry, sorted by node — swept per batch
  kDagNodes = 2,    // graph::NodeId per condensation node (SCC label)
  kDagEdges = 3,    // graph::Edge over SCC labels, sorted by src
  kLabelRanks = 4,  // uint32, rounds x dag_nodes (round-major)
  kLabelMins = 5,   // uint32, rounds x dag_nodes (round-major)
  kSccSizes = 6,    // uint64 per dense SCC label
  kSummary = 7,     // exactly one ArtifactSummary
};

struct ArtifactPreamble {
  char magic[8];  // kArtifactMagic
  std::uint32_t format_version;
  std::uint32_t block_size;
  // Monotonic DATA version of the index: 0 for a fresh build-index,
  // bumped by one on every published incremental update (src/dyn/).
  // Distinct from format_version (the layout revision): a serving
  // process polls this one cheap block-0 read to learn that an update
  // republished the artifact.
  std::uint64_t data_version;
  std::uint32_t reserved1;
  std::uint32_t crc;  // Crc32 over the preceding 28 bytes
};
static_assert(sizeof(ArtifactPreamble) == 32);

struct ArtifactSectionEntry {
  std::uint32_t id;           // SectionId
  std::uint32_t record_size;  // bytes per record
  std::uint64_t first_block;  // absolute block index (>= 1)
  std::uint64_t payload_bytes;
  std::uint64_t record_count;  // payload_bytes / record_size
};
static_assert(sizeof(ArtifactSectionEntry) == 32);

struct ArtifactFooter {
  char magic[8];  // kArtifactEndMagic
  std::uint32_t format_version;
  std::uint32_t block_size;
  std::uint64_t payload_blocks;    // payload occupies blocks [1, 1 + this)
  std::uint64_t meta_first_block;  // == 1 + payload_blocks
  std::uint64_t meta_bytes;        // directory + payload-block CRC table
  std::uint64_t total_records;     // across all sections (diagnostic)
  std::uint32_t num_sections;
  std::uint32_t meta_crc;  // Crc32 over the meta region's meta_bytes
  std::uint32_t reserved;
  std::uint32_t crc;  // Crc32 over the preceding 60 bytes
};
static_assert(sizeof(ArtifactFooter) == 64);

// The kSummary section's single record: everything a serving process
// reports without touching the payload.
struct ArtifactSummary {
  std::uint64_t graph_nodes;
  std::uint64_t graph_edges;
  std::uint64_t num_sccs;
  std::uint64_t dag_nodes;  // == num_sccs
  std::uint64_t dag_edges;
  std::uint64_t largest_scc_size;
  std::uint64_t num_singletons;
  std::uint64_t label_seed;  // interval-label RNG seed used at build
  // Bow-tie split (Broder) around largest_scc; writers set
  // bowtie_computed = 1 (0 = the fields were never computed).
  std::uint64_t core_size;
  std::uint64_t in_size;
  std::uint64_t out_size;
  std::uint64_t other_size;
  std::uint32_t num_label_rounds;
  std::uint32_t largest_scc;  // SccId of the largest component
  std::uint32_t core_scc;     // == largest_scc when bow-tie computed
  std::uint32_t bowtie_computed;
};
static_assert(sizeof(ArtifactSummary) == 112);

}  // namespace extscc::serve

#endif  // EXTSCC_SERVE_ARTIFACT_FORMAT_H_
