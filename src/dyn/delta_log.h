// The pending-edge counter: the cheap half of incremental SCC
// maintenance. A batch of inserted edges that provably cannot change
// the SCC partition (every edge is intra-SCC or duplicates an existing
// condensation edge) does not need an artifact rewrite — the updater
// adds the batch's size to a sidecar counter beside the artifact and
// returns. The counter exists only so the summary's edge count stays
// reconstructible: artifact.graph_edges + pending_edges == edges of the
// union graph. Nothing reads the endpoints of those edges, so the
// sidecar stores their number, not the edges. The next STRUCTURAL batch
// folds the count into its rewrite and deletes the sidecar.
//
// Format v3 is one block at the context block size, written through
// BlockFile (so device routing and fault injection compose and the
// write is a model I/O) and zero-padded past the header:
//
//   DeltaLogHeader (magic, version, block size, base_version,
//                   pending_edges, CRC)
//
// Every write replaces the whole block through the durable publish
// protocol the artifact uses: write "<path>.tmp", fsync, rename, fsync
// the parent directory. A kill at any instant leaves the old count or
// the new one, so there is no torn state to recover, and any damage (a
// short header, a bad magic or CRC) is kCorruption.
//
// The header names the artifact data version the count extends
// (`base_version`). A sidecar whose base_version does not match the
// live artifact is STALE — a rewrite published and already folded the
// count in, and the crash window between rename and delete left the
// sidecar behind — and reads as nothing pending.
#ifndef EXTSCC_DYN_DELTA_LOG_H_
#define EXTSCC_DYN_DELTA_LOG_H_

#include <cstdint>
#include <string>

#include "io/io_context.h"
#include "util/status.h"

namespace extscc::dyn {

inline constexpr char kDeltaLogMagic[8] = {'E', 'X', 'S', 'C',
                                           'C', 'D', 'L', 'G'};
inline constexpr std::uint32_t kDeltaLogFormatVersion = 3;

struct DeltaLogHeader {
  char magic[8];  // kDeltaLogMagic
  std::uint32_t format_version;
  std::uint32_t block_size;
  std::uint64_t base_version;   // artifact data version the count extends
  std::uint64_t pending_edges;  // raw edges not yet in the artifact
  std::uint32_t reserved;
  std::uint32_t crc;  // Crc32 over the preceding 36 bytes
};
static_assert(sizeof(DeltaLogHeader) == 40);

// The sidecar path: "<artifact>.dlog".
std::string DeltaLogPathFor(const std::string& artifact_path);

struct DeltaLogState {
  bool exists = false;  // false: no sidecar (nothing pending)
  bool stale = false;   // base_version mismatch (nothing pending)
  std::uint64_t pending_edges = 0;
};

// Reads the sidecar at `path`. A missing file reports exists=false and
// a stale one stale=true, both with 0 pending edges. Errors: a short
// header, a bad magic or a bad CRC is kCorruption; an unsupported
// format version or block size is kInvalidArgument; device failures
// propagate.
util::Result<DeltaLogState> ReadDeltaLog(io::IoContext* context,
                                         const std::string& path,
                                         std::uint64_t expected_base_version);

// Atomically and durably replaces the sidecar at `path` with one
// recording `pending_edges` for artifact version `base_version`: write
// "<path>.tmp", fsync, rename, fsync the parent directory.
util::Status WriteDeltaLog(io::IoContext* context, const std::string& path,
                           std::uint64_t base_version,
                           std::uint64_t pending_edges);

// Best-effort removal of the sidecar (after a structural rewrite folded
// it in). A missing sidecar is not an error.
void RemoveDeltaLog(io::IoContext* context, const std::string& path);

}  // namespace extscc::dyn

#endif  // EXTSCC_DYN_DELTA_LOG_H_
