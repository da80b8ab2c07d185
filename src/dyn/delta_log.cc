#include "dyn/delta_log.h"

#include <cerrno>
#include <cstring>
#include <vector>

#include "io/block_file.h"
#include "io/checksum.h"
#include "io/crash_point.h"
#include "io/durability.h"

namespace extscc::dyn {

namespace {

std::uint32_t HeaderCrc(const DeltaLogHeader& header) {
  return io::Crc32(&header, sizeof(header) - sizeof(std::uint32_t));
}

}  // namespace

std::string DeltaLogPathFor(const std::string& artifact_path) {
  return artifact_path + ".dlog";
}

util::Result<DeltaLogState> ReadDeltaLog(io::IoContext* context,
                                         const std::string& path,
                                         std::uint64_t expected_base_version) {
  DeltaLogState state;
  io::BlockFile file(context, path, io::OpenMode::kRead);
  if (!file.status().ok()) {
    if (file.status().sys_errno() == ENOENT) {
      // No sidecar means nothing pending — consume the open failure the
      // BlockFile latched on the context so later phase-boundary polls
      // don't fail an unrelated solve on it.
      context->AbsorbIoError(file.status());
      return state;
    }
    return file.status();
  }
  state.exists = true;
  std::vector<unsigned char> block(file.block_size());
  const std::size_t got = file.ReadBlock(0, block.data());
  if (!file.status().ok()) return file.status();
  if (got < sizeof(DeltaLogHeader)) {
    return util::Status::Corruption("delta log " + path +
                                    ": short header read");
  }
  DeltaLogHeader header;
  std::memcpy(&header, block.data(), sizeof(header));
  if (std::memcmp(header.magic, kDeltaLogMagic, sizeof(kDeltaLogMagic)) != 0) {
    return util::Status::Corruption("not an extscc delta log (bad magic): " +
                                    path);
  }
  // The version is checked before the CRC: an older format's header has
  // another layout, so its CRC would not verify here, and it must read
  // as unsupported rather than damaged.
  if (header.format_version != kDeltaLogFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported delta log format version " +
        std::to_string(header.format_version));
  }
  if (HeaderCrc(header) != header.crc) {
    return util::Status::Corruption("delta log header checksum mismatch: " +
                                    path);
  }
  if (header.block_size != file.block_size()) {
    return util::Status::InvalidArgument(
        "delta log block size " + std::to_string(header.block_size) +
        " does not match context block size " +
        std::to_string(file.block_size()));
  }
  RETURN_IF_ERROR(file.Close());
  if (header.base_version != expected_base_version) {
    // Stale: a structural rewrite published after this count was
    // written (it is folded into the live artifact already), and the
    // crash window left the sidecar behind. Nothing pending.
    state.stale = true;
    return state;
  }
  state.pending_edges = header.pending_edges;
  return state;
}

util::Status WriteDeltaLog(io::IoContext* context, const std::string& path,
                           std::uint64_t base_version,
                           std::uint64_t pending_edges) {
  const std::string tmp = path + ".tmp";
  {
    io::BlockFile file(context, tmp, io::OpenMode::kTruncateWrite);
    RETURN_IF_ERROR(file.status());
    const std::size_t bs = file.block_size();

    DeltaLogHeader header{};
    std::memcpy(header.magic, kDeltaLogMagic, sizeof(header.magic));
    header.format_version = kDeltaLogFormatVersion;
    header.block_size = static_cast<std::uint32_t>(bs);
    header.base_version = base_version;
    header.pending_edges = pending_edges;
    header.crc = HeaderCrc(header);

    std::vector<unsigned char> block(bs, 0);
    std::memcpy(block.data(), &header, sizeof(header));
    file.WriteBlock(0, block.data(), bs);
    io::CrashPointHit("dlog.rewrite.sync");
    RETURN_IF_ERROR(file.Sync());
    RETURN_IF_ERROR(file.Close());
  }
  return io::DurableRename(context, tmp, path);
}

void RemoveDeltaLog(io::IoContext* context, const std::string& path) {
  // Delete ignores missing files on every device; a failing delete of a
  // now-stale sidecar is survivable (readers ignore it by base_version),
  // so the publish path must not fail on it.
  (void)context->ResolveDevice(path)->Delete(path);
}

}  // namespace extscc::dyn
