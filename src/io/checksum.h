// Software CRC32 (reflected, polynomial 0xEDB88320 — the zlib/ethernet
// CRC). Two kinds of caller: the optional per-block trailers on scratch
// files (IoContextOptions::checksum_blocks, off by default), and the
// always-on integrity checks of the durable formats. The serve artifact
// CRCs every payload block when it is written, opened and published,
// and on every SccMapScanner sweep a query batch makes; delta-log
// records and checkpoint manifests carry CRCs too. A plain table-driven
// byte-at-a-time implementation, so on the serve path its cost is paid
// per block per query batch.
#ifndef EXTSCC_IO_CHECKSUM_H_
#define EXTSCC_IO_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace extscc::io {

namespace internal {

inline const std::array<std::uint32_t, 256>& Crc32Table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace internal

// CRC32 of `n` bytes at `data`.
inline std::uint32_t Crc32(const void* data, std::size_t n) {
  const auto& table = internal::Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// Trailer geometry of a checksummed block: 4 little-endian CRC bytes
// appended after the payload, so a block's physical stride is
// block_size + kChecksumTrailerBytes (see docs/robustness.md).
constexpr std::size_t kChecksumTrailerBytes = 4;

inline void EncodeChecksumTrailer(std::uint32_t crc, void* out4) {
  auto* p = static_cast<unsigned char*>(out4);
  p[0] = static_cast<unsigned char>(crc);
  p[1] = static_cast<unsigned char>(crc >> 8);
  p[2] = static_cast<unsigned char>(crc >> 16);
  p[3] = static_cast<unsigned char>(crc >> 24);
}

inline std::uint32_t DecodeChecksumTrailer(const void* in4) {
  const auto* p = static_cast<const unsigned char*>(in4);
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace extscc::io

#endif  // EXTSCC_IO_CHECKSUM_H_
