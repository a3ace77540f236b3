// CRC-32C (Castagnoli, poly 0x1EDC6F41) — the checksum of the telemetry
// wire format's frame check and the .model file integrity footer.
//
// On x86 CPUs with SSE4.2 the `crc32` instruction computes it, 8 bytes per
// instruction; the choice is made once, at run time, so the binary still
// runs on CPUs without SSE4.2. Elsewhere a table-driven software path
// (slice-by-4, ~1 byte/cycle) gives the same values. The value convention
// is the standard reflected CRC32C (init/final xor 0xFFFFFFFF):
// crc32c("123456789") == 0xE3069283.
#pragma once

#include <cstddef>
#include <cstdint>

namespace powerapi::util {

/// CRC-32C of `size` bytes at `data`.
std::uint32_t crc32c(const void* data, std::size_t size) noexcept;

/// Streaming extension: returns the CRC of `prefix + data` given
/// `crc = crc32c(prefix)`. crc32c(x) == crc32c_extend(crc32c(""), x).
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t size) noexcept;

/// crc32c_extend() on the table-driven path, whatever the CPU supports —
/// exposed so tests hold both paths to the same values on any machine.
std::uint32_t crc32c_extend_table(std::uint32_t crc, const void* data,
                                  std::size_t size) noexcept;

}  // namespace powerapi::util
