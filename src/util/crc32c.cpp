#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define POWERAPI_CRC32C_SSE42 1
#endif

namespace powerapi::util {

namespace {

/// Reflected CRC-32C polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // tables[0] is the classic byte-at-a-time table; tables[1..3] fold the
  // remaining bytes of a 32-bit word so the hot loop eats 4 bytes per step.
  std::array<std::array<std::uint32_t, 256>, 4> t{};
};

Tables build_tables() {
  Tables tables;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (std::size_t slice = 1; slice < 4; ++slice) {
      crc = tables.t[0][crc & 0xFFu] ^ (crc >> 8);
      tables.t[slice][i] = crc;
    }
  }
  return tables;
}

const Tables& tables() {
  static const Tables instance = build_tables();
  return instance;
}

std::uint32_t update(std::uint32_t crc, const unsigned char* p,
                     std::size_t size) noexcept {
  const Tables& tb = tables();
  while (size >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = tb.t[3][crc & 0xFFu] ^ tb.t[2][(crc >> 8) & 0xFFu] ^
          tb.t[1][(crc >> 16) & 0xFFu] ^ tb.t[0][crc >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef POWERAPI_CRC32C_SSE42
/// The `crc32` instruction, eight bytes at a time, then the tail bytewise.
/// It computes the same reflected CRC-32C as the tables.
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t size) noexcept {
  std::uint64_t wide = crc;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    size -= 8;
  }
  crc = static_cast<std::uint32_t>(wide);
  while (size-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

bool cpu_has_sse42() noexcept {
  // __builtin_cpu_supports reads data that __builtin_cpu_init fills in;
  // during static initialization that may not have happened yet.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}
#endif

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size) noexcept {
  return crc32c_extend(0, data, size);
}

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
#ifdef POWERAPI_CRC32C_SSE42
  static const bool hardware = cpu_has_sse42();
  if (hardware) return ~update_sse42(~crc, bytes, size);
#endif
  return ~update(~crc, bytes, size);
}

std::uint32_t crc32c_extend_table(std::uint32_t crc, const void* data,
                                  std::size_t size) noexcept {
  return ~update(~crc, static_cast<const unsigned char*>(data), size);
}

}  // namespace powerapi::util
