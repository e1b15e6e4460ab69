#include "src/common/crc32c.h"

#include <array>

#include "src/common/crc32c_internal.h"

#if defined(__x86_64__) && defined(__GNUC__)  // GCC and Clang
#define SSIDB_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace ssidb {
namespace {

// CRC32C polynomial, reflected representation.
constexpr uint32_t kPoly = 0x82f63b78u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the classic byte-at-a-time table. kTables[k][b] is the CRC
// of byte b followed by k zero bytes, so eight lookups advance the register
// over one 8-byte word (slicing-by-8).
constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

// The checksum consumes bytes in address order; a little-endian word puts
// the first byte in its low bits on every host.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#ifdef SSIDB_CRC32C_SSE42

inline uint64_t LoadLE64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLE32(p)) |
         static_cast<uint64_t>(LoadLE32(p + 4)) << 32;
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    c = _mm_crc32_u64(c, LoadLE64(p));
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, *p);
  }
  return c32 ^ 0xffffffffu;
}

// The CPU check runs once, on the first checksum.
bool HasSse42() {
  static const bool has_sse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has_sse42;
}

#endif  // SSIDB_CRC32C_SSE42

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto& t = kTables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLE32(p) ^ c;
    const uint32_t hi = LoadLE32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace crc32c_internal

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
#ifdef SSIDB_CRC32C_SSE42
  if (HasSse42()) return ExtendSse42(crc, data, n);
#endif
  return crc32c_internal::ExtendPortable(crc, data, n);
}

}  // namespace ssidb
