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

// Three-lane kernel. One chain of `crc32` instructions is bound by their
// 3-cycle latency; three independent chains over adjacent blocks A, B, C
// keep the unit busy every cycle. The lanes then combine by linearity of
// the raw register (Mark Adler's crc32c / zlib crc32_combine method):
// crc(A‖B) = Shift_|B|(crc(A)) ^ crc_from_0(B), where Shift_n advances a
// register over n zero bytes, i.e. multiplies it by x^(8n) mod P.
constexpr size_t kLongBlock = 2048;  // bytes per lane
constexpr size_t kShortBlock = 256;  // bytes per lane

// Multiply a and b modulo P, both in the reflected representation (bit 31
// holds x^0).
constexpr uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

using ShiftTables = std::array<std::array<uint32_t, 256>, 4>;

// shift[k][b] is Shift_n(b << 8k), so four lookups shift a whole register.
// Shift_n is linear, so each entry is the XOR of its lowest set bit's entry
// and the entry without that bit; only the 32 single-bit entries multiply.
constexpr ShiftTables BuildShiftTables(size_t n) {
  // x^(8n) mod P is x^0 advanced over n zero bytes.
  uint32_t x8n = 1u << 31;
  for (size_t i = 0; i < n; ++i) x8n = kTables[0][x8n & 0xff] ^ (x8n >> 8);
  ShiftTables t{};
  for (size_t k = 0; k < t.size(); ++k) {
    for (uint32_t b = 1; b < 256; ++b) {
      const uint32_t low = b & (~b + 1);
      t[k][b] = b == low ? MulModP(x8n, b << (8 * k))
                         : t[k][b ^ low] ^ t[k][low];
    }
  }
  return t;
}

constexpr ShiftTables kShiftLong = BuildShiftTables(kLongBlock);
constexpr ShiftTables kShiftShort = BuildShiftTables(kShortBlock);

inline uint32_t Shift(const ShiftTables& t, uint32_t c) {
  return t[0][c & 0xff] ^ t[1][(c >> 8) & 0xff] ^ t[2][(c >> 16) & 0xff] ^
         t[3][c >> 24];
}

// Extends raw register c over the 3 * kBlock bytes at p.
template <size_t kBlock>
__attribute__((target("sse4.2"), always_inline)) inline uint32_t
ThreeLanes(uint32_t c, const uint8_t* p, const ShiftTables& shift) {
  uint64_t c0 = c;
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  for (size_t i = 0; i < kBlock; i += 8) {
    c0 = _mm_crc32_u64(c0, LoadLE64(p + i));
    c1 = _mm_crc32_u64(c1, LoadLE64(p + kBlock + i));
    c2 = _mm_crc32_u64(c2, LoadLE64(p + 2 * kBlock + i));
  }
  const uint32_t ab = Shift(shift, static_cast<uint32_t>(c0)) ^
                      static_cast<uint32_t>(c1);
  return Shift(shift, ab) ^ static_cast<uint32_t>(c2);
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c32 = crc ^ 0xffffffffu;
  // Inputs under three short blocks (WAL frames) skip to the single chain.
  if (__builtin_expect(n >= 3 * kShortBlock, 0)) {
    for (; n >= 3 * kLongBlock; p += 3 * kLongBlock, n -= 3 * kLongBlock) {
      c32 = ThreeLanes<kLongBlock>(c32, p, kShiftLong);
    }
    for (; n >= 3 * kShortBlock; p += 3 * kShortBlock, n -= 3 * kShortBlock) {
      c32 = ThreeLanes<kShortBlock>(c32, p, kShiftShort);
    }
  }
  uint64_t c = c32;
  for (; n >= 8; p += 8, n -= 8) {
    c = _mm_crc32_u64(c, LoadLE64(p));
  }
  c32 = static_cast<uint32_t>(c);
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
  // The hint keeps the hardware path the fall-through one.
  if (__builtin_expect(HasSse42(), 1)) return ExtendSse42(crc, data, n);
#endif
  return crc32c_internal::ExtendPortable(crc, data, n);
}

}  // namespace ssidb
