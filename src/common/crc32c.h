// CRC32C (Castagnoli) — the checksum framing every durable artifact uses
// (WAL record frames, checkpoint footers, run pages and run footers).
//
// Crc32c() picks its implementation once per process: on x86-64 CPUs with
// SSE4.2 it feeds 8-byte little-endian words to the `crc32` instruction
// (compiled per function, so the build needs no -m flag), in three
// independent lanes from 768 bytes up; elsewhere it runs a portable
// slicing-by-8 table loop. Both compute the same reflected
// Castagnoli polynomial over the same byte order, so a file written by
// either path, or by an older byte-at-a-time build, verifies under any
// other.

#ifndef SSIDB_COMMON_CRC32C_H_
#define SSIDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "src/common/slice.h"

namespace ssidb {

/// Extend `crc` (0 for a fresh checksum) with `data`. Streaming-friendly:
/// Crc32c(Crc32c(0, a), b) == Crc32c(0, a+b).
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(Slice s) { return Crc32c(0, s.data(), s.size()); }

}  // namespace ssidb

#endif  // SSIDB_COMMON_CRC32C_H_
