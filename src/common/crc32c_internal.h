// Internal entry point of the CRC32C implementation (src/common/crc32c.cc),
// exposed so tests can reach the portable path on a machine where Crc32c()
// dispatches to the hardware instruction. Engine code calls Crc32c() from
// crc32c.h only.

#ifndef SSIDB_COMMON_CRC32C_INTERNAL_H_
#define SSIDB_COMMON_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace ssidb {
namespace crc32c_internal {

/// Portable slicing-by-8 implementation; same contract as Crc32c().
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);

}  // namespace crc32c_internal
}  // namespace ssidb

#endif  // SSIDB_COMMON_CRC32C_INTERNAL_H_
