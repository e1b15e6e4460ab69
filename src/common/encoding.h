// Order-preserving key encoding and little-endian value packing.
//
// Workloads with composite primary keys (TPC-C: (w_id, d_id, o_id), ...)
// encode each component big-endian so that the byte-wise ordering of the
// table index matches the numeric ordering of the tuple — the property
// next-key locking relies on (§2.5.2).

#ifndef SSIDB_COMMON_ENCODING_H_
#define SSIDB_COMMON_ENCODING_H_

#include <cstdint>
#include <string>

#include "src/common/slice.h"

namespace ssidb {

/// Append a big-endian (order-preserving) 32-bit unsigned value.
void PutBig32(std::string* dst, uint32_t v);
/// Append a big-endian (order-preserving) 64-bit unsigned value.
void PutBig64(std::string* dst, uint64_t v);

/// Read back big-endian values; advances *offset. Returns false if the
/// slice is too short.
bool GetBig32(Slice s, size_t* offset, uint32_t* v);
bool GetBig64(Slice s, size_t* offset, uint64_t* v);

/// Fixed-point money helpers: amounts stored as signed 64-bit cents,
/// little-endian inside values (values need no ordering).
void PutI64(std::string* dst, int64_t v);
bool GetI64(Slice s, size_t* offset, int64_t* v);

/// Append a length-prefixed string (32-bit length).
void PutLengthPrefixed(std::string* dst, Slice v);
bool GetLengthPrefixed(Slice s, size_t* offset, std::string* v);
/// As above, but *v views the bytes inside `s` instead of copying them.
bool GetLengthPrefixed(Slice s, size_t* offset, Slice* v);

/// Convenience: one-shot big-endian u64 key.
std::string EncodeU64Key(uint64_t v);
/// Decode a key produced by EncodeU64Key. Asserts on malformed input.
uint64_t DecodeU64Key(Slice s);

}  // namespace ssidb

#endif  // SSIDB_COMMON_ENCODING_H_
