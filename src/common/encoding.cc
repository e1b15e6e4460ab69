#include "src/common/encoding.h"

#include <cassert>
#include <cstring>

namespace ssidb {

void PutBig32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v >> 24);
  buf[1] = static_cast<char>(v >> 16);
  buf[2] = static_cast<char>(v >> 8);
  buf[3] = static_cast<char>(v);
  dst->append(buf, 4);
}

void PutBig64(std::string* dst, uint64_t v) {
  PutBig32(dst, static_cast<uint32_t>(v >> 32));
  PutBig32(dst, static_cast<uint32_t>(v));
}

bool GetBig32(Slice s, size_t* offset, uint32_t* v) {
  if (*offset + 4 > s.size()) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(s.data() + *offset);
  *v = (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
       (uint32_t(p[2]) << 8) | uint32_t(p[3]);
  *offset += 4;
  return true;
}

bool GetBig64(Slice s, size_t* offset, uint64_t* v) {
  uint32_t hi, lo;
  if (!GetBig32(s, offset, &hi)) return false;
  if (!GetBig32(s, offset, &lo)) return false;
  *v = (uint64_t(hi) << 32) | lo;
  return true;
}

void PutI64(std::string* dst, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>(u >> (8 * i));
  }
  dst->append(buf, 8);
}

bool GetI64(Slice s, size_t* offset, int64_t* v) {
  if (*offset + 8 > s.size()) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(s.data() + *offset);
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= uint64_t(p[i]) << (8 * i);
  }
  *v = static_cast<int64_t>(u);
  *offset += 8;
  return true;
}

void PutLengthPrefixed(std::string* dst, Slice v) {
  PutBig32(dst, static_cast<uint32_t>(v.size()));
  dst->append(v.data(), v.size());
}

bool GetLengthPrefixed(Slice s, size_t* offset, std::string* v) {
  Slice view;
  if (!GetLengthPrefixed(s, offset, &view)) return false;
  v->assign(view.data(), view.size());
  return true;
}

bool GetLengthPrefixed(Slice s, size_t* offset, Slice* v) {
  uint32_t len;
  if (!GetBig32(s, offset, &len)) return false;
  if (*offset + len > s.size()) return false;
  *v = Slice(s.data() + *offset, len);
  *offset += len;
  return true;
}

std::string EncodeU64Key(uint64_t v) {
  std::string s;
  PutBig64(&s, v);
  return s;
}

uint64_t DecodeU64Key(Slice s) {
  size_t off = 0;
  uint64_t v = 0;
  const bool ok = GetBig64(s, &off, &v);
  assert(ok);
  (void)ok;
  return v;
}

}  // namespace ssidb
