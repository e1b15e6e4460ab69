// Unit tests for src/common: Status, Slice, order-preserving encoding, the
// random distributions the workloads depend on, and the CRC32C checksum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/crc32c_internal.h"
#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/common/slice.h"
#include "src/common/status.h"

namespace ssidb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(s.IsAbort());
  EXPECT_EQ(s.code(), Status::Code::kOk);
}

TEST(StatusTest, FactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::DuplicateKey().IsDuplicateKey());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::UpdateConflict().IsUpdateConflict());
  EXPECT_TRUE(Status::Unsafe().IsUnsafe());
  EXPECT_TRUE(Status::TxnInvalid().IsTxnInvalid());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
}

TEST(StatusTest, AbortClassMatchesPaperErrorTaxonomy) {
  // §6.1.1: deadlocks, FCW conflicts and unsafe errors abort and retry.
  EXPECT_TRUE(Status::Deadlock().IsAbort());
  EXPECT_TRUE(Status::UpdateConflict().IsAbort());
  EXPECT_TRUE(Status::Unsafe().IsAbort());
  EXPECT_TRUE(Status::TimedOut().IsAbort());
  // Application-level outcomes do not.
  EXPECT_FALSE(Status::NotFound().IsAbort());
  EXPECT_FALSE(Status::DuplicateKey().IsAbort());
  EXPECT_FALSE(Status::InvalidArgument().IsAbort());
  EXPECT_FALSE(Status::OK().IsAbort());
}

TEST(StatusTest, ToStringContainsCodeAndMessage) {
  const Status s = Status::Unsafe("pivot detected");
  EXPECT_NE(s.ToString().find("unsafe"), std::string::npos);
  EXPECT_NE(s.ToString().find("pivot detected"), std::string::npos);
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::Deadlock("a"), Status::Deadlock("b"));
  EXPECT_FALSE(Status::Deadlock() == Status::Unsafe());
}

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_TRUE(Slice().empty());
}

TEST(SliceTest, ComparisonIsBytewiseWithLengthTiebreak) {
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("a") < Slice("aa"));
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice(std::string("x")));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(SliceTest, EmbeddedNulBytesCompare) {
  const std::string a("a\0b", 3);
  const std::string b("a\0c", 3);
  EXPECT_TRUE(Slice(a) < Slice(b));
  EXPECT_EQ(Slice(a).size(), 3u);
}

TEST(EncodingTest, Big32RoundTrip) {
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u, 1u << 31, UINT32_MAX}) {
    std::string s;
    PutBig32(&s, v);
    ASSERT_EQ(s.size(), 4u);
    size_t off = 0;
    uint32_t out = 0;
    ASSERT_TRUE(GetBig32(s, &off, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(off, 4u);
  }
}

TEST(EncodingTest, Big64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40,
                     uint64_t{UINT64_MAX}}) {
    std::string s;
    PutBig64(&s, v);
    size_t off = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetBig64(s, &off, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(EncodingTest, BigEndianPreservesOrder) {
  // The property next-key locking depends on (§2.5.2): byte order of the
  // encoded keys equals numeric order.
  std::vector<uint64_t> values = {0, 1, 2, 255, 256, 1000, 1u << 20,
                                  uint64_t{1} << 40, UINT64_MAX};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(EncodeU64Key(values[i]), EncodeU64Key(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(EncodingTest, DecodeU64KeyInvertsEncode) {
  for (uint64_t v : {uint64_t{0}, uint64_t{42}, UINT64_MAX}) {
    EXPECT_EQ(DecodeU64Key(EncodeU64Key(v)), v);
  }
}

TEST(EncodingTest, I64RoundTripIncludingNegatives) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{123456789},
                    int64_t{-987654321}, INT64_MIN, INT64_MAX}) {
    std::string s;
    PutI64(&s, v);
    size_t off = 0;
    int64_t out = 0;
    ASSERT_TRUE(GetI64(s, &off, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(EncodingTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, std::string("a\0b", 3));
  size_t off = 0;
  std::string out;
  ASSERT_TRUE(GetLengthPrefixed(s, &off, &out));
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(GetLengthPrefixed(s, &off, &out));
  EXPECT_EQ(out, "");
  ASSERT_TRUE(GetLengthPrefixed(s, &off, &out));
  EXPECT_EQ(out, std::string("a\0b", 3));
  EXPECT_EQ(off, s.size());
}

TEST(EncodingTest, DecodersRejectTruncatedInput) {
  std::string s;
  PutBig32(&s, 7);
  size_t off = 2;
  uint32_t v32 = 0;
  EXPECT_FALSE(GetBig32(s, &off, &v32));
  uint64_t v64 = 0;
  off = 0;
  EXPECT_FALSE(GetBig64(s, &off, &v64));  // Only 4 bytes present.
  std::string out;
  off = 1;
  EXPECT_FALSE(GetLengthPrefixed(s, &off, &out));
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Random a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformRangeCoversEndpoints) {
  Random rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformRange(1, 3));
  EXPECT_EQ(seen, (std::set<int64_t>{1, 2, 3}));
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RandomTest, NURandStaysInRangeAndIsNonUniform) {
  Random rng(17);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = rng.NURand(255, 1, 1000);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    counts[v]++;
  }
  // NURand concentrates mass: the most popular value should be well above
  // the uniform expectation of 30 hits.
  int max_count = 0;
  for (const auto& [v, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 60);
}

TEST(RandomTest, AlphaStringRespectsBoundsAndAlphabet) {
  Random rng(19);
  for (int i = 0; i < 200; ++i) {
    const std::string s = rng.AlphaString(3, 9);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 9u);
    for (char c : s) EXPECT_TRUE(isalnum(static_cast<unsigned char>(c)));
  }
}

TEST(RandomTest, ShuffleIsAPermutation) {
  Random rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
  EXPECT_NE(v, orig);  // Astronomically unlikely to be identity.
}

TEST(ZipfTest, StaysInRangeAndSkews) {
  Random rng(29);
  ZipfGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = zipf.Next(&rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank-0 should dominate the median element by a wide margin.
  EXPECT_GT(counts[0], 30 * std::max(1, counts[500]));
}

/// Parameterized sweep: encoding order preservation holds for composite
/// (hi, lo) keys the TPC-C schema uses.
class CompositeKeyOrderTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(CompositeKeyOrderTest, LexOrderMatchesTupleOrder) {
  const auto [w, d] = GetParam();
  std::string base;
  PutBig32(&base, w);
  PutBig32(&base, d);
  // Successor in the second component.
  std::string next_d;
  PutBig32(&next_d, w);
  PutBig32(&next_d, d + 1);
  EXPECT_LT(base, next_d);
  // Successor in the first component dominates any second component.
  std::string next_w;
  PutBig32(&next_w, w + 1);
  PutBig32(&next_w, 0);
  EXPECT_LT(base, next_w);
  EXPECT_LT(next_d, next_w);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositeKeyOrderTest,
    ::testing::Values(std::pair{0u, 0u}, std::pair{1u, 9u},
                      std::pair{255u, 255u}, std::pair{65535u, 1u},
                      std::pair{1u << 30, 1u << 30}));

// --- CRC32C ---------------------------------------------------------------

/// Bitwise CRC32C, one byte at a time: the definition both implementations
/// must reproduce bit for bit.
uint32_t ReferenceCrc32c(uint32_t crc, const uint8_t* p, size_t n) {
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (c >> 1) ^ 0x82f63b78u : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

struct Crc32cImpl {
  const char* name;
  uint32_t (*extend)(uint32_t crc, const void* data, size_t n);
};

/// Every check runs against Crc32c() (hardware where the CPU has it) and
/// against the portable slicing-by-8 path directly.
class Crc32cTest : public ::testing::TestWithParam<Crc32cImpl> {
 protected:
  uint32_t Extend(uint32_t crc, const void* data, size_t n) const {
    return GetParam().extend(crc, data, n);
  }

  static std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
    Random rng(seed);
    std::vector<uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    return bytes;
  }
};

TEST_P(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Extend(0, "", 0), 0u);
  EXPECT_EQ(Extend(0, "123456789", 9), 0xE3069283u);
  // RFC 3720 (iSCSI) appendix B.4.
  uint8_t buf[32];
  std::fill(buf, buf + 32, 0x00);
  EXPECT_EQ(Extend(0, buf, 32), 0x8A9136AAu);
  std::fill(buf, buf + 32, 0xFF);
  EXPECT_EQ(Extend(0, buf, 32), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Extend(0, buf, 32), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(Extend(0, buf, 32), 0x113FDB5Cu);
}

TEST_P(Crc32cTest, MatchesByteAtATimeReference) {
  // The SSE4.2 kernel runs three lanes of 2048 bytes, then three lanes of
  // 256, then one chain: probe each side of both lane thresholds, a mix of
  // all three stages, a run page and a multi-page buffer.
  constexpr size_t kShort = 3 * 256;
  constexpr size_t kLong = 3 * 2048;
  constexpr size_t kLargest = 40000;
  const std::vector<uint8_t> bytes = RandomBytes(kLargest + 8, 42);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (size_t n : {kShort - 1, kShort, kShort + 1, kLong - 1, kLong,
                   kLong + 1, kLong + kShort + 7, size_t{16380}, size_t{16384},
                   kLargest}) {
    lengths.push_back(n);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Extend(0, p, n), ReferenceCrc32c(0, p, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(Extend(0xDEADBEEFu, p, n), ReferenceCrc32c(0xDEADBEEFu, p, n))
          << "seeded, offset " << offset << " length " << n;
    }
  }
}

TEST_P(Crc32cTest, StreamingSplitsCompose) {
  const std::vector<uint8_t> bytes = RandomBytes(20000, 7);
  const uint8_t* p = bytes.data();
  auto check = [&](size_t n, size_t split) {
    EXPECT_EQ(Extend(Extend(0, p, split), p + split, n - split),
              Extend(0, p, n))
        << "length " << n << " split " << split;
  };
  Random rng(11);
  for (int i = 0; i < 500; ++i) {
    const size_t n = rng.Uniform(bytes.size() + 1);
    check(n, rng.Uniform(n + 1));
  }
  // Splits inside a lane: the whole buffer runs lanes the split parts
  // divide differently, or not at all.
  for (size_t split : {size_t{1}, size_t{100}, size_t{255}, size_t{257},
                       size_t{700}, size_t{1000}, size_t{2047}, size_t{2049},
                       size_t{3000}, size_t{5000}, size_t{6143}, size_t{9001},
                       size_t{16383}}) {
    check(16384, split);
    check(6144, std::min<size_t>(split, 6144));
    check(768, std::min<size_t>(split, 768));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, Crc32cTest,
    ::testing::Values(
        Crc32cImpl{"Dispatched",
                   [](uint32_t crc, const void* data, size_t n) {
                     return Crc32c(crc, data, n);
                   }},
        Crc32cImpl{"Portable", &crc32c_internal::ExtendPortable}),
    [](const ::testing::TestParamInfo<Crc32cImpl>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ssidb
