#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "crypto/dh.h"
#include "crypto/fixed_point.h"
#include "crypto/modmath.h"
#include "crypto/paillier.h"
#include "crypto/prng.h"
#include "crypto/secret_sharing.h"
#include "crypto/secure_sum.h"
#include "crypto/secure_sum_session.h"
#include "linalg/microkernel.h"

namespace ppml::crypto {
namespace {

TEST(Prng, SplitMix64KnownVector) {
  // Reference values for seed 1234567 (from the SplitMix64 reference code).
  SplitMix64 rng(1234567);
  const std::uint64_t a = rng.next();
  const std::uint64_t b = rng.next();
  EXPECT_NE(a, b);
  // Determinism.
  SplitMix64 rng2(1234567);
  EXPECT_EQ(rng2.next(), a);
  EXPECT_EQ(rng2.next(), b);
}

TEST(Prng, XoshiroDeterministicAndWellSpread) {
  Xoshiro256 rng(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in 1000 draws
  Xoshiro256 rng2(42);
  Xoshiro256 rng3(43);
  EXPECT_EQ(Xoshiro256(42).next(), rng2.next());
  EXPECT_NE(rng2.next(), rng3.next());
}

TEST(Prng, XoshiroDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

/// The RFC 8439 §2.3.2 key (00 01 02 ... 1f) and nonce
/// (00:00:00:09:00:00:00:4a:00:00:00:00).
ChaCha20Stream rfc8439_stream() {
  std::array<std::uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  const std::array<std::uint8_t, 12> nonce{0, 0, 0, 9, 0, 0, 0, 0x4a,
                                           0, 0, 0, 0};
  return ChaCha20Stream(key, nonce);
}

TEST(Prng, ChaChaRfc8439BlockOne) {
  // RFC 8439 §2.3.2 test vector, counter = 1. Our stream starts at
  // counter 0, so skip the first block (8 u64 draws) and check block 1's
  // first words: state[0..3] = 0xe4e7f110 0x15593bd1 0x1fdd0f50 0xc47120a3.
  ChaCha20Stream stream = rfc8439_stream();
  for (int i = 0; i < 8; ++i) stream.next_u64();  // discard block 0
  const std::uint64_t w01 = stream.next_u64();
  const std::uint64_t w23 = stream.next_u64();
  EXPECT_EQ(w01, 0x15593bd1e4e7f110ULL);  // words 0,1 little-endian packed
  EXPECT_EQ(w23, 0xc47120a31fdd0f50ULL);  // words 2,3
}

TEST(Prng, ChaChaStreamsDifferByStreamId) {
  ChaCha20Stream a(123, 0);
  ChaCha20Stream b(123, 1);
  ChaCha20Stream c(124, 0);
  const std::uint64_t va = a.next_u64();
  EXPECT_NE(va, b.next_u64());
  EXPECT_NE(va, c.next_u64());
  ChaCha20Stream a2(123, 0);
  EXPECT_EQ(va, a2.next_u64());
}

// --- ChaCha20Stream::fill at every ISA level ---------------------------------
// fill() runs the 16-block AVX-512 keystream at avx512 and the 8-block AVX2
// keystream at avx2 and above; next_u64() is always the scalar RFC 8439
// block function. Every test below pins fill() against next_u64() word for
// word, once per available level.

/// Runs `body` once per ISA level this binary and CPU can run, with the
/// dispatcher pinned to it; restores automatic selection afterwards.
template <typename Body>
void for_each_isa(Body body) {
  for (const linalg::Isa isa :
       {linalg::Isa::kScalar, linalg::Isa::kAvx2, linalg::Isa::kAvx512}) {
    if (!linalg::isa_available(isa)) continue;
    linalg::force_isa(isa);
    SCOPED_TRACE(linalg::isa_name(isa));
    body();
  }
  linalg::clear_forced_isa();
}

std::vector<std::uint64_t> scalar_words(ChaCha20Stream& stream,
                                        std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& word : out) word = stream.next_u64();
  return out;
}

TEST(ChaChaFill, MatchesScalarStreamAtEveryLength) {
  for_each_isa([] {
    for (const std::size_t n :
         {0, 1, 7, 8, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256,
          257, 20000}) {
      ChaCha20Stream reference(0xC0FFEEULL + n, 17);
      ChaCha20Stream stream(0xC0FFEEULL + n, 17);
      std::vector<std::uint64_t> out(n);
      stream.fill(out);
      EXPECT_EQ(out, scalar_words(reference, n)) << "n=" << n;
      // Both streams must leave off at the same word.
      EXPECT_EQ(stream.next_u64(), reference.next_u64()) << "n=" << n;
    }
  });
}

TEST(ChaChaFill, MidBlockStartMatchesScalar) {
  for_each_isa([] {
    for (const std::size_t skip : {1, 3, 7, 8, 9, 15}) {
      ChaCha20Stream reference(99, skip);
      ChaCha20Stream stream(99, skip);
      for (std::size_t i = 0; i < skip; ++i)
        ASSERT_EQ(stream.next_u64(), reference.next_u64());
      std::vector<std::uint64_t> out(300);
      stream.fill(out);
      EXPECT_EQ(out, scalar_words(reference, out.size())) << "skip=" << skip;
    }
  });
}

TEST(ChaChaFill, ConsecutiveFillsMatchScalar) {
  for_each_isa([] {
    ChaCha20Stream reference(0xABCDEF, 3);
    ChaCha20Stream stream(0xABCDEF, 3);
    for (const std::size_t n : {5, 64, 130, 1, 64, 200, 0, 63, 1000}) {
      std::vector<std::uint64_t> out(n);
      stream.fill(out);
      EXPECT_EQ(out, scalar_words(reference, n)) << "n=" << n;
    }
  });
}

TEST(ChaChaFill, Rfc8439BlockOneFromBatchPath) {
  // RFC 8439 §2.3.2 (block counter 1), read as words 8..15 of one 128-word
  // fill, so it comes out of the 16-block batch at avx512 and out of the
  // 8-block batch at avx2.
  constexpr std::array<std::uint32_t, 16> kBlockOne = {
      0xe4e7f110u, 0x15593bd1u, 0x1fdd0f50u, 0xc47120a3u,
      0xc7f4d1c7u, 0x0368c033u, 0x9aaa2204u, 0x4e6cd4c3u,
      0x466482d2u, 0x09aa9f07u, 0x05d7c214u, 0xa2028bd9u,
      0xd19c12b5u, 0xb94e16deu, 0xe883d0cbu, 0x4e3c50a2u};
  for_each_isa([&] {
    ChaCha20Stream stream = rfc8439_stream();
    std::vector<std::uint64_t> out(128);
    stream.fill(out);
    for (std::size_t w = 0; w < 8; ++w) {
      const std::uint64_t expected =
          kBlockOne[2 * w] |
          (static_cast<std::uint64_t>(kBlockOne[2 * w + 1]) << 32);
      EXPECT_EQ(out[8 + w], expected) << "word " << w;
    }
  });
}

/// FNV-1a over a sequence of words, each little-endian, continuing from `h`.
std::uint64_t fnv1a_words(std::uint64_t h, std::span<const std::uint64_t> v) {
  for (std::uint64_t w : v)
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  return h;
}

TEST(ChaChaFill, SessionContributeDigestPinned) {
  // Recorded from the scalar-only keystream (one RFC 8439 block per
  // refill): every party's masked wire vector at M=8, width 20 000, rounds
  // 0-2. Any ISA level that moves one mask bit moves this digest.
  constexpr std::size_t kParties = 8;
  constexpr std::size_t kWidth = 20000;
  SecureSumConfig config;
  config.num_parties = kParties;
  config.protocol_seed = 0x5EED14ULL;
  std::vector<std::vector<double>> values(kParties,
                                          std::vector<double>(kWidth));
  Xoshiro256 rng(14);
  for (auto& row : values)
    for (double& x : row) x = (rng.next_double() - 0.5) * 8.0;
  std::vector<std::size_t> everyone(kParties);
  for (std::size_t i = 0; i < kParties; ++i) everyone[i] = i;
  for_each_isa([&] {
    SecureSumSession session(config);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t round = 0; round < 3; ++round)
      for (std::size_t i = 0; i < kParties; ++i) {
        const SecureSumSession::Tensor tensor(values[i]);
        h = fnv1a_words(h, session.contribute(i, {&tensor, 1}, round,
                                              everyone));
      }
    EXPECT_EQ(h, 0x354131C9AB8DA384ULL);
  });
}

/// FNV-1a over every party's masked wire vector in `mask_set`, rounds
/// 0..rounds-1, each party contributing `width` values drawn from `rng_seed`.
std::uint64_t session_wire_digest(SecureSumSession& session,
                                  const std::vector<std::size_t>& mask_set,
                                  std::size_t width, std::size_t rounds,
                                  std::uint64_t rng_seed) {
  std::vector<std::vector<double>> values(session.num_parties(),
                                          std::vector<double>(width));
  Xoshiro256 rng(rng_seed);
  for (auto& row : values)
    for (double& x : row) x = (rng.next_double() - 0.5) * 8.0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t round = 0; round < rounds; ++round)
    for (std::size_t i : mask_set) {
      const SecureSumSession::Tensor tensor(values[i]);
      h = fnv1a_words(h, session.contribute(i, {&tensor, 1}, round, mask_set));
    }
  return h;
}

TEST(ChaChaFill, SessionSubsetContributeDigestPinned) {
  // A seeded round over a participant subset: masks run only over the
  // induced subgraph on {0, 2, 3, 5, 7} of an 8-party cohort.
  SecureSumConfig config;
  config.num_parties = 8;
  config.codec_terms = 5;
  config.protocol_seed = 0x5EED18ULL;
  const std::vector<std::size_t> subset{0, 2, 3, 5, 7};
  for_each_isa([&] {
    SecureSumSession session(config);
    EXPECT_EQ(session_wire_digest(session, subset, 2000, 3, 18),
              0x346FF2DD3D65437EULL);
  });
}

TEST(ChaChaFill, GroupedRingContributeDigestPinned) {
  // Grouped-ring rounds: M = 8 (auto groups 3/3/2, plus an explicit group
  // size of 2) and M = 128 (auto groups of 12), full cohort.
  for (const auto& [m, group_size, width, digest] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t,
                              std::uint64_t>>{
           {8, 0, 1000, 0xF1ECD58BE732AEC7ULL},
           {8, 2, 1000, 0xB1957999A36544E7ULL},
           {128, 0, 64, 0xE02091AB1B43F0D9ULL}}) {
    SecureSumConfig config;
    config.num_parties = m;
    config.protocol_seed = 0x5EED18ULL + m;
    config.topology = AggregationTopology::kGroupedRing;
    config.group_size = group_size;
    std::vector<std::size_t> everyone(m);
    for (std::size_t i = 0; i < m; ++i) everyone[i] = i;
    for_each_isa([&] {
      SecureSumSession session(config);
      EXPECT_EQ(session_wire_digest(session, everyone, width, 2, m), digest)
          << "m=" << m << " group_size=" << group_size;
    });
  }
}

TEST(ChaChaFill, PartyMaskDigestPinnedAtEveryWidth) {
  // SecureSumParty::mask straight from one key agreement, M = 8, rounds
  // 0-1, every party: widths on both sides of the 128-word keystream chunk
  // and lv's 20 000. Recorded from whole-vector stream expansion; any
  // chunking or write-through change that moves a mask bit moves these.
  constexpr std::size_t kParties = 8;
  const auto seeds = agree_pairwise_seeds(kParties, 0x5EED26ULL);
  const FixedPointCodec codec(20, kParties);
  std::vector<std::size_t> everyone(kParties);
  for (std::size_t i = 0; i < kParties; ++i) everyone[i] = i;
  for (const auto& [topology, width, digest] :
       std::vector<std::tuple<AggregationTopology, std::size_t,
                              std::uint64_t>>{
           {AggregationTopology::kPairwise, 1, 0x82C3684D3832B9BEULL},
           {AggregationTopology::kPairwise, 127, 0xB1A9778699845872ULL},
           {AggregationTopology::kPairwise, 128, 0xF0AE81D22A48E051ULL},
           {AggregationTopology::kPairwise, 129, 0x616A21B975500A8EULL},
           {AggregationTopology::kPairwise, 20000, 0x8691F7C14EA4201CULL},
           {AggregationTopology::kGroupedRing, 1, 0x06F4E5BFD62FA3C3ULL},
           {AggregationTopology::kGroupedRing, 127, 0x1E0DC29B3BD215A4ULL},
           {AggregationTopology::kGroupedRing, 128, 0xE9ABCB2E5BEE2EC5ULL},
           {AggregationTopology::kGroupedRing, 129, 0x27C6BE3484684AA4ULL},
           {AggregationTopology::kGroupedRing, 20000, 0xE6DAC6A4BB2E5D32ULL}}) {
    std::vector<std::vector<double>> values(kParties,
                                            std::vector<double>(width));
    Xoshiro256 rng(width);
    for (auto& row : values)
      for (double& x : row) x = (rng.next_double() - 0.5) * 8.0;
    for_each_isa([&] {
      // The vector mask and the wire mask (little-endian words written in
      // place) must both give the pinned words.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      std::uint64_t h_wire = h;
      std::vector<std::uint8_t> wire(8 * width);
      for (std::size_t round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < kParties; ++i) {
          const SecureSumParty party(i, kParties, codec, seeds[i], topology);
          h = fnv1a_words(h, party.mask(values[i], round, everyone));
          party.mask(values[i], round, everyone, wire);
          for (const std::uint8_t byte : wire) {
            h_wire ^= byte;
            h_wire *= 0x100000001b3ULL;
          }
        }
      EXPECT_EQ(h, digest) << std::hex << "0x" << h << " width=" << std::dec
                           << width << " grouped="
                           << (topology == AggregationTopology::kGroupedRing);
      EXPECT_EQ(h_wire, digest) << "wire, width=" << width;
    });
  }
}

TEST(FixedPoint, RoundTripPreservesValues) {
  const FixedPointCodec codec(24, 16);
  for (double v : {0.0, 1.0, -1.0, 3.14159, -123.456, 1e-5, 4096.0}) {
    EXPECT_NEAR(codec.decode(codec.encode(v)), v, 1e-6) << v;
  }
}

TEST(FixedPoint, NegativeValuesUseTwosComplement) {
  const FixedPointCodec codec(10, 4);
  const std::uint64_t r = codec.encode(-2.5);
  EXPECT_GT(r, 1ULL << 63);  // top bit set for negatives
  EXPECT_DOUBLE_EQ(codec.decode(r), -2.5);
}

TEST(FixedPoint, SumOfEncodedEqualsEncodedSum) {
  const FixedPointCodec codec(20, 8);
  const std::vector<double> values{1.25, -3.5, 0.0625, 100.0};
  std::uint64_t acc = 0;
  double expected = 0.0;
  for (double v : values) {
    acc = ring_add(acc, codec.encode(v));
    expected += v;
  }
  EXPECT_NEAR(codec.decode(acc), expected, 1e-5);
}

TEST(FixedPoint, RejectsOutOfRangeAndNonFinite) {
  const FixedPointCodec codec(24, 1024);
  EXPECT_THROW(codec.encode(codec.max_encodable() * 2.0), NumericError);
  EXPECT_THROW(codec.encode(std::nan("")), NumericError);
  EXPECT_THROW(codec.encode(INFINITY), NumericError);
  EXPECT_NO_THROW(codec.encode(codec.max_encodable() * 0.99));
}

// encode_vector / decode_vector against the per-element encode / decode, at
// every available level, on every prefix length (so the 8-lane body and
// each tail length run).
TEST(FixedPoint, VectorCodecMatchesPerElementOracle) {
  for (const unsigned bits : {1u, 10u, 24u, 52u}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const FixedPointCodec codec(bits, 1);  // max_encodable() = 2^(62-bits)
    const double unit = std::ldexp(1.0, -static_cast<int>(bits));
    std::vector<double> values{0.0, -0.0};
    // Ties, just off them, and the magnitudes around where a rint built on
    // adding 2^52 changes behaviour.
    for (const double scaled :
         {0.5, 1.5, 2.5, 0.25, 0.75, 3.0, 0x1p51, 0x1p51 + 0.5, 0x1p51 + 1.5,
          0x1p52, 0x1p52 - 0.5, 0x1p52 - 1.5, 0x1p52 + 2.0, 0x1p62}) {
      values.push_back(scaled * unit);
      values.push_back(-scaled * unit);
    }
    values.push_back(codec.max_encodable());
    values.push_back(-codec.max_encodable());
    values.push_back(std::nextafter(codec.max_encodable(), 0.0));
    values.push_back(std::numeric_limits<double>::denorm_min());
    values.push_back(-std::numeric_limits<double>::denorm_min());
    Xoshiro256 rng(bits);
    for (int i = 0; i < 40; ++i) {
      values.push_back((rng.next_double() - 0.5) * 8.0);
      // A random tie: an odd multiple of half a unit.
      values.push_back(
          (2.0 * static_cast<double>(rng.next() % 4096) - 4095.0) * unit / 2);
    }
    std::vector<std::uint64_t> oracle;
    for (const double x : values) oracle.push_back(codec.encode(x));
    for_each_isa([&] {
      for (std::size_t n = 0; n <= values.size(); ++n) {
        const std::span<const double> prefix(values.data(), n);
        const std::vector<std::uint64_t> got = codec.encode_vector(prefix);
        ASSERT_EQ(got.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(got[i], oracle[i]) << "n=" << n << " value " << values[i];
      }
      std::vector<std::uint64_t> words = oracle;
      for (int i = 0; i < 64; ++i) words.push_back(rng.next());
      words.push_back(std::uint64_t{1} << 63);
      words.push_back(~std::uint64_t{0});
      for (std::size_t n = 0; n <= words.size(); n += 7) {
        const std::vector<double> got =
            codec.decode_vector(std::span<const std::uint64_t>(words).first(n));
        ASSERT_EQ(got.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(codec.decode(words[i])))
              << "word " << words[i];
      }
    });
  }
}

TEST(FixedPoint, VectorEncodeThrowsEncodesErrorForFirstBadValue) {
  const FixedPointCodec codec(24, 64);
  const double max = codec.max_encodable();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> good(37);
  for (std::size_t i = 0; i < good.size(); ++i)
    good[i] = static_cast<double>(i) - 18.25;
  for (const double bad :
       {std::nan(""), inf, -inf, 2.0 * max, -2.0 * max,
        std::nextafter(max, inf)}) {
    std::string expected;
    try {
      codec.encode(bad);
    } catch (const NumericError& e) {
      expected = e.what();
    }
    ASSERT_FALSE(expected.empty()) << bad;
    for (const std::size_t at : {std::size_t{0}, good.size() / 2,
                                 good.size() - 1}) {
      std::vector<double> v = good;
      v[at] = bad;
      // A second, different bad value later must not be the one reported.
      if (at + 1 < v.size()) v.back() = bad == -inf ? inf : -inf;
      for_each_isa([&] {
        try {
          codec.encode_vector(v);
          ADD_FAILURE() << "no throw for " << bad << " at " << at;
        } catch (const NumericError& e) {
          EXPECT_EQ(std::string(e.what()), expected) << bad << " at " << at;
        }
      });
    }
  }
}

TEST(FixedPoint, ParameterValidation) {
  EXPECT_THROW(FixedPointCodec(0, 4), InvalidArgument);
  EXPECT_THROW(FixedPointCodec(53, 4), InvalidArgument);
  EXPECT_THROW(FixedPointCodec(24, 0), InvalidArgument);
}

TEST(FixedPoint, QuantizationBoundScalesWithTerms) {
  const FixedPointCodec codec(20, 64);
  EXPECT_DOUBLE_EQ(codec.quantization_bound(2),
                   2.0 / std::ldexp(1.0, 21));
  EXPECT_GT(codec.quantization_bound(64), codec.quantization_bound(2));
}

TEST(ModMath, MulmodMatchesSmallCases) {
  EXPECT_EQ(mulmod(7, 8, 5), 1u);
  EXPECT_EQ(mulmod(0, 123, 7), 0u);
  // Large 64-bit operands that overflow naive multiply.
  const std::uint64_t a = 0xFFFFFFFFFFFFFFC5ULL;
  const std::uint64_t m = 0xFFFFFFFFFFFFFFFDULL;
  EXPECT_EQ(mulmod(a, a, m),
            static_cast<u128>((static_cast<u128>(a) * a) % m));
}

// Bit-serial double-and-add reference: exact for any m < 2^127, independent
// of the single-multiply path mulmod takes for m < 2^64.
u128 mulmod_oracle(u128 a, u128 b, u128 m) {
  a %= m;
  b %= m;
  u128 result = 0;
  while (b != 0) {
    if (b & 1) {
      result += a;
      if (result >= m) result -= m;
    }
    a <<= 1;
    if (a >= m) a -= m;
    b >>= 1;
  }
  return result;
}

u128 powmod_oracle(u128 base, u128 exp, u128 m) {
  u128 result = 1 % m;
  base %= m;
  for (; exp != 0; exp >>= 1) {
    if (exp & 1) result = mulmod_oracle(result, base, m);
    base = mulmod_oracle(base, base, m);
  }
  return result;
}

u128 wide(std::uint64_t hi, std::uint64_t lo) {
  return (static_cast<u128>(hi) << 64) | lo;
}

TEST(ModMath, MulmodMatchesBitSerialOracleBelow2To64) {
  const std::vector<u128> moduli{
      2,
      (u128{1} << 32) - 1,
      (u128{1} << 32) + 1,
      DhGroup::standard_group().p,
      (u128{1} << 61) - 1,
      (u128{1} << 64) - 59,  // largest prime below 2^64
  };
  Xoshiro256 rng(0x6d756c6d6f64ULL);
  for (const u128 m : moduli) {
    std::vector<u128> operands{0, 1, m - 2, m - 1};
    for (int k = 0; k < 16; ++k) operands.push_back(rng.next() % m);
    for (int k = 0; k < 8; ++k) operands.push_back(rng.next());
    // Unreduced operands above 2^64 exercise the initial `% m`.
    for (int k = 0; k < 8; ++k)
      operands.push_back(wide(rng.next() >> 2, rng.next()));
    operands.push_back(wide(0x3FFFFFFFFFFFFFFFULL, ~0ULL));
    for (const u128 a : operands) {
      for (const u128 b : operands) {
        ASSERT_EQ(mulmod(a, b, m), mulmod_oracle(a, b, m))
            << "m=" << static_cast<std::uint64_t>(m);
      }
      const u128 exp = rng.next();
      ASSERT_EQ(powmod(a, exp, m), powmod_oracle(a, exp, m))
          << "m=" << static_cast<std::uint64_t>(m);
    }
  }
}

TEST(ModMath, MulmodExactAbove2To64) {
  // Paillier-size moduli (n^2 > 2^64) take the bit-serial path.
  Xoshiro256 key_rng(3);
  const PaillierKeyPair keys = paillier_keygen(24, key_rng);
  const std::vector<u128> moduli{
      keys.public_key.n_squared,
      (u128{1} << 64) + 13,
      (u128{1} << 126) - 137,
  };
  Xoshiro256 rng(0x7061696c6c6965ULL);
  for (const u128 m : moduli) {
    ASSERT_GT(m >> 64, 0u);
    std::vector<u128> operands{0, 1, 0xFFFFFFFFULL, m - 2, m - 1};
    for (int k = 0; k < 24; ++k)
      operands.push_back(wide(rng.next(), rng.next()));
    for (const u128 a : operands) {
      for (const u128 b : operands)
        ASSERT_EQ(mulmod(a, b, m), mulmod_oracle(a, b, m));
      const u128 exp = rng.next();
      ASSERT_EQ(powmod(a, exp, m), powmod_oracle(a, exp, m));
    }
  }
}

TEST(ModMath, PowmodMatchesReference) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(3, 0, 7), 1u);
  // Fermat: a^(p-1) = 1 mod p.
  const std::uint64_t p = 2305843009213693951ULL;  // 2^61 - 1, prime
  EXPECT_EQ(powmod(12345, p - 1, p), 1u);
}

TEST(ModMath, GcdLcmInvmod) {
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(lcm_u64(4, 6), 12u);
  EXPECT_EQ(invmod(3, 7), 5u);  // 3*5 = 15 = 1 mod 7
  EXPECT_THROW(invmod(2, 4), NumericError);
}

TEST(ModMath, PrimalityKnownValues) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(561));            // Carmichael number
  EXPECT_TRUE(is_prime_u64(2305843009213693951ULL));   // 2^61 - 1
  EXPECT_FALSE(is_prime_u64(2305843009213693953ULL));
  EXPECT_TRUE(is_prime_u64(18446744073709551557ULL));  // largest u64 prime
}

TEST(ModMath, RandomPrimeHasRequestedBits) {
  Xoshiro256 rng(1);
  for (unsigned bits : {16u, 31u, 61u}) {
    const std::uint64_t p = random_prime(bits, rng);
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_GE(p, 1ULL << (bits - 1));
    EXPECT_LT(p, 1ULL << bits);
  }
}

TEST(Dh, SharedSecretsAgree) {
  const DhGroup group = DhGroup::standard_group();
  EXPECT_TRUE(is_prime_u64(group.p));
  EXPECT_TRUE(is_prime_u64(group.q));
  EXPECT_EQ(group.p, 2 * group.q + 1);

  Xoshiro256 rng(5);
  const DhKeyPair alice = dh_keygen(group, rng);
  const DhKeyPair bob = dh_keygen(group, rng);
  const std::uint64_t s1 =
      dh_shared_secret(group, alice.secret, bob.public_value);
  const std::uint64_t s2 =
      dh_shared_secret(group, bob.secret, alice.public_value);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, 0u);
}

/// Smallest quadratic non-residue mod p (an element outside the order-q
/// subgroup).
std::uint64_t non_residue(const DhGroup& group) {
  std::uint64_t h = 2;
  while (powmod(h, group.q, group.p) == 1) ++h;
  return h;
}

/// Expect `fn` to throw InvalidArgument whose message names the shared
/// validation helper and contains `what`.
template <typename Fn>
void expect_public_rejected(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "expected InvalidArgument mentioning " << what;
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dh_check_public"), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(Dh, RejectsOutOfGroupPeerValues) {
  const DhGroup group = DhGroup::standard_group();
  Xoshiro256 rng(6);
  const DhKeyPair key = dh_keygen(group, rng);
  // Range guard, through dh_shared_secret and through the helper itself.
  for (std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{1}, group.p - 1,
                            group.p, group.p + 5}) {
    expect_public_rejected(
        [&] { dh_shared_secret(group, key.secret, bad); }, "out of range");
    expect_public_rejected([&] { dh_check_public(group, bad); },
                           "out of range");
  }
  // A non-residue (order 2q element) must be rejected by the subgroup check.
  const std::uint64_t h = non_residue(group);
  expect_public_rejected([&] { dh_shared_secret(group, key.secret, h); },
                         "prime-order subgroup");
  expect_public_rejected([&] { dh_check_public(group, h); },
                         "prime-order subgroup");
  EXPECT_NO_THROW(dh_check_public(group, key.public_value));
  EXPECT_NO_THROW(dh_check_public(group, group.g));
}

TEST(Dh, CorruptedPublicValueFailsValidation) {
  // A public value tampered in transit (multiplied by a non-residue) leaves
  // the subgroup; validation must catch it before any secret is derived.
  const DhGroup group = DhGroup::standard_group();
  Xoshiro256 rng(7);
  const DhKeyPair mine = dh_keygen(group, rng);
  DhKeyPair peer = dh_keygen(group, rng);
  ASSERT_NO_THROW(dh_check_public(group, peer.public_value));
  peer.public_value = static_cast<std::uint64_t>(
      mulmod(peer.public_value, non_residue(group), group.p));
  EXPECT_THROW(dh_check_public(group, peer.public_value), InvalidArgument);
  EXPECT_THROW(dh_shared_secret(group, mine.secret, peer.public_value),
               InvalidArgument);
}

class SecureSumParties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SecureSumParties, SeededVariantAveragesExactly) {
  const std::size_t m = GetParam();
  const FixedPointCodec codec(24, m);
  std::vector<std::vector<double>> values(m);
  Xoshiro256 rng(m);
  for (auto& v : values) {
    v.resize(17);
    for (double& x : v) x = (rng.next_double() - 0.5) * 200.0;
  }
  const auto avg =
      secure_average(values, codec, 99, MaskVariant::kSeededMasks);
  for (std::size_t j = 0; j < 17; ++j) {
    double expected = 0.0;
    for (const auto& v : values) expected += v[j];
    expected /= static_cast<double>(m);
    EXPECT_NEAR(avg[j], expected, 1e-5);
  }
}

TEST_P(SecureSumParties, ExchangedVariantAveragesExactly) {
  const std::size_t m = GetParam();
  const FixedPointCodec codec(24, m);
  std::vector<std::vector<double>> values(m);
  Xoshiro256 rng(m ^ 0xF00);
  for (auto& v : values) {
    v.resize(9);
    for (double& x : v) x = (rng.next_double() - 0.5) * 10.0;
  }
  const auto avg =
      secure_average(values, codec, 123, MaskVariant::kExchangedMasks);
  for (std::size_t j = 0; j < 9; ++j) {
    double expected = 0.0;
    for (const auto& v : values) expected += v[j];
    expected /= static_cast<double>(m);
    EXPECT_NEAR(avg[j], expected, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(PartyCounts, SecureSumParties,
                         ::testing::Values(2, 3, 4, 7, 16));

TEST(SecureSum, MaskedContributionHidesValue) {
  // The masked contribution must differ from the plain encoding, and two
  // different rounds must produce different maskings of the same value.
  const FixedPointCodec codec(20, 4);
  const auto seeds = agree_pairwise_seeds(4, 7);
  SecureSumParty party(0, 4, codec, seeds[0]);
  const std::vector<double> value{1.0, 2.0, 3.0};
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const auto masked0 = party.mask(value, 0, everyone);
  const auto masked1 = party.mask(value, 1, everyone);
  const auto plain = codec.encode_vector(value);
  EXPECT_NE(masked0, plain);
  EXPECT_NE(masked0, masked1);
}

TEST(SecureSum, CoalitionOfAllButOneLearnsNothingDeterministic) {
  // Reducer + parties {1, 2} collude against party 0 in a 4-party sum.
  // Party 0's contribution minus everything the coalition can reconstruct
  // still contains the pairwise mask with honest party 3, which is a
  // ChaCha20 stream unknown to the coalition: two different secrets for
  // party 0 produce coalition views that differ by exactly the secret
  // delta ONLY after removing party 3's mask — which they cannot.
  const FixedPointCodec codec(20, 4);
  const auto seeds = agree_pairwise_seeds(4, 11);
  const std::vector<double> secret_a{5.0};
  const std::vector<double> secret_b{-17.0};
  SecureSumParty party_a(0, 4, codec, seeds[0]);
  SecureSumParty party_b(0, 4, codec, seeds[0]);
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const auto view_a = party_a.mask(secret_a, 0, everyone);
  const auto view_b = party_b.mask(secret_b, 0, everyone);
  // Coalition knows masks (0,1) and (0,2); strip them.
  auto strip = [&](std::vector<std::uint64_t> v) {
    for (std::size_t peer : {1, 2}) {
      ChaCha20Stream prg(seeds[0][peer], 0);
      std::vector<std::uint64_t> mask(1);
      prg.fill(mask);
      ring_sub_inplace(v, mask);  // party 0 has id < peer => it added
    }
    return v;
  };
  const auto stripped_a = strip(view_a);
  const auto stripped_b = strip(view_b);
  // Residual views still don't reveal the plaintext encodings...
  EXPECT_NE(stripped_a[0], codec.encode(5.0));
  EXPECT_NE(stripped_b[0], codec.encode(-17.0));
  // ...because both are still offset by the same unknown (0,3) mask:
  EXPECT_EQ(stripped_a[0] - codec.encode(5.0),
            stripped_b[0] - codec.encode(-17.0));
}

TEST(SecureSum, ReduceRequiresAllContributionsWithoutRecovery) {
  // Without armed recovery the masks cancel only when every party of the
  // mask set delivered; a missing one must throw, not decode garbage.
  SecureSumConfig config;
  config.num_parties = 3;
  SecureSumSession session(config);
  const std::vector<std::size_t> everyone{0, 1, 2};
  const std::vector<double> value{1.0, 2.0};
  const SecureSumSession::Tensor tensor(value);
  std::vector<std::vector<std::uint64_t>> wire(3);
  for (std::size_t i : everyone)
    wire[i] = session.contribute(i, {&tensor, 1}, 0, everyone);
  const std::vector<std::size_t> two{0, 1};
  EXPECT_THROW(session.reduce_average(0, everyone, two, wire),
               InvalidArgument);
  EXPECT_NO_THROW(session.reduce_average(0, everyone, everyone, wire));
}

TEST(SecureSum, PairwiseSeedsSymmetric) {
  const auto seeds = agree_pairwise_seeds(5, 42);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      if (i != j) {
        EXPECT_EQ(seeds[i][j], seeds[j][i]);
      }
}

/// FNV-1a over the matrix words, row-major, each word little-endian.
std::uint64_t fnv1a(const std::vector<std::vector<std::uint64_t>>& matrix) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& row : matrix) h = fnv1a_words(h, row);
  return h;
}

TEST(SecureSum, PairwiseSeedMatrixDigestsPinned) {
  // Recorded from the two-exponentiations-per-ordered-pair implementation
  // (every seeds[i][j] computed as dh_shared_secret(x_i, g^{x_j})). Any
  // change to key generation, the group or the modular arithmetic that
  // moves a single seed bit moves these digests.
  const std::map<std::size_t, std::uint64_t> pinned{
      {2, 0xAF593102E99E8AC9ULL},
      {5, 0xF3FF3C94479C4D1DULL},
      {64, 0x7900D919BB8C37CDULL},
      {128, 0x02358C98E40567F1ULL},
  };
  for (const auto& [m, digest] : pinned) {
    const auto seeds = agree_pairwise_seeds(m, 0x5EED0000ULL + m);
    ASSERT_EQ(seeds.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(seeds[i].size(), m);
      EXPECT_EQ(seeds[i][i], 0u);
      for (std::size_t j = 0; j < i; ++j)
        ASSERT_EQ(seeds[i][j], seeds[j][i]) << "m=" << m;
    }
    EXPECT_EQ(fnv1a(seeds), digest) << "m=" << m;
  }
}

TEST(SecretSharing, AdditiveRoundTrip) {
  Xoshiro256 rng(1);
  const std::uint64_t secret = 0xDEADBEEFCAFEF00DULL;
  const auto shares = additive_share(secret, 5, rng);
  EXPECT_EQ(shares.size(), 5u);
  EXPECT_EQ(additive_reconstruct(shares), secret);
  // Any strict subset sums to something else (w.h.p. — deterministic here).
  EXPECT_NE(additive_reconstruct(
                std::span<const std::uint64_t>(shares.data(), 4)),
            secret);
}

TEST(SecretSharing, ShamirThresholdReconstructs) {
  Xoshiro256 rng(2);
  const std::uint64_t secret = 1234567890123ULL;
  const auto shares = shamir_share(secret, 6, 3, rng);
  // Any 3 shares reconstruct.
  const std::vector<ShamirShare> subset{shares[1], shares[4], shares[5]};
  EXPECT_EQ(shamir_reconstruct(subset), secret);
  // All 6 also reconstruct.
  EXPECT_EQ(shamir_reconstruct(shares), secret);
}

TEST(SecretSharing, ShamirBelowThresholdIsWrong) {
  Xoshiro256 rng(3);
  const std::uint64_t secret = 777;
  const auto shares = shamir_share(secret, 5, 3, rng);
  const std::vector<ShamirShare> too_few{shares[0], shares[1]};
  // Interpolating a deg-2 polynomial from 2 points gives a different value.
  EXPECT_NE(shamir_reconstruct(too_few), secret);
}

TEST(SecretSharing, ShamirRejectsBadInputs) {
  Xoshiro256 rng(4);
  EXPECT_THROW(shamir_share(kShamirPrime, 3, 2, rng), InvalidArgument);
  EXPECT_THROW(shamir_share(1, 3, 4, rng), InvalidArgument);
  auto shares = shamir_share(1, 3, 2, rng);
  shares[1].x = shares[0].x;  // duplicate point
  EXPECT_THROW(shamir_reconstruct(shares), InvalidArgument);
}

TEST(SecretSharing, FieldOpsSatisfyAxioms) {
  const std::uint64_t a = 0x1234567890ABCDEFULL % kShamirPrime;
  const std::uint64_t b = 0x0FEDCBA098765432ULL % kShamirPrime;
  EXPECT_EQ(shamir_field_add(a, shamir_field_sub(b, a)), b);
  EXPECT_EQ(shamir_field_mul(a, shamir_field_inv(a)), 1u);
  EXPECT_EQ(shamir_field_mul(a, b), shamir_field_mul(b, a));
}

TEST(Paillier, EncryptDecryptRoundTrip) {
  Xoshiro256 rng(1);
  const PaillierKeyPair keys = paillier_keygen(24, rng);
  for (std::uint64_t m : {0ULL, 1ULL, 42ULL, 99999ULL}) {
    const u128 c = paillier_encrypt(keys.public_key, m, rng);
    EXPECT_EQ(paillier_decrypt(keys.public_key, keys.private_key, c), m);
  }
}

TEST(Paillier, EncryptionIsRandomized) {
  Xoshiro256 rng(2);
  const PaillierKeyPair keys = paillier_keygen(24, rng);
  const u128 c1 = paillier_encrypt(keys.public_key, 7, rng);
  const u128 c2 = paillier_encrypt(keys.public_key, 7, rng);
  EXPECT_NE(c1, c2);  // same plaintext, different blinding
  EXPECT_EQ(paillier_decrypt(keys.public_key, keys.private_key, c1),
            paillier_decrypt(keys.public_key, keys.private_key, c2));
}

TEST(Paillier, AdditiveHomomorphism) {
  Xoshiro256 rng(3);
  const PaillierKeyPair keys = paillier_keygen(24, rng);
  const u128 c1 = paillier_encrypt(keys.public_key, 1000, rng);
  const u128 c2 = paillier_encrypt(keys.public_key, 234, rng);
  const u128 sum = paillier_add(keys.public_key, c1, c2);
  EXPECT_EQ(paillier_decrypt(keys.public_key, keys.private_key, sum), 1234u);
}

TEST(Paillier, ScalarHomomorphism) {
  Xoshiro256 rng(4);
  const PaillierKeyPair keys = paillier_keygen(24, rng);
  const u128 c = paillier_encrypt(keys.public_key, 321, rng);
  const u128 scaled = paillier_scale(keys.public_key, c, 5);
  EXPECT_EQ(paillier_decrypt(keys.public_key, keys.private_key, scaled),
            1605u);
}

TEST(Paillier, SignedEncoding) {
  Xoshiro256 rng(5);
  const PaillierKeyPair keys = paillier_keygen(24, rng);
  for (std::int64_t v : {-1000L, -1L, 0L, 1L, 999L}) {
    const std::uint64_t m = paillier_encode_signed(keys.public_key, v);
    EXPECT_EQ(paillier_decode_signed(keys.public_key, m), v);
  }
  // Homomorphic signed sum: (-5) + 12 = 7.
  const u128 c1 = paillier_encrypt(
      keys.public_key, paillier_encode_signed(keys.public_key, -5), rng);
  const u128 c2 = paillier_encrypt(
      keys.public_key, paillier_encode_signed(keys.public_key, 12), rng);
  const std::uint64_t decoded = paillier_decrypt(
      keys.public_key, keys.private_key, paillier_add(keys.public_key, c1, c2));
  EXPECT_EQ(paillier_decode_signed(keys.public_key, decoded), 7);
}

TEST(Paillier, RejectsOutOfRangePlaintext) {
  Xoshiro256 rng(6);
  const PaillierKeyPair keys = paillier_keygen(20, rng);
  EXPECT_THROW(paillier_encrypt(keys.public_key, keys.public_key.n, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace ppml::crypto
