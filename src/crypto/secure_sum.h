// The paper's coalition-resistant secure summation protocol (§V).
//
//   1. Each Mapper generates M-1 random numbers (one per peer).
//   2. Each of the M-1 numbers is sent to the corresponding peer.
//   3. Mapper i sums its generated numbers (Sed_i) and received ones (Rev_i).
//   4. Mapper i sends enc(v_i) + Sed_i - Rev_i to the Reducer.
//   5. The Reducer sums: every mask was added once and subtracted once, so
//      the masks cancel and only sum_i v_i remains. Individual v_i stay
//      hidden even against a coalition of all other mappers (the honest
//      party's pairwise masks with ANY single honest peer already blind it).
//
// Values are vectors of reals carried through FixedPointCodec into Z_2^64.
//
// Two mask-derivation variants, one masking routine each:
//   kExchangedMasks — the literal protocol: fresh masks each round, O(dim)
//                     pairwise traffic per round.
//   kSeededMasks    — pairwise seeds agreed once (e.g. via Diffie–Hellman),
//                     masks expanded per round with ChaCha20; O(1) pairwise
//                     traffic after setup. Same cancellation algebra, over
//                     any edge set: all pairs of the cohort, the pairs of a
//                     round's participants, or the grouped ring.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/dh.h"
#include "crypto/fixed_point.h"
#include "crypto/grouped_ring.h"
#include "crypto/prng.h"

namespace ppml::crypto {

enum class MaskVariant { kExchangedMasks, kSeededMasks };

/// Mask streams indexed by party id; the owning party's own entry is
/// ignored. A view: exchanged-variant callers pass their round cache
/// without copying it.
using PeerStreams = std::span<const std::span<const std::uint64_t>>;

/// Mapper-side state for one party across protocol rounds. Both variants
/// mask with the same algebra: every edge {i, j} contributes one stream,
/// added by one endpoint and subtracted by the other, so the streams cancel
/// in the reducer's ring sum over any edge set.
class SecureSumParty {
 public:
  /// kExchangedMasks party. `seed` drives this party's mask generation.
  SecureSumParty(std::size_t party_id, std::size_t num_parties,
                 FixedPointCodec codec, std::uint64_t seed);

  /// kSeededMasks party. `pairwise_seeds[j]` must equal the seed party j
  /// holds for this pair (e.g. a DH shared secret); entry for self ignored.
  /// `topology` and `group_size` (0 = auto) pick the edge set it masks over
  /// (crypto/grouped_ring.h).
  SecureSumParty(std::size_t party_id, std::size_t num_parties,
                 FixedPointCodec codec,
                 std::vector<std::uint64_t> pairwise_seeds,
                 AggregationTopology topology = AggregationTopology::kPairwise,
                 std::size_t group_size = 0);

  std::size_t party_id() const noexcept { return party_id_; }
  std::size_t num_parties() const noexcept { return num_parties_; }
  MaskVariant variant() const noexcept { return variant_; }

  /// kExchangedMasks step 1-2: fresh outgoing masks for round `round`,
  /// indexed by peer id (entry for self is empty). Deterministic in
  /// (seed, round, dim).
  std::vector<std::vector<std::uint64_t>> outgoing_masks(std::size_t round,
                                                         std::size_t dim);

  /// kSeededMasks step 3-4: encode `values` and mask them for `round`
  /// against this party's edges within `participants` (which must contain
  /// this party): every other participant under kPairwise, its mask_peers
  /// in the participants' group layout under kGroupedRing. The masks cancel
  /// when exactly `participants` contribute; no exchange needed.
  std::vector<std::uint64_t> mask(std::span<const double> values,
                                  std::size_t round,
                                  std::span<const std::size_t> participants)
      const;

  /// kExchangedMasks step 3-4: enc(values) + Sed_i - Rev_i, where `sent`
  /// is this party's outgoing_masks for `round` and `received[j]` the mask
  /// peer j sent it.
  std::vector<std::uint64_t> mask(std::span<const double> values,
                                  PeerStreams sent, PeerStreams received,
                                  std::size_t round) const;

  /// The same masked words, written to `wire` as little-endian 8-byte
  /// words, the wire layout (wire.size() == 8 * values.size()): a caller's
  /// contribution frame, filled in place. Both variants encode and mask
  /// kMaskChunkWords words at a time; the seeded one expands each peer's
  /// ChaCha20 stream one chunk (16 blocks) at a time, so no N-word stream
  /// is ever held.
  void mask(std::span<const double> values, std::size_t round,
            std::span<const std::size_t> participants,
            std::span<std::uint8_t> wire) const;
  void mask(std::span<const double> values, PeerStreams sent,
            PeerStreams received, std::size_t round,
            std::span<std::uint8_t> wire) const;

  /// Words per masking chunk: 16 ChaCha20 blocks, one AVX-512 keystream
  /// batch.
  static constexpr std::size_t kMaskChunkWords = 128;

  const FixedPointCodec& codec() const noexcept { return codec_; }

 private:
  /// The masking routine of each variant: masks `values` chunk by chunk
  /// and hands every masked chunk to `store(offset, words)`.
  template <typename Store>
  void mask_seeded(std::span<const double> values, std::size_t round,
                   std::span<const std::size_t> participants,
                   Store store) const;
  template <typename Store>
  void mask_exchanged(std::span<const double> values, PeerStreams sent,
                      PeerStreams received, std::size_t round,
                      Store store) const;

  std::size_t party_id_;
  std::size_t num_parties_;
  FixedPointCodec codec_;
  MaskVariant variant_;
  std::uint64_t seed_ = 0;                     // exchanged variant
  std::vector<std::uint64_t> pairwise_seeds_;  // seeded variant
  AggregationTopology topology_ = AggregationTopology::kPairwise;
  std::size_t group_size_ = 0;
};

/// Agree pairwise seeds for M parties via Diffie–Hellman on the standard
/// group: returns seeds[i][j] with seeds[i][j] == seeds[j][i] for i != j.
/// Costs M key generations, M public-value checks and M(M-1)/2 shared
/// secrets.
std::vector<std::vector<std::uint64_t>> agree_pairwise_seeds(
    std::size_t num_parties, std::uint64_t session_seed);

namespace detail {
/// Privacy-ledger pad key for an exchanged-variant wire vector: fingerprints
/// the party's own sent mask streams (`sent` indexed by peer, self ignored)
/// — the pad material itself — so any two applications of one round's
/// streams to different plaintexts collide on the same key.
std::uint64_t exchanged_pad_key(std::size_t party_id, PeerStreams sent);
}  // namespace detail

/// Run the whole protocol in memory (used by the in-memory trainers and
/// tests): returns the exact-codec average of the given per-party vectors.
std::vector<double> secure_average(
    const std::vector<std::vector<double>>& party_values,
    const FixedPointCodec& codec, std::uint64_t session_seed,
    MaskVariant variant = MaskVariant::kSeededMasks, std::size_t round = 0);

}  // namespace ppml::crypto
