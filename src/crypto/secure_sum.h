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
// Two mask-derivation variants:
//   kExchangedMasks — the literal protocol: fresh masks each round, O(dim)
//                     pairwise traffic per round.
//   kSeededMasks    — pairwise seeds agreed once (e.g. via Diffie–Hellman),
//                     masks expanded per round with ChaCha20; O(1) pairwise
//                     traffic after setup. Same cancellation algebra.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/dh.h"
#include "crypto/fixed_point.h"
#include "crypto/prng.h"

namespace ppml::crypto {

enum class MaskVariant { kExchangedMasks, kSeededMasks };

/// Mapper-side state for one party across protocol rounds.
class SecureSumParty {
 public:
  /// kExchangedMasks party. `seed` drives this party's mask generation.
  SecureSumParty(std::size_t party_id, std::size_t num_parties,
                 FixedPointCodec codec, std::uint64_t seed);

  /// kSeededMasks party. `pairwise_seeds[j]` must equal the seed party j
  /// holds for this pair (e.g. a DH shared secret); entry for self ignored.
  SecureSumParty(std::size_t party_id, std::size_t num_parties,
                 FixedPointCodec codec,
                 std::vector<std::uint64_t> pairwise_seeds);

  std::size_t party_id() const noexcept { return party_id_; }
  std::size_t num_parties() const noexcept { return num_parties_; }
  MaskVariant variant() const noexcept { return variant_; }

  /// kExchangedMasks step 1-2: fresh outgoing masks for round `round`,
  /// indexed by peer id (entry for self is empty). Deterministic in
  /// (seed, round, dim).
  std::vector<std::vector<std::uint64_t>> outgoing_masks(std::size_t round,
                                                         std::size_t dim);

  /// kExchangedMasks step 3-4: masked contribution given this party's value
  /// vector and the masks received from all peers this round.
  std::vector<std::uint64_t> masked_contribution(
      std::span<const double> values,
      const std::vector<std::vector<std::uint64_t>>& received, std::size_t round);

  /// kExchangedMasks step 3-4 when this round's outgoing masks were already
  /// derived (by the outgoing_masks call that served the exchange): same
  /// algebra and result as masked_contribution(values, received, round),
  /// without re-expanding the sent streams. `sent` must be this party's
  /// outgoing_masks for the round.
  std::vector<std::uint64_t> masked_contribution_cached(
      std::span<const double> values,
      const std::vector<std::vector<std::uint64_t>>& sent,
      const std::vector<std::vector<std::uint64_t>>& received);

  /// kSeededMasks step 3-4: masked contribution; masks derive from the
  /// pairwise seeds and `round`, no exchange needed.
  std::vector<std::uint64_t> masked_contribution(std::span<const double> values,
                                                 std::size_t round);

  /// kSeededMasks with PARTIAL participation: masks are generated only
  /// against the peers in `participants` (which must contain this party).
  /// The masks cancel when exactly that set contributes — the building
  /// block for sampled/partial consensus rounds.
  std::vector<std::uint64_t> masked_contribution_subset(
      std::span<const double> values, std::size_t round,
      std::span<const std::size_t> participants);

  const FixedPointCodec& codec() const noexcept { return codec_; }

 private:
  std::size_t party_id_;
  std::size_t num_parties_;
  FixedPointCodec codec_;
  MaskVariant variant_;
  std::uint64_t seed_ = 0;                     // exchanged variant
  std::vector<std::uint64_t> pairwise_seeds_;  // seeded variant
};

/// Reducer-side accumulator: sums masked contributions in the ring, then
/// decodes. The reducer never sees an unmasked contribution.
class SecureSumAggregator {
 public:
  SecureSumAggregator(std::size_t num_parties, FixedPointCodec codec);

  /// Add one mapper's masked contribution (all must share one dimension).
  void add(std::span<const std::uint64_t> contribution);

  std::size_t contributions() const noexcept { return contributions_; }

  /// Decoded sum; requires exactly num_parties contributions (otherwise the
  /// masks have not cancelled and the result would be garbage — throws).
  std::vector<double> sum() const;

  /// sum() / num_parties — the consensus average the Reducer feeds back.
  std::vector<double> average() const;

 private:
  std::size_t num_parties_;
  FixedPointCodec codec_;
  std::vector<std::uint64_t> accumulator_;
  std::size_t contributions_ = 0;
};

/// Agree pairwise seeds for M parties via Diffie–Hellman on the standard
/// group: returns seeds[i][j] with seeds[i][j] == seeds[j][i] for i != j.
/// Costs M key generations, M public-value checks and M(M-1)/2 shared
/// secrets.
std::vector<std::vector<std::uint64_t>> agree_pairwise_seeds(
    std::size_t num_parties, std::uint64_t session_seed);

namespace detail {
/// Privacy-ledger pad key for an exchanged-variant wire vector: fingerprints
/// the party's own sent mask streams (`sent` indexed by peer, self empty) —
/// the pad material itself — so the legacy, cached and session-batched
/// exchanged paths all collide on the same key when they reuse a round's
/// streams for a second plaintext.
std::uint64_t exchanged_pad_key(
    std::size_t party_id,
    const std::vector<std::vector<std::uint64_t>>& sent);
}  // namespace detail

/// Run the whole protocol in memory (used by the in-memory trainers and
/// tests): returns the exact-codec average of the given per-party vectors.
std::vector<double> secure_average(
    const std::vector<std::vector<double>>& party_values,
    const FixedPointCodec& codec, std::uint64_t session_seed,
    MaskVariant variant = MaskVariant::kSeededMasks, std::size_t round = 0);

}  // namespace ppml::crypto
