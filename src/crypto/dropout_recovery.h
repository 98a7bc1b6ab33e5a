// Dropout recovery for the secure summation protocol.
//
// A gap in the paper's §V protocol: if any mapper fails AFTER the others
// computed their masked contributions, the pairwise masks involving the
// dead party never cancel and the round's sum is garbage (the dropout
// recovery tests enforce exactly that). This module closes the gap with the
// standard secret-sharing remedy (cf. Bonawitz et al., CCS'17, simplified
// to the semi-honest single-masking setting):
//
//   setup  : every pairwise seed s_ij is Shamir-shared among all M parties
//            with threshold t.
//   dropout: when party d's contribution is missing, >= t survivors reveal
//            their shares of {s_dj}; the reducer reconstructs the seeds,
//            re-expands the round's masks, and removes the survivors'
//            now-uncancelled mask terms from the aggregate. The result is
//            the exact sum over the SURVIVORS.
//            SecureSumSession::reduce_average runs this path whenever a
//            party of the round's mask set is missing.
//
// Security note (documented trade-off): reconstruction burns the dropped
// party's pairwise seeds — fine for a party that is gone; a returning
// party must re-run key agreement. Its actual data contribution was never
// sent, so nothing about its inputs leaks.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/secret_sharing.h"
#include "crypto/secure_sum.h"

namespace ppml::crypto {

/// Setup-time state: the Shamir shares of every pairwise seed.
class DropoutRecoverySession {
 public:
  /// `pairwise_seeds[i][j]` as produced by agree_pairwise_seeds (symmetric;
  /// diagonal ignored). Every seed must be < kShamirPrime (DH outputs are).
  /// `threshold` survivors are needed to reconstruct any seed.
  DropoutRecoverySession(
      const std::vector<std::vector<std::uint64_t>>& pairwise_seeds,
      std::size_t threshold, std::uint64_t sharing_seed);

  std::size_t parties() const noexcept { return parties_; }
  std::size_t threshold() const noexcept { return threshold_; }

  /// The sharing seed is also the privacy ledger's identity for this
  /// sharing domain: dropout declarations and share reveals are keyed on it.
  std::uint64_t sharing_seed() const noexcept { return sharing_seed_; }

  /// The share that party `holder` stores for the seed of pair
  /// (owner, peer). In deployment each party holds only its own row; this
  /// accessor is how the tests and the reducer-side demo fetch "revealed"
  /// shares.
  ShamirShare share(std::size_t holder, std::size_t owner,
                    std::size_t peer) const;

  /// Reducer side: reconstruct seed (dropped, peer) from revealed shares.
  static std::uint64_t reconstruct_seed(std::span<const ShamirShare> shares);

  /// The ring correction that removes the dropped party's uncancelled
  /// masks from a sum over `survivors` for round `round`:
  /// correction = - sum_{j in survivors} sign(j, dropped) * PRG(s_j,d, round)
  /// where sign(j, d) = +1 if j < d else -1 (the protocol's convention).
  /// `reconstructed_seeds[j]` must hold s_{dropped, j} for each survivor j
  /// (other entries ignored).
  static std::vector<std::uint64_t> mask_correction(
      std::size_t dropped, const std::vector<std::size_t>& survivors,
      const std::vector<std::uint64_t>& reconstructed_seeds,
      std::size_t round, std::size_t dim);

 private:
  std::size_t parties_;
  std::size_t threshold_;
  std::uint64_t sharing_seed_;
  // shares_[owner][peer][holder] — owner<peer canonical order.
  std::vector<std::vector<std::vector<ShamirShare>>> shares_;
};

}  // namespace ppml::crypto
