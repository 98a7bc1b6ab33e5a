#include "crypto/dropout_recovery.h"

#include <algorithm>

#include "obs/obs.h"

namespace ppml::crypto {

DropoutRecoverySession::DropoutRecoverySession(
    const std::vector<std::vector<std::uint64_t>>& pairwise_seeds,
    std::size_t threshold, std::uint64_t sharing_seed)
    : parties_(pairwise_seeds.size()),
      threshold_(threshold),
      sharing_seed_(sharing_seed) {
  PPML_CHECK(parties_ >= 3,
             "DropoutRecoverySession: need >= 3 parties (someone must "
             "survive to reconstruct)");
  PPML_CHECK(threshold >= 2 && threshold <= parties_ - 1,
             "DropoutRecoverySession: threshold must be in [2, M-1]");
  for (const auto& row : pairwise_seeds)
    PPML_CHECK(row.size() == parties_,
               "DropoutRecoverySession: seed matrix must be M x M");

  Xoshiro256 rng(sharing_seed);
  shares_.assign(parties_, {});
  for (std::size_t owner = 0; owner < parties_; ++owner) {
    shares_[owner].assign(parties_, {});
    for (std::size_t peer = owner + 1; peer < parties_; ++peer) {
      const std::uint64_t seed = pairwise_seeds[owner][peer];
      PPML_CHECK(seed == pairwise_seeds[peer][owner],
                 "DropoutRecoverySession: seed matrix not symmetric");
      PPML_CHECK(seed < kShamirPrime,
                 "DropoutRecoverySession: seed exceeds the sharing field");
      shares_[owner][peer] = shamir_share(seed, parties_, threshold_, rng);
    }
  }
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger())
    ledger->note_shares_dealt(sharing_seed_, parties_ * (parties_ - 1) / 2,
                              parties_, threshold_);
}

ShamirShare DropoutRecoverySession::share(std::size_t holder,
                                          std::size_t owner,
                                          std::size_t peer) const {
  PPML_CHECK(holder < parties_ && owner < parties_ && peer < parties_,
             "DropoutRecoverySession::share: index out of range");
  PPML_CHECK(owner != peer, "DropoutRecoverySession::share: no self-seed");
  const std::size_t lo = std::min(owner, peer);
  const std::size_t hi = std::max(owner, peer);
  // A share leaving its holder is the protocol's only reveal primitive:
  // the ledger counts it against pair (owner, peer)'s exposure budget and
  // trips when a LIVE pair would cross the reconstruction threshold.
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    ledger->note_share_revealed(sharing_seed_, owner, peer, holder);
    ledger->note_cleartext_for(static_cast<int>(holder),
                               obs::ClearKind::kShamirShare, 1, 16);
  }
  return shares_[lo][hi][holder];
}

std::uint64_t DropoutRecoverySession::reconstruct_seed(
    std::span<const ShamirShare> shares) {
  obs::count("crypto.shamir_reconstructions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger())
    ledger->note_reconstruction();
  return shamir_reconstruct(shares);
}

std::vector<std::uint64_t> DropoutRecoverySession::mask_correction(
    std::size_t dropped, const std::vector<std::size_t>& survivors,
    const std::vector<std::uint64_t>& reconstructed_seeds, std::size_t round,
    std::size_t dim) {
  std::vector<std::uint64_t> correction(dim, 0);
  std::vector<std::uint64_t> mask(dim);
  for (std::size_t j : survivors) {
    PPML_CHECK(j != dropped, "mask_correction: dropped party in survivors");
    PPML_CHECK(j < reconstructed_seeds.size(),
               "mask_correction: missing reconstructed seed");
    ChaCha20Stream prg(reconstructed_seeds[j], round);
    prg.fill(mask);
    // Survivor j added sign(j, dropped) * mask to its contribution; remove.
    if (j < dropped) {
      ring_sub_inplace(correction, mask);
    } else {
      ring_add_inplace(correction, mask);
    }
  }
  obs::count("crypto.mask_corrections");
  return correction;
}

}  // namespace ppml::crypto
