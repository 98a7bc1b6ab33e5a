// Batched secure-sum sessions: the one place that owns protocol setup
// (fixed-point codec, pairwise key agreement, per-party mask state) and the
// per-round contribute/aggregate flow that every consensus driver, the
// secure prediction path and the feature-selection round used to re-derive
// by hand.
//
// A session spans one key-agreement epoch of one job. On top of the §V
// protocol primitives (SecureSumParty / FixedPointCodec, secure_sum.h) it
// adds:
//
//   * BATCHED contributions — all of a learner's per-round tensors
//     (w, bias slot, any auxiliary vectors) are concatenated into ONE
//     masked wire vector: one fixed-point codec pass and one mask-stream
//     application per round instead of one per tensor. The saving is
//     visible in `--metrics` as crypto.sum.batched_tensors vs
//     crypto.sum.contributions (and crypto.sum.batched_elems for volume).
//   * ONE mask derivation per round in the exchanged-mask variant: the
//     first contribution of a round derives every party's outgoing streams
//     and caches them, so each stream is expanded once, not once for the
//     exchange and again inside the masking call.
//   * Reducer-side aggregation with integrated Shamir dropout recovery
//     (crypto/dropout_recovery.h): reduce_average() returns the exact
//     average over the parties that actually delivered, reconstructing the
//     pairwise seeds of any party that vanished after masking.
//   * Epoch handling — the key-derivation helpers the MapReduce fabric uses
//     to re-key everyone after a learner rejoins.
//
// Everything here is a re-arrangement of the existing primitives: for any
// fixed participant set and round the wire vectors and decoded sums are
// bit-identical to the hand-rolled flows (pinned by crypto_test and the
// consensus-engine bit-identity suites).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/dropout_recovery.h"
#include "crypto/grouped_ring.h"
#include "crypto/secure_sum.h"

namespace ppml::crypto {

/// Static description of one secure-sum deployment (all epochs).
struct SecureSumConfig {
  std::size_t num_parties = 0;
  unsigned fixed_point_bits = 20;
  /// Ring-headroom terms for the codec (0 = num_parties). Partial
  /// participation sizes this to the per-round participant count.
  std::size_t codec_terms = 0;
  MaskVariant variant = MaskVariant::kSeededMasks;
  std::uint64_t protocol_seed = 0;
  /// Which edge set the seeded variant masks over (crypto/grouped_ring.h).
  /// kGroupedRing cuts per-round mask expansion from M(M-1) streams to
  /// 2|E| over intra-group cliques plus the leader ring; the decoded sums
  /// are bit-identical either way. Seeded variant only.
  AggregationTopology topology = AggregationTopology::kPairwise;
  /// Grouped-ring group size (0 = auto ceil(sqrt(M))). Ignored under
  /// kPairwise.
  std::size_t group_size = 0;
};

/// One key-agreement epoch of the batched protocol: mapper-side masking and
/// reducer-side aggregation/recovery. In-process drivers hold one session
/// for all parties; a distributed mapper derives just its own state with
/// make_party().
class SecureSumSession {
 public:
  using Tensor = std::span<const double>;

  explicit SecureSumSession(const SecureSumConfig& config,
                            std::size_t epoch = 0);
  /// Same, but aggregate under a caller-supplied codec (its overflow
  /// headroom may be sized differently than config.codec_terms implies).
  SecureSumSession(const SecureSumConfig& config, FixedPointCodec codec,
                   std::size_t epoch = 0);

  const SecureSumConfig& config() const noexcept { return config_; }
  const FixedPointCodec& codec() const noexcept { return codec_; }
  std::size_t num_parties() const noexcept { return config_.num_parties; }
  MaskVariant variant() const noexcept { return config_.variant; }
  std::size_t epoch() const noexcept { return epoch_; }
  AggregationTopology topology() const noexcept { return config_.topology; }

  /// Whether any contribution was masked or reduced under the current
  /// key-agreement epoch. Once true the topology is pinned until rekey.
  bool epoch_active() const noexcept { return epoch_active_; }

  /// Allocate the next unused round number of this session (0, 1, 2, ...).
  /// Long-lived callers that run MANY protocol rounds on one key epoch —
  /// the prediction serving layer runs one round per micro-batch for the
  /// server's whole lifetime — must never mask two different value vectors
  /// under the same (epoch, round): PRG(s_ij, r) is a stream cipher pad,
  /// and pad reuse would let the reducer difference two batches' masked
  /// wire vectors. Drawing rounds from this counter makes reuse impossible
  /// by construction. Explicit-round callers (the consensus engine, whose
  /// round index is the ADMM iteration) are unaffected.
  std::size_t next_round() noexcept { return next_round_++; }
  /// Rounds handed out by next_round() so far.
  std::size_t rounds_allocated() const noexcept { return next_round_; }

  /// Switch the aggregation topology (and group size, 0 = auto) for this
  /// session. Only legal while the current epoch is UNUSED: masks already
  /// expanded this epoch assume one fixed edge set, so flipping mid-epoch
  /// would leave uncancelled streams in every in-flight round — the call
  /// throws (PPML_CHECK) once contribute/exchange/reduce has run. Rebuild
  /// or rekey the session to change topology afterwards. Grouped-ring
  /// requires the seeded-mask variant.
  void set_topology(AggregationTopology topology, std::size_t group_size = 0);

  /// Pairwise seed matrix of this epoch (seeded variant; empty otherwise).
  /// Row i is what party i would hold after key agreement.
  const std::vector<std::vector<std::uint64_t>>& pairwise_seeds() const
      noexcept {
    return seeds_;
  }

  // --- epoch key derivation (shared with the fabric binding) --------------

  /// Session key of key-agreement epoch `epoch` (epoch 0 == base seed).
  static std::uint64_t epoch_key(std::uint64_t base, std::size_t epoch);
  /// Seed of the epoch's Shamir sharing polynomials.
  static std::uint64_t epoch_sharing_seed(std::uint64_t base,
                                          std::size_t epoch);
  /// Shamir threshold resolution: 0 = auto clamp(M/2 + 1, 2, M-1).
  static std::size_t auto_threshold(std::size_t num_parties,
                                    std::size_t requested);

  /// The codec `config` implies (codec_terms, 0 = num_parties headroom).
  static FixedPointCodec codec_for(const SecureSumConfig& config);

  /// Party `party_id`'s mask state for `epoch`, derived without building a
  /// whole session — what a distributed mapper holds (bit-identical to the
  /// in-process session's party).
  static SecureSumParty make_party(const SecureSumConfig& config,
                                   std::size_t party_id,
                                   std::size_t epoch = 0);

  // --- dropout recovery ---------------------------------------------------

  /// Arm Shamir recovery for this epoch (seeded variant, M >= 3):
  /// reduce_average() can then correct rounds where a party vanished after
  /// masking. `threshold` 0 = auto.
  void arm_recovery(std::size_t threshold, std::uint64_t sharing_seed);
  bool recovery_armed() const noexcept { return recovery_.has_value(); }
  std::size_t recovery_threshold() const;

  // --- mapper side --------------------------------------------------------

  /// Batched masked contribution of `party` for `round`: concatenates
  /// `tensors`, encodes once, masks once (SecureSumParty::mask). Seeded:
  /// `mask_set` names the round's sorted participants (which must contain
  /// `party`; pass the full cohort for full rounds), and the party masks
  /// against its edges within it under the session's topology. Exchanged:
  /// `mask_set` must be the full cohort; the first contribution of a round
  /// derives every party's streams for that round once, and later ones
  /// reuse them.
  std::vector<std::uint64_t> contribute(std::size_t party,
                                        std::span<const Tensor> tensors,
                                        std::size_t round,
                                        std::span<const std::size_t> mask_set);

  // --- reducer side -------------------------------------------------------

  /// Filled by reduce_average for callers that audit recovery rounds.
  struct ReduceAudit {
    std::vector<std::size_t> dropped;  ///< mask_set parties that vanished
    std::vector<double> decoded_sum;   ///< exact sum over `present`
  };

  /// Exact average over `present` of contributions masked against
  /// `mask_set` in `round`. `contributions` is indexed by party id (absent
  /// parties' entries empty/ignored). When `present` is a strict subset of
  /// `mask_set`, the missing parties' uncancelled masks are stripped via
  /// the armed recovery session (throws if recovery is not armed or fewer
  /// than `threshold` parties are present). The ring sum, the decoded sum
  /// and the average are computed in buffers the session keeps, so a
  /// reducer that runs a round after round allocates none; the returned
  /// average is overwritten by the next call.
  const std::vector<double>& reduce_average(
      std::size_t round, std::span<const std::size_t> mask_set,
      std::span<const std::size_t> present,
      const std::vector<std::vector<std::uint64_t>>& contributions,
      ReduceAudit* audit = nullptr);

  /// Each party's masked words as wire bytes: 8 little-endian bytes per
  /// word, indexed by party id (absent parties' entries empty).
  using WireContributions = std::span<const std::span<const std::uint8_t>>;
  /// Same average, summing each present party's words straight from its
  /// wire bytes (a view into its received frame) instead of from a decoded
  /// copy.
  const std::vector<double>& reduce_average(
      std::size_t round, std::span<const std::size_t> mask_set,
      std::span<const std::size_t> present, WireContributions wire,
      ReduceAudit* audit = nullptr);

  // --- whole-protocol helpers (every party in-process) --------------------

  /// Run one full round over per-party values and return the decoded sum /
  /// average (both variants; the batched one-shot flow behind
  /// crypto::secure_average, secure prediction and feature selection).
  std::vector<double> sum_once(std::span<const Tensor> per_party_values,
                               std::size_t round = 0);
  std::vector<double> average_once(std::span<const Tensor> per_party_values,
                                   std::size_t round = 0);

 private:
  std::span<const double> batch(std::span<const Tensor> tensors);
  /// One SecureSumParty per party id, on the config's topology.
  void build_parties();
  /// Exchanged variant: derive (and cache) every party's outgoing masks for
  /// `round` at width `dim`.
  void exchange_round(std::size_t round, std::size_t dim);
  /// reduce_average's body over either contribution form: `words(i)` is
  /// party i's word count (0 = none), `add(i)` adds its words into acc_.
  template <typename Words, typename Add>
  const std::vector<double>& reduce_average_of(
      std::size_t round, std::span<const std::size_t> mask_set,
      std::span<const std::size_t> present, Words words, Add add,
      ReduceAudit* audit);
  std::vector<double> average_once_impl(std::span<const Tensor> per_party_values,
                                        std::size_t round, ReduceAudit* audit);

  SecureSumConfig config_;
  FixedPointCodec codec_;
  std::size_t epoch_ = 0;
  std::vector<std::vector<std::uint64_t>> seeds_;  ///< seeded variant
  std::vector<SecureSumParty> parties_;
  std::optional<DropoutRecoverySession> recovery_;

  bool epoch_active_ = false;  ///< any masking/reduction this epoch yet?
  std::size_t next_round_ = 0;  ///< next_round() allocator state

  // Exchanged-variant per-round mask cache: sent_[i][peer].
  std::size_t exchange_round_ = static_cast<std::size_t>(-1);
  std::size_t exchange_dim_ = 0;
  std::vector<std::vector<std::vector<std::uint64_t>>> sent_;

  std::vector<double> batch_scratch_;  ///< tensor concatenation buffer
  // reduce_average's round buffers: ring sum, decoded sum, average.
  std::vector<std::uint64_t> acc_;
  std::vector<double> sum_;
  std::vector<double> average_;
};

}  // namespace ppml::crypto
