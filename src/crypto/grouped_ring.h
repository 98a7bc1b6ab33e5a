// Grouped/ring aggregation topology for the secure-sum protocol
// (Turbo-Aggregate style; So, Güler, Avestimehr — "A Scalable Approach for
// Privacy-Preserving Collaborative Machine Learning").
//
// The paper's §V protocol masks every party against every peer: M(M-1)
// mask streams per round and an O(M²) rekey after every rejoin. This
// module restricts masking to a SPARSE CONNECTED edge set instead:
//
//   * the sorted participant list is cut into G balanced contiguous
//     groups of ~`group_size` members (auto: ceil(sqrt(M)), giving
//     G ≈ sqrt(M) groups of ≈ sqrt(M));
//   * inside each group every pair masks (an intra-group clique, exactly
//     the paper's protocol at group scale);
//   * the first member of each group (its LEADER) additionally masks with
//     the leaders of the adjacent groups, closing a ring that chains the
//     group aggregates into one connected graph.
//
// Every edge {i, j} is masked by both endpoints under the existing
// antisymmetric sign convention (lower id adds the pair's stream, higher
// id subtracts), so the reducer's ring sum cancels every mask and decodes
// to EXACTLY the value the dense pairwise topology produces — the two
// topologies are bit-compatible by construction (pinned in
// grouped_ring_test and consensus_engine_test). Per round the cohort
// expands 2|E| mask streams, |E| = sum_g C(|g|, 2) + ring edges, i.e.
// ~M·sqrt(M) under the auto group size and Θ(M) under any fixed one,
// against the dense topology's M(M-1).
//
// Privacy trades with the sparsity: a party's value is blinded only by its
// edge-incident streams, so it stays hidden as long as at least one of its
// NEIGHBORS (group members; adjacent leaders for a leader) is honest —
// against a coalition of all its neighbors it is exposed, whereas the
// dense topology requires a coalition of all M-1 peers. Dropout recovery
// composes unchanged: a dropped party's uncancelled masks live only on its
// edges, so the Shamir correction reconstructs just the seeds it shares
// with surviving neighbors (crypto/dropout_recovery.h). Full analysis in
// docs/secure_aggregation.md.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ppml::crypto {

/// Which edge set the seeded-mask protocol masks over. Selected per
/// SecureSumSession (AdmmParams::agg_topology end to end); kPairwise is
/// the paper's dense protocol and the default everywhere.
enum class AggregationTopology {
  kPairwise,     ///< every pair masks: M(M-1) streams per round
  kGroupedRing,  ///< intra-group cliques + leader ring: 2|E| streams
};

/// "pairwise" / "grouped-ring" (CLI spelling and bench/report labels).
const char* topology_name(AggregationTopology topology);

/// The balanced contiguous partition of one participant set into groups,
/// plus the leader ring over the groups' first members. Deterministic in
/// (participants, group_size): every party and the reducer derive the
/// identical layout locally — the layout is public protocol structure, not
/// a negotiated secret.
struct GroupLayout {
  /// Sorted participant ids, cut contiguously; groups.front() holds the
  /// larger groups when the split is uneven. Each group's first member is
  /// its leader.
  std::vector<std::vector<std::size_t>> groups;

  std::size_t num_groups() const noexcept { return groups.size(); }
  std::size_t leader(std::size_t group) const { return groups[group].front(); }
  /// Index into `groups` of the group holding `party` (throws when absent).
  std::size_t group_of(std::size_t party) const;
};

/// ceil(sqrt(M)) — the group size that balances intra-group clique cost
/// against ring length (both ≈ sqrt(M) groups of ≈ sqrt(M) members).
std::size_t auto_group_size(std::size_t num_participants);

/// `requested` clamped to [1, M]; 0 = auto_group_size(M).
std::size_t resolve_group_size(std::size_t requested,
                               std::size_t num_participants);

/// Cut the sorted, duplicate-free participant list into
/// G = ceil(M / group_size) balanced contiguous groups (sizes differ by at
/// most one; no group exceeds group_size).
GroupLayout build_group_layout(std::span<const std::size_t> participants,
                               std::size_t group_size);

/// The parties `party` shares a mask edge with under `layout`: its group
/// peers, plus — when it leads its group and the ring is non-trivial — the
/// adjacent groups' leaders. Sorted, deduplicated (a 2-group ring has one
/// leader edge, not two), never contains `party` itself. The edge list a
/// grouped-ring SecureSumParty::mask expands streams over.
std::vector<std::size_t> mask_peers(const GroupLayout& layout,
                                    std::size_t party);

/// |E| of the grouped-ring graph on M participants: sum_g C(|g|, 2)
/// intra-group edges + the leader ring (G edges when G >= 3, one when
/// G == 2, none when G <= 1). Per round the cohort expands 2|E| mask
/// streams — the number the bench sweep and the rekey-cost assertions pin.
std::size_t grouped_mask_edges(std::size_t num_participants,
                               std::size_t group_size);

}  // namespace ppml::crypto
