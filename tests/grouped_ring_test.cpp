// Grouped/ring aggregation topology (crypto/grouped_ring.h +
// SecureSumSession plumbing): layout math over ragged and degenerate
// partitions, bit-compatibility of the decoded sums with the dense
// pairwise protocol, Shamir recovery when whole groups vanish, rekey cost
// accounting, and the mid-epoch topology pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "crypto/grouped_ring.h"
#include "crypto/secure_sum_session.h"
#include "obs/obs.h"

namespace ppml::crypto {
namespace {

std::vector<std::size_t> iota_set(std::size_t m) {
  std::vector<std::size_t> out(m);
  for (std::size_t i = 0; i < m; ++i) out[i] = i;
  return out;
}

std::vector<std::vector<double>> party_values(std::size_t m,
                                              std::size_t dim,
                                              double scale) {
  std::vector<std::vector<double>> values(m);
  for (std::size_t i = 0; i < m; ++i) {
    values[i].resize(dim);
    for (std::size_t j = 0; j < dim; ++j)
      values[i][j] = scale * static_cast<double>(i + 1) -
                     0.0625 * static_cast<double>(j + 1);
  }
  return values;
}

SecureSumConfig grouped_config(std::size_t m, std::size_t group_size,
                               std::uint64_t seed) {
  SecureSumConfig config;
  config.num_parties = m;
  config.protocol_seed = seed;
  config.topology = AggregationTopology::kGroupedRing;
  config.group_size = group_size;
  return config;
}

// --- layout math -----------------------------------------------------------

TEST(GroupedRingLayout, AutoGroupSizeIsCeilSqrt) {
  EXPECT_EQ(auto_group_size(1), 1u);
  EXPECT_EQ(auto_group_size(2), 2u);
  EXPECT_EQ(auto_group_size(4), 2u);
  EXPECT_EQ(auto_group_size(5), 3u);
  EXPECT_EQ(auto_group_size(9), 3u);
  EXPECT_EQ(auto_group_size(10), 4u);
  EXPECT_EQ(auto_group_size(16), 4u);
  EXPECT_EQ(auto_group_size(17), 5u);
  EXPECT_EQ(auto_group_size(512), 23u);
}

TEST(GroupedRingLayout, BalancedContiguousCutOnNonSquareM) {
  // M=7, groups of <= 3: G = 3 with sizes 3, 2, 2 — never more than one
  // apart, contiguous over the sorted ids.
  const auto ids = iota_set(7);
  const GroupLayout layout = build_group_layout(ids, 3);
  ASSERT_EQ(layout.num_groups(), 3u);
  EXPECT_EQ(layout.groups[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(layout.groups[1], (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(layout.groups[2], (std::vector<std::size_t>{5, 6}));
  EXPECT_EQ(layout.leader(1), 3u);
  EXPECT_EQ(layout.group_of(6), 2u);
}

TEST(GroupedRingLayout, NonContiguousParticipantIds) {
  // Layouts are over participant LISTS, not id ranges — partial rounds and
  // shrunken cohorts hand in gap-ridden sets.
  const std::vector<std::size_t> ids = {1, 3, 4, 7, 9};
  const GroupLayout layout = build_group_layout(ids, 2);
  ASSERT_EQ(layout.num_groups(), 3u);
  EXPECT_EQ(layout.groups[0], (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(layout.groups[1], (std::vector<std::size_t>{4, 7}));
  EXPECT_EQ(layout.groups[2], (std::vector<std::size_t>{9}));
  // 9 is a singleton group: its only mask edges are the leader ring.
  EXPECT_EQ(mask_peers(layout, 9), (std::vector<std::size_t>{1, 4}));
}

TEST(GroupedRingLayout, SingletonGroupKeepsTheGraphConnected) {
  // M=3, groups of 2: {0,1} and {2}. The lone party 2 still masks with
  // leader 0 through the (deduplicated) two-group ring.
  const auto ids = iota_set(3);
  const GroupLayout layout = build_group_layout(ids, 2);
  ASSERT_EQ(layout.num_groups(), 2u);
  EXPECT_EQ(layout.groups[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(mask_peers(layout, 2), (std::vector<std::size_t>{0}));
  EXPECT_EQ(mask_peers(layout, 0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(mask_peers(layout, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(grouped_mask_edges(3, 2), 2u);
}

TEST(GroupedRingLayout, TwoGroupRingHasOneLeaderEdgeNotTwo) {
  // With exactly two groups prev-leader == next-leader: the ring would
  // double the edge, which the dedup must collapse (a doubled antisymmetric
  // mask pair still cancels, but the mask count and threat model assume
  // simple edges).
  const auto ids = iota_set(4);
  const GroupLayout layout = build_group_layout(ids, 2);
  ASSERT_EQ(layout.num_groups(), 2u);
  EXPECT_EQ(mask_peers(layout, 0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(mask_peers(layout, 2), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(grouped_mask_edges(4, 2), 3u);
}

TEST(GroupedRingLayout, GroupSizeOneDegeneratesToAPureRing) {
  EXPECT_EQ(grouped_mask_edges(5, 1), 5u);  // 5 singleton groups, ring of 5
  const GroupLayout layout = build_group_layout(iota_set(5), 1);
  EXPECT_EQ(mask_peers(layout, 0), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(mask_peers(layout, 2), (std::vector<std::size_t>{1, 3}));
}

TEST(GroupedRingLayout, SingleGroupDegeneratesToThePairwiseClique) {
  EXPECT_EQ(grouped_mask_edges(6, 6), 15u);  // C(6,2), no ring
  const GroupLayout layout = build_group_layout(iota_set(6), 6);
  EXPECT_EQ(layout.num_groups(), 1u);
  EXPECT_EQ(mask_peers(layout, 3),
            (std::vector<std::size_t>{0, 1, 2, 4, 5}));
}

TEST(GroupedRingLayout, EdgeCountMatchesTheDegreeSum) {
  // 2|E| must equal the sum of per-party mask-set degrees — that identity
  // is what makes crypto.masks_generated per round exactly 2|E|.
  for (const std::size_t m : {2u, 3u, 5u, 8u, 12u, 17u}) {
    for (const std::size_t gs : {0u, 1u, 2u, 3u, 5u}) {
      const GroupLayout layout = build_group_layout(iota_set(m), gs);
      std::size_t degree_sum = 0;
      for (std::size_t i = 0; i < m; ++i)
        degree_sum += mask_peers(layout, i).size();
      EXPECT_EQ(degree_sum, 2 * grouped_mask_edges(m, gs))
          << "m=" << m << " gs=" << gs;
    }
  }
}

TEST(GroupedRingLayout, RejectsUnsortedParticipants) {
  const std::vector<std::size_t> unsorted = {3, 1, 2};
  EXPECT_THROW(build_group_layout(unsorted, 2), InvalidArgument);
  const std::vector<std::size_t> duplicated = {1, 1, 2};
  EXPECT_THROW(build_group_layout(duplicated, 2), InvalidArgument);
}

// --- bit-compatibility with the pairwise protocol --------------------------

TEST(GroupedRingSession, SumsBitIdenticalToPairwiseAcrossShapes) {
  for (const std::size_t m : {2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u}) {
    for (const std::size_t gs : {0u, 1u, 2u, 3u}) {
      const auto values = party_values(m, 6, 0.75);
      const std::vector<SecureSumSession::Tensor> tensors(values.begin(),
                                                          values.end());
      SecureSumConfig pairwise;
      pairwise.num_parties = m;
      pairwise.protocol_seed = 0x5eed;
      SecureSumSession dense(pairwise);
      SecureSumSession grouped(grouped_config(m, gs, 0x5eed));
      for (const std::size_t round : {0u, 1u, 7u}) {
        EXPECT_EQ(dense.sum_once(tensors, round),
                  grouped.sum_once(tensors, round))
            << "m=" << m << " gs=" << gs << " round=" << round;
      }
    }
  }
}

TEST(GroupedRingSession, WireContributionsAreMaskedAndTopologySpecific) {
  // Same plaintext, same seeds: the grouped wire vector must differ from
  // both the raw encoding (the masks are real) and the pairwise wire
  // vector (the edge set is different) — only the SUM agrees.
  const std::size_t m = 9;
  const auto values = party_values(m, 6, 0.5);
  SecureSumConfig pairwise;
  pairwise.num_parties = m;
  pairwise.protocol_seed = 0xBEEF;
  SecureSumSession dense(pairwise);
  SecureSumSession grouped(grouped_config(m, 3, 0xBEEF));
  const auto everyone = iota_set(m);
  const SecureSumSession::Tensor tensor = values[4];
  const auto grouped_wire = grouped.contribute(4, {&tensor, 1}, 0, everyone);
  const auto dense_wire = dense.contribute(4, {&tensor, 1}, 0, everyone);
  const auto plain = grouped.codec().encode_vector(values[4]);
  EXPECT_NE(grouped_wire, plain);
  EXPECT_NE(grouped_wire, dense_wire);
}

// --- dropout recovery at group scale ---------------------------------------

TEST(GroupedRingSession, WholeGroupDropoutRecoversAndMatchesPairwise) {
  // M=9 in groups of 3: {0,1,2} {3,4,5} {6,7,8}. The entire middle group
  // vanishes after masking. Interior member 4's neighborhood dropped with
  // it (no correction needed — none of its edge streams reached the
  // accumulator); leader 3's ring edges to leaders 0 and 6 must be
  // reconstructed. The corrected average must equal the pairwise
  // protocol's own recovery result bit for bit.
  const std::size_t m = 9;
  const auto values = party_values(m, 5, 1.25);
  const std::vector<SecureSumSession::Tensor> tensors(values.begin(),
                                                      values.end());
  const auto everyone = iota_set(m);
  const std::vector<std::size_t> present = {0, 1, 2, 6, 7, 8};

  const auto run = [&](SecureSumConfig config) {
    SecureSumSession session(config);
    session.arm_recovery(/*threshold=*/0, /*sharing_seed=*/0xD509);
    std::vector<std::vector<std::uint64_t>> wire(m);
    for (std::size_t i = 0; i < m; ++i) {
      const SecureSumSession::Tensor tensor = values[i];
      wire[i] = session.contribute(i, {&tensor, 1}, /*round=*/2, everyone);
    }
    std::vector<std::vector<std::uint64_t>> delivered(m);
    for (std::size_t i : present) delivered[i] = wire[i];
    SecureSumSession::ReduceAudit audit;
    const auto average =
        session.reduce_average(/*round=*/2, everyone, present, delivered,
                               &audit);
    EXPECT_EQ(audit.dropped, (std::vector<std::size_t>{3, 4, 5}));
    return average;
  };

  SecureSumConfig pairwise;
  pairwise.num_parties = m;
  pairwise.protocol_seed = 0xC0FFEE;

  obs::MetricsRegistry grouped_metrics;
  std::vector<double> grouped_avg;
  {
    obs::Session obs_session(nullptr, &grouped_metrics);
    grouped_avg = run(grouped_config(m, 3, 0xC0FFEE));
  }
  obs::MetricsRegistry pairwise_metrics;
  std::vector<double> pairwise_avg;
  {
    obs::Session obs_session(nullptr, &pairwise_metrics);
    pairwise_avg = run(pairwise);
  }
  EXPECT_EQ(grouped_avg, pairwise_avg);

  // Sparse recovery: pairwise reconstructs every (dropped, survivor) seed —
  // 3 x 6 — while grouped only needs leader 3's two surviving ring
  // neighbors (members 4 and 5 have no surviving neighbors at all).
  EXPECT_EQ(pairwise_metrics.counter("crypto.shamir_reconstructions"), 18);
  EXPECT_EQ(grouped_metrics.counter("crypto.shamir_reconstructions"), 2);
  EXPECT_EQ(grouped_metrics.counter("crypto.mask_corrections"), 1);
}

TEST(GroupedRingSession, SingleDropoutInsideAGroupRecovers) {
  // Non-leader 7 drops out of {6,7,8}: only its two group peers' seeds are
  // reconstructed, and the decoded average matches pairwise recovery.
  const std::size_t m = 9;
  const auto values = party_values(m, 4, 0.5);
  const auto everyone = iota_set(m);
  std::vector<std::size_t> present;
  for (std::size_t i = 0; i < m; ++i)
    if (i != 7) present.push_back(i);

  const auto run = [&](SecureSumConfig config) {
    SecureSumSession session(config);
    session.arm_recovery(0, 0xD509);
    std::vector<std::vector<std::uint64_t>> wire(m);
    for (std::size_t i = 0; i < m; ++i) {
      const SecureSumSession::Tensor tensor = values[i];
      wire[i] = session.contribute(i, {&tensor, 1}, 0, everyone);
    }
    wire[7].clear();
    return session.reduce_average(0, everyone, present, wire);
  };
  SecureSumConfig pairwise;
  pairwise.num_parties = m;
  pairwise.protocol_seed = 0x1234;
  obs::MetricsRegistry metrics;
  std::vector<double> grouped_avg;
  {
    obs::Session obs_session(nullptr, &metrics);
    grouped_avg = run(grouped_config(m, 3, 0x1234));
  }
  EXPECT_EQ(grouped_avg, run(pairwise));
  EXPECT_EQ(metrics.counter("crypto.shamir_reconstructions"), 2);
}

// --- rekey lifecycle and cost ----------------------------------------------

TEST(GroupedRingSession, RekeyCostStaysLinearInTheEdgeSet) {
  // After a rejoin the fabric rebuilds the session under a new epoch. The
  // per-round mask bill must stay 2|E| (not M(M-1)) across epochs — the
  // whole point of the topology is that rekey-heavy deployments stop
  // paying the quadratic wall.
  const std::size_t m = 16;
  const std::size_t gs = 4;
  const auto values = party_values(m, 3, 0.25);
  const auto everyone = iota_set(m);
  const std::int64_t per_round =
      static_cast<std::int64_t>(2 * grouped_mask_edges(m, gs));
  const SecureSumConfig config = grouped_config(m, gs, 0xFEED);

  for (const std::size_t epoch : {0u, 1u, 5u}) {
    SecureSumSession session(config, epoch);
    obs::MetricsRegistry metrics;
    {
      obs::Session obs_session(nullptr, &metrics);
      std::vector<std::vector<std::uint64_t>> wire(m);
      for (std::size_t i = 0; i < m; ++i) {
        const SecureSumSession::Tensor tensor = values[i];
        wire[i] = session.contribute(i, {&tensor, 1}, 0, everyone);
      }
      (void)session.reduce_average(0, everyone, everyone, wire);
    }
    EXPECT_EQ(metrics.counter("crypto.masks_generated"), per_round)
        << "epoch=" << epoch;
    EXPECT_LT(per_round, static_cast<std::int64_t>(m * (m - 1)));
  }
}

TEST(GroupedRingSession, EpochsProduceDistinctSumsOnlyThroughRekeyedMasks) {
  // Different epochs re-run key agreement, so single wire vectors change,
  // but the decoded sum is epoch-independent — rekey never perturbs the
  // model math.
  const std::size_t m = 6;
  const auto values = party_values(m, 4, 1.0);
  const std::vector<SecureSumSession::Tensor> tensors(values.begin(),
                                                      values.end());
  const SecureSumConfig config = grouped_config(m, 0, 0xABCD);
  SecureSumSession epoch0(config, 0);
  SecureSumSession epoch1(config, 1);
  const auto everyone = iota_set(m);
  const SecureSumSession::Tensor tensor = values[0];
  EXPECT_NE(epoch0.contribute(0, {&tensor, 1}, 0, everyone),
            epoch1.contribute(0, {&tensor, 1}, 0, everyone));
  EXPECT_EQ(epoch0.sum_once(tensors, 1), epoch1.sum_once(tensors, 1));
}

// --- topology pinning (the mid-epoch bugfix) -------------------------------

TEST(GroupedRingSession, TopologySwitchAllowedOnlyOnAnUnusedEpoch) {
  SecureSumConfig config;
  config.num_parties = 4;
  config.protocol_seed = 0x77;
  SecureSumSession session(config);
  EXPECT_FALSE(session.epoch_active());

  // Before any masking the topology is still negotiable.
  session.set_topology(AggregationTopology::kGroupedRing, 2);
  EXPECT_EQ(session.topology(), AggregationTopology::kGroupedRing);
  session.set_topology(AggregationTopology::kPairwise);

  const auto values = party_values(4, 3, 0.5);
  const auto everyone = iota_set(4);
  const SecureSumSession::Tensor tensor = values[1];
  (void)session.contribute(1, {&tensor, 1}, 0, everyone);
  EXPECT_TRUE(session.epoch_active());
  EXPECT_THROW(
      session.set_topology(AggregationTopology::kGroupedRing, 2),
      InvalidArgument);

  // A reducer-only session is pinned by its first reduction too.
  SecureSumSession reducer(config);
  std::vector<std::vector<std::uint64_t>> wire(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const SecureSumSession::Tensor t = values[i];
    wire[i] = session.contribute(i, {&t, 1}, 1, everyone);
  }
  (void)reducer.reduce_average(1, everyone, everyone, wire);
  EXPECT_THROW(reducer.set_topology(AggregationTopology::kGroupedRing),
               InvalidArgument);

  // Rebuilding for a new epoch (what ConsensusEngine::rekey does) unpins.
  SecureSumSession rekeyed(session.config(), /*epoch=*/1);
  EXPECT_FALSE(rekeyed.epoch_active());
  rekeyed.set_topology(AggregationTopology::kGroupedRing, 2);
  EXPECT_EQ(rekeyed.topology(), AggregationTopology::kGroupedRing);
}

TEST(GroupedRingSession, GroupedRingRequiresSeededMasks) {
  SecureSumConfig config;
  config.num_parties = 4;
  config.variant = MaskVariant::kExchangedMasks;
  config.topology = AggregationTopology::kGroupedRing;
  EXPECT_THROW(SecureSumSession{config}, InvalidArgument);

  SecureSumConfig exchanged;
  exchanged.num_parties = 4;
  exchanged.variant = MaskVariant::kExchangedMasks;
  SecureSumSession session(exchanged);
  EXPECT_THROW(session.set_topology(AggregationTopology::kGroupedRing),
               InvalidArgument);
}

}  // namespace
}  // namespace ppml::crypto
