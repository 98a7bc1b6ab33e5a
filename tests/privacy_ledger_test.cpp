// Privacy audit ledger: adversarial pad-reuse / Shamir over-exposure trips,
// exact reconciliation against the crypto.* counter shards, and the
// observational-only guarantee (consensus bit-identical ledger-on vs
// ledger-off, in-memory and cluster transports).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_trainers.h"
#include "core/feature_selection.h"
#include "core/linear_horizontal.h"
#include "core/multiclass_horizontal.h"
#include "core/secure_prediction.h"
#include "core/vertical.h"
#include "crypto/dropout_recovery.h"
#include "crypto/secure_sum_session.h"
#include "data/generators.h"
#include "data/partition.h"
#include "obs/obs.h"
#include "svm/multiclass.h"

namespace ppml {
namespace {

using crypto::SecureSumConfig;
using crypto::SecureSumSession;
using Tensor = SecureSumSession::Tensor;

SecureSumConfig seeded_config(std::size_t parties, std::uint64_t seed) {
  SecureSumConfig config;
  config.num_parties = parties;
  config.protocol_seed = seed;
  return config;
}

core::AdmmParams fast_params(std::size_t iterations,
                             std::uint64_t protocol_seed = 0xC0FFEE) {
  core::AdmmParams params;
  params.max_iterations = iterations;
  params.protocol_seed = protocol_seed;
  return params;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ------------------------------------------------------------- pad reuse

TEST(PrivacyLedgerPads, ReuseTripsNamesEdgeAndDumpsFlightRing) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(256);
  const std::string dump = "privacy_pad_reuse_dump.json";
  std::remove(dump.c_str());
  recorder.arm_auto_dump(dump);
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, &recorder, &ledger);

  SecureSumSession sum(seeded_config(4, 0xFEEDu));
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  const std::vector<Tensor> ta{Tensor(a)};
  const std::vector<Tensor> tb{Tensor(b)};

  sum.contribute(1, ta, /*round=*/5, everyone);
  // Same party, same round, DIFFERENT plaintext: the round-5 pads on party
  // 1's three edges are being replayed — the first edge checked trips.
  try {
    sum.contribute(1, tb, /*round=*/5, everyone);
    FAIL() << "pad reuse did not trip";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one-time pad reused"), std::string::npos) << what;
    EXPECT_NE(what.find("party 1"), std::string::npos) << what;
    EXPECT_NE(what.find("round 5"), std::string::npos) << what;
  }

  const auto snap = ledger.snapshot();
  ASSERT_EQ(snap.violations.size(), 1u);
  EXPECT_EQ(snap.violations[0].kind, "pad_reuse");
  EXPECT_EQ(snap.violations[0].party, 1);
  EXPECT_NE(snap.violations[0].detail.find("edge (1,"), std::string::npos);
  EXPECT_EQ(metrics.counter("privacy.violations"), 1);

  // The check-failure hook dumped the armed ring; the dump carries both the
  // ledger's mark and the check failure itself.
  const std::string text = slurp(dump);
  ASSERT_FALSE(text.empty()) << "no flight dump written";
  EXPECT_NE(text.find("privacy.pad_reuse"), std::string::npos);
  EXPECT_NE(text.find("ppml_check_failure"), std::string::npos);
  std::remove(dump.c_str());
}

TEST(PrivacyLedgerPads, SamePlaintextIsBenignReplayNotViolation) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  SecureSumSession sum(seeded_config(4, 0xFEEDu));
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<Tensor> ta{Tensor(a)};

  const auto first = sum.contribute(2, ta, /*round=*/3, everyone);
  const auto again = sum.contribute(2, ta, /*round=*/3, everyone);
  EXPECT_EQ(first, again);  // deterministic re-execution

  const auto snap = ledger.snapshot();
  EXPECT_TRUE(snap.violations.empty());
  EXPECT_EQ(snap.benign_replays, 3u);  // one per edge of party 2
  EXPECT_EQ(snap.pads_distinct, 3u);
  EXPECT_FALSE(snap.pad_table_overflow);
}

TEST(PrivacyLedgerPads, ExchangedReuseNamesTheRealRound) {
  // A fabric mapper masks with the exchanged streams it cached for the
  // round; replaying round 7's streams over a second plaintext must trip
  // and name round 7.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  SecureSumConfig config = seeded_config(3, 0xFEEDu);
  config.variant = crypto::MaskVariant::kExchangedMasks;
  std::vector<std::vector<std::vector<std::uint64_t>>> sent;
  for (std::size_t i = 0; i < 3; ++i)
    sent.push_back(
        SecureSumSession::make_party(config, i).outgoing_masks(7, 3));
  using Views = std::vector<std::span<const std::uint64_t>>;
  const Views own(sent[1].begin(), sent[1].end());
  const Views received{sent[0][1], {}, sent[2][1]};
  const crypto::SecureSumParty party = SecureSumSession::make_party(config, 1);
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};

  party.mask(a, own, received, /*round=*/7);
  try {
    party.mask(b, own, received, /*round=*/7);
    FAIL() << "pad reuse did not trip";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("round 7"), std::string::npos)
        << e.what();
  }
  const auto snap = ledger.snapshot();
  ASSERT_EQ(snap.violations.size(), 1u);
  EXPECT_NE(snap.violations[0].detail.find("round 7 site exchanged"),
            std::string::npos)
      << snap.violations[0].detail;
}

TEST(PrivacyLedgerPads, CrossSessionSeedReuseCollides) {
  // Two sessions, same protocol seed (a missed rekey): each session's own
  // bookkeeping is clean, but the pads are keyed on the seed VALUES, so the
  // second session's round-0 masking of different values trips.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  SecureSumSession first(seeded_config(3, 0xABCDu));
  SecureSumSession second(seeded_config(3, 0xABCDu));
  const std::vector<std::size_t> everyone{0, 1, 2};
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{9.0, 9.0};
  const std::vector<Tensor> ta{Tensor(a)};
  const std::vector<Tensor> tb{Tensor(b)};
  first.contribute(0, ta, 0, everyone);
  EXPECT_THROW(second.contribute(0, tb, 0, everyone), Error);
}

TEST(PrivacyLedgerPads, ReportNamesOffendingParty) {
  obs::PrivacyLedger ledger;  // standalone — no session required
  ledger.note_pad_use(42, 100, 3, 1, 7, "unit");
  EXPECT_THROW(ledger.note_pad_use(42, 200, 3, 1, 7, "unit"), Error);

  const std::string json = obs::privacy_report_json(ledger, nullptr).dump(2);
  EXPECT_NE(json.find("\"pad_reuse\""), std::string::npos) << json;
  EXPECT_NE(json.find("party 3 edge (3,1) round 7 site unit"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reconciled\": true"), std::string::npos) << json;
}

// ------------------------------------------------------- Shamir exposure

TEST(PrivacyLedgerShamir, MarginGaugeFallsThenOverExposureTrips) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(128);
  const std::string dump = "privacy_share_dump.json";
  std::remove(dump.c_str());
  recorder.arm_auto_dump(dump);
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, &recorder, &ledger);

  const auto seeds = crypto::agree_pairwise_seeds(5, 42);
  crypto::DropoutRecoverySession recovery(seeds, /*threshold=*/3,
                                          /*sharing_seed=*/0xABCu);
  {
    const auto snap = ledger.snapshot();
    ASSERT_EQ(snap.sharings.size(), 1u);
    EXPECT_EQ(snap.sharings[0].threshold, 3u);
    EXPECT_EQ(snap.sharings[0].seeds_dealt, 10u);   // C(5,2) pairs
    EXPECT_EQ(snap.sharings[0].shares_dealt, 50u);  // x 5 holders
    EXPECT_EQ(snap.sharings[0].min_live_margin, 3u);
  }

  // No one dropped: each reveal of pair (1,2)'s seed narrows the margin.
  recovery.share(/*holder=*/0, /*owner=*/1, /*peer=*/2);
  recovery.share(/*holder=*/3, /*owner=*/1, /*peer=*/2);
  EXPECT_DOUBLE_EQ(metrics.gauge("privacy.shamir.exposure_margin"), 1.0);
  EXPECT_EQ(ledger.snapshot().sharings[0].min_live_margin, 1u);

  try {
    recovery.share(/*holder=*/4, /*owner=*/1, /*peer=*/2);
    FAIL() << "threshold-th reveal of a live pair did not trip";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("share over-exposure"), std::string::npos) << what;
    EXPECT_NE(what.find("pair (1,2)"), std::string::npos) << what;
  }

  const auto snap = ledger.snapshot();
  ASSERT_EQ(snap.violations.size(), 1u);
  EXPECT_EQ(snap.violations[0].kind, "share_over_exposure");
  const std::string text = slurp(dump);
  ASSERT_FALSE(text.empty()) << "no flight dump written";
  EXPECT_NE(text.find("privacy.share_over_exposure"), std::string::npos);
  std::remove(dump.c_str());
}

TEST(PrivacyLedgerShamir, DroppedPartyReconstructionIsSanctioned) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  SecureSumSession sum(seeded_config(5, 42));
  sum.arm_recovery(/*threshold=*/2, /*sharing_seed=*/7);

  const std::size_t dropped = 2;
  const std::vector<std::size_t> everyone{0, 1, 2, 3, 4};
  std::vector<std::size_t> survivors;
  std::vector<std::vector<std::uint64_t>> contributions(5);
  std::vector<double> expected(4, 0.0);
  for (std::size_t i : everyone) {
    if (i == dropped) continue;
    survivors.push_back(i);
    const std::vector<double> values{1.0 * static_cast<double>(i), 2.0, 3.0,
                                     4.0};
    for (std::size_t j = 0; j < 4; ++j) expected[j] += values[j];
    const std::vector<Tensor> tensors{Tensor(values)};
    contributions[i] = sum.contribute(i, tensors, /*round=*/1, everyone);
  }

  SecureSumSession::ReduceAudit audit;
  sum.reduce_average(/*round=*/1, everyone, survivors, contributions, &audit);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(audit.decoded_sum[j], expected[j], 1e-4);

  // The same reveals that would trip a live pair pass silently once the
  // party is declared dropped — and every reveal/reconstruction is on the
  // books, reconciled exactly with the crypto.* counters.
  const auto snap = ledger.snapshot();
  EXPECT_TRUE(snap.violations.empty());
  ASSERT_EQ(snap.sharings.size(), 1u);
  EXPECT_EQ(snap.sharings[0].dropped, std::vector<std::size_t>{dropped});
  EXPECT_EQ(snap.sharings[0].seeds_reconstructed, 4u);
  EXPECT_GT(snap.sharings[0].reveals, 0u);
  EXPECT_TRUE(obs::privacy_reconciled(ledger, &metrics));
}

// --------------------------------------------------------- reconciliation

TEST(PrivacyLedgerReconcile, SessionDropoutRecoveryReconcilesExactly) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  SecureSumSession sum(seeded_config(4, 77));
  sum.arm_recovery(/*threshold=*/0,
                   SecureSumSession::epoch_sharing_seed(77, 0));
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const std::vector<std::size_t> present{0, 1, 3};

  std::vector<std::vector<std::uint64_t>> contributions(4);
  for (std::size_t i : present) {
    obs::PartyScope scope(i);
    const std::vector<double> values{1.0, 2.0, 3.0};
    const std::vector<Tensor> tensors{Tensor(values)};
    contributions[i] = sum.contribute(i, tensors, /*round=*/0, everyone);
  }
  SecureSumSession::ReduceAudit audit;
  const auto average =
      sum.reduce_average(0, everyone, present, contributions, &audit);
  EXPECT_EQ(audit.dropped, std::vector<std::size_t>{2});
  for (double v : average) EXPECT_NEAR(v, v, 0.0);  // finite

  const auto snap = ledger.snapshot();
  EXPECT_TRUE(snap.violations.empty());
  ASSERT_EQ(snap.sharings.size(), 1u);
  EXPECT_EQ(snap.sharings[0].dropped, std::vector<std::size_t>{2});
  EXPECT_GT(snap.sharings[0].seeds_reconstructed, 0u);
  EXPECT_TRUE(obs::privacy_reconciled(ledger, &metrics));
  // And the per-party rows really match the counter shards one by one.
  for (const auto& [party, tally] : snap.parties) {
    EXPECT_EQ(tally.masks,
              metrics.party_counter("crypto.masks_generated", party));
    EXPECT_EQ(tally.contributions,
              metrics.party_counter("crypto.masked_contributions", party));
    EXPECT_EQ(tally.reconstructions,
              metrics.party_counter("crypto.shamir_reconstructions", party));
  }
}

TEST(PrivacyLedgerReconcile, ExchangedVariantAndTrainersReconcile) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  // Exchanged-variant session flow (each round's streams derived once).
  SecureSumConfig config;
  config.num_parties = 3;
  config.variant = crypto::MaskVariant::kExchangedMasks;
  config.protocol_seed = 5;
  SecureSumSession sum(config);
  const std::vector<std::size_t> everyone{0, 1, 2};
  std::vector<std::vector<std::uint64_t>> contributions(3);
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      obs::PartyScope scope(i);
      const std::vector<double> values{1.0, 2.0, 3.0,
                                       static_cast<double>(round)};
      const std::vector<Tensor> tensors{Tensor(values)};
      contributions[i] = sum.contribute(i, tensors, round, everyone);
    }
    sum.reduce_average(round, everyone, everyone, contributions);
  }

  // Whole trainers on top (both mask variants, both topologies).
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  core::AdmmParams params = fast_params(6, 0xBEEF);
  core::train_linear_horizontal(partition, params, nullptr);
  params.mask_variant = crypto::MaskVariant::kExchangedMasks;
  params.protocol_seed = 0xBEE5;
  core::train_linear_horizontal(partition, params, nullptr);
  params.mask_variant = crypto::MaskVariant::kSeededMasks;
  params.agg_topology = crypto::AggregationTopology::kGroupedRing;
  params.protocol_seed = 0xBEE6;
  core::train_linear_horizontal(partition, params, nullptr);

  const auto snap = ledger.snapshot();
  EXPECT_TRUE(snap.violations.empty());
  EXPECT_FALSE(snap.pad_table_overflow);
  EXPECT_TRUE(obs::privacy_reconciled(ledger, &metrics))
      << obs::privacy_report_json(ledger, &metrics).dump(2);
  EXPECT_NE(obs::privacy_report_json(ledger, &metrics)
                .dump(2)
                .find("\"reconciled\": true"),
            std::string::npos);
}

// --------------------------------------------------- observational purity

TEST(PrivacyLedgerPurity, ConsensusBitIdenticalLedgerOnVsOff) {
  auto split = data::train_test_split(data::make_cancer_like(3), 0.5, 42);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const bool grouped : {false, true}) {
      const auto partition =
          data::partition_horizontally(split.train, 4, seed);
      core::AdmmParams params = fast_params(8, seed * 1000 + 7);
      if (grouped)
        params.agg_topology = crypto::AggregationTopology::kGroupedRing;

      const auto off = core::train_linear_horizontal(partition, params,
                                                     nullptr);
      svm::LinearModel on_model;
      {
        obs::Tracer tracer;
        obs::MetricsRegistry metrics;
        obs::FlightRecorder recorder(512);
        obs::PrivacyLedger ledger;
        obs::Session session(&tracer, &metrics, &recorder, &ledger);
        auto on = core::train_linear_horizontal(partition, params, nullptr);
        EXPECT_TRUE(ledger.snapshot().violations.empty());
        on_model = std::move(on.model);
      }
      ASSERT_EQ(off.model.w.size(), on_model.w.size());
      for (std::size_t j = 0; j < off.model.w.size(); ++j)
        EXPECT_EQ(off.model.w[j], on_model.w[j])
            << "seed " << seed << " grouped " << grouped << " j " << j;
      EXPECT_EQ(off.model.b, on_model.b);
    }
  }
}

TEST(PrivacyLedgerPurity, ClusterTransportBitIdenticalLedgerOnVsOff) {
  auto split = data::train_test_split(data::make_cancer_like(3), 0.5, 42);
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  const core::AdmmParams params = fast_params(6, 0xC10u);
  mapreduce::ClusterConfig cluster_config;
  cluster_config.num_nodes = 5;

  mapreduce::Cluster off_cluster(cluster_config);
  const auto off = core::train_linear_horizontal_on_cluster(
      off_cluster, partition, params);
  svm::LinearModel on_model;
  {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::PrivacyLedger ledger;
    obs::Session session(&tracer, &metrics, nullptr, &ledger);
    mapreduce::Cluster on_cluster(cluster_config);
    auto on = core::train_linear_horizontal_on_cluster(on_cluster, partition,
                                                       params);
    EXPECT_TRUE(ledger.snapshot().violations.empty());
    EXPECT_TRUE(obs::privacy_reconciled(ledger, &metrics));
    on_model = std::move(on.model);
  }
  ASSERT_EQ(off.model.w.size(), on_model.w.size());
  for (std::size_t j = 0; j < off.model.w.size(); ++j)
    EXPECT_EQ(off.model.w[j], on_model.w[j]) << j;
  EXPECT_EQ(off.model.b, on_model.b);
}

// ---------------------------------------------- audit fixes stay fixed

TEST(PrivacyLedgerAudit, PredictionSeedIsDomainSeparatedFromTraining) {
  const core::AdmmParams params = fast_params(10, 0xC0FFEE);
  const auto config = core::prediction_session_config(4, params);
  EXPECT_NE(config.protocol_seed, params.protocol_seed);
  // Distinct training seeds keep distinct prediction seeds.
  EXPECT_NE(config.protocol_seed,
            core::prediction_session_config(4, fast_params(10, 0xC0FFEF))
                .protocol_seed);
}

TEST(PrivacyLedgerAudit, TrainPredictSelectMulticlassShareOneLedgerCleanly) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PrivacyLedger ledger;
  obs::Session session(&tracer, &metrics, nullptr, &ledger);

  auto split = data::train_test_split(data::make_cancer_like(2), 0.5, 42);
  const core::AdmmParams params = fast_params(6, 0xD00Du);

  // Vertical training, then TWO one-shot predictions on different inputs —
  // before the domain-separation fix both masked round 0 under the
  // training seeds and the second call was genuine pad reuse.
  const auto vertical = data::partition_vertically(split.train, 3, 7);
  const auto trained = core::train_linear_vertical(vertical, params, nullptr);
  core::secure_vertical_predict(trained.model, split.test.x, params);
  linalg::Matrix head(1, split.test.x.cols());
  for (std::size_t j = 0; j < head.cols(); ++j)
    head(0, j) = split.test.x(0, j) + 1.0;
  core::secure_vertical_predict(trained.model, head, params);

  // Feature selection reuses the same params, one-shot at round 0 too.
  const auto horizontal = data::partition_horizontally(split.train, 3, 7);
  core::secure_fisher_scores(horizontal, params);
  core::secure_fisher_scores(horizontal, params);

  // Multiclass one-vs-rest: K trainers under one params — per-class seeds
  // must not collide across (class, epoch) pairs.
  const auto digits = svm::make_digits_like(3, 240, 1);
  const auto multiclass = core::partition_multiclass_horizontally(digits, 2, 7);
  core::AdmmParams mc_params = fast_params(4, 0xD00Du);
  mc_params.c = 10.0;
  core::train_multiclass_linear_horizontal(multiclass, mc_params, nullptr);

  const auto snap = ledger.snapshot();
  EXPECT_TRUE(snap.violations.empty())
      << obs::privacy_report_json(ledger, &metrics).dump(2);
  EXPECT_TRUE(obs::privacy_reconciled(ledger, &metrics));
}

}  // namespace
}  // namespace ppml
