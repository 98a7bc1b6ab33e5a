// End-to-end tests of the paper's deployment shape: trainers running as
// iterative MapReduce jobs on the simulated cluster, with the secure
// summation protocol on the wire.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "core/cluster_trainers.h"
#include "core/glm_vertical.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/privacy_ledger.h"
#include "svm/metrics.h"
#include "trace_digest.h"

namespace ppml::core {
namespace {

using mapreduce::Bytes;

data::SplitDataset cancer_split() {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  return split;
}

mapreduce::ClusterConfig cluster_config(std::size_t nodes,
                                        std::size_t replication = 1) {
  mapreduce::ClusterConfig config;
  config.num_nodes = nodes;
  config.replication = replication;
  return config;
}

TEST(ShardSerde, HorizontalRoundTrip) {
  const auto split = cancer_split();
  const Bytes payload = serialize_horizontal_shard(split.train);
  const data::Dataset restored = deserialize_horizontal_shard(payload);
  EXPECT_EQ(restored.x, split.train.x);
  EXPECT_EQ(restored.y, split.train.y);
  EXPECT_EQ(restored.name, split.train.name);
}

TEST(ShardSerde, VerticalRoundTrip) {
  linalg::Matrix block{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(deserialize_vertical_block(serialize_vertical_block(block)),
            block);
}

/// Builds the cluster run for linear-horizontal and returns everything the
/// assertions need.
struct ClusterRun {
  svm::LinearModel model;
  ClusterTrainResult result;
  std::map<std::string, mapreduce::ChannelStats> channels;
};

ClusterRun run_linear_horizontal_on_cluster(
    const data::SplitDataset& split, const AdmmParams& params,
    mapreduce::Cluster& cluster, mapreduce::JobConfig job_config = {}) {
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  std::vector<Bytes> shards;
  for (const auto& shard : partition.shards)
    shards.push_back(serialize_horizontal_shard(shard));

  const std::size_t k = split.train.features();
  AveragingCoordinator coordinator(k + 1);
  const AdmmParams captured = params;
  const LearnerFactory factory = [captured](mapreduce::BytesView payload,
                                            std::size_t) {
    return std::make_shared<LinearHorizontalLearner>(
        deserialize_horizontal_shard(payload), 4, captured);
  };

  ConsensusEngine engine(4, coordinator, params);
  FabricTransport transport(cluster, std::move(shards), factory,
                            /*reducer_node=*/4, job_config);
  ClusterRun run;
  run.result.run = engine.run(transport);
  run.result.job = transport.job_stats();
  run.result.delta_trace = transport.delta_trace();
  run.model = svm::LinearModel{coordinator.z(), coordinator.s()};
  run.channels = cluster.network().channel_stats();
  return run;
}

// --- The scheme matrix -----------------------------------------------------
// Every scheme trains at one small shape: the cancer split, 4 horizontal or
// 3 vertical learners, 15 rounds, RBF gamma = 0.1 over 20 landmarks. The
// four paper schemes run in memory and through train_*_on_cluster; ridge
// and logistic, which have no fabric trainer, in memory only. Each cell
// runs at every ISA level, forced in-process, once untraced and once under
// its own full obs::Session (tracer, metrics, flight recorder, ledger: a
// shared ledger would rightly flag the second run's pads as reused). Every
// cell of a scheme must give that scheme's one golden digest of the model
// and the per-round ||dz||^2, bit for bit.

constexpr std::size_t kMatrixRounds = 15;

/// Folds runs of doubles, bit for bit, into one FNV-1a digest.
struct Digest {
  std::uint64_t h = testing::kFnvOffset;
  Digest& add(std::span<const double> v) {
    h = testing::fnv1a_bits(h, v);
    return *this;
  }
  Digest& add(double d) { return add({&d, 1}); }
};

/// The per-round ||dz||^2 of an in-memory run.
std::vector<double> deltas(const ConvergenceTrace& trace) {
  std::vector<double> out;
  for (const IterationRecord& r : trace.records) out.push_back(r.z_delta_sq);
  return out;
}

/// A model's numbers, then the run's per-round ||dz||^2 `d`.
std::uint64_t digest(const svm::LinearModel& m, std::span<const double> d) {
  return Digest{}.add(m.w).add(m.b).add(d).h;
}

std::uint64_t digest(const svm::KernelModel& m, std::span<const double> d) {
  return Digest{}.add(m.points.data()).add(m.coeffs).add(m.b).add(d).h;
}

std::uint64_t digest(const VerticalLinearModelView& m,
                     std::span<const double> d) {
  Digest out;
  for (const Vector& w : m.w_blocks) out.add(w);
  return out.add(m.b).add(d).h;
}

std::uint64_t digest(const VerticalKernelModelView& m,
                     std::span<const double> d) {
  Digest out;
  for (const Vector& alpha : m.alphas) out.add(alpha);
  return out.add(m.b).add(d).h;
}

struct MatrixCell {
  const char* scheme;
  const char* transport;
  std::function<std::uint64_t()> run;
};

std::vector<MatrixCell> scheme_matrix(const data::SplitDataset& split) {
  const auto horizontal = data::partition_horizontally(split.train, 4, 7);
  const auto vertical = data::partition_vertically(split.train, 3, 7);
  AdmmParams params;
  params.max_iterations = kMatrixRounds;
  params.landmarks = 20;
  const svm::Kernel kernel = svm::Kernel::rbf(0.1);
  GlmParams glm;
  glm.admm.max_iterations = kMatrixRounds;

  const auto on_cluster = [](std::size_t learners, auto train) {
    mapreduce::Cluster cluster(cluster_config(learners + 1));
    const auto result = train(cluster);
    EXPECT_EQ(result.cluster.delta_trace.size(), kMatrixRounds);
    return digest(result.model, result.cluster.delta_trace);
  };
  const auto in_memory = [](const auto& result) {
    EXPECT_EQ(result.trace.records.size(), kMatrixRounds);
    return digest(result.model, deltas(result.trace));
  };

  return {
      {"lh", "memory",
       [=] { return in_memory(train_linear_horizontal(horizontal, params)); }},
      {"lh", "cluster",
       [=] {
         return on_cluster(4, [&](mapreduce::Cluster& c) {
           return train_linear_horizontal_on_cluster(c, horizontal, params);
         });
       }},
      {"kh", "memory",
       [=] {
         return in_memory(train_kernel_horizontal(horizontal, kernel, params));
       }},
      {"kh", "cluster",
       [=] {
         return on_cluster(4, [&](mapreduce::Cluster& c) {
           return train_kernel_horizontal_on_cluster(c, horizontal, kernel,
                                                     params);
         });
       }},
      {"lv", "memory",
       [=] { return in_memory(train_linear_vertical(vertical, params)); }},
      {"lv", "cluster",
       [=] {
         return on_cluster(3, [&](mapreduce::Cluster& c) {
           return train_linear_vertical_on_cluster(c, vertical, params);
         });
       }},
      {"kv", "memory",
       [=] {
         return in_memory(train_kernel_vertical(vertical, kernel, params));
       }},
      {"kv", "cluster",
       [=] {
         return on_cluster(3, [&](mapreduce::Cluster& c) {
           return train_kernel_vertical_on_cluster(c, vertical, kernel,
                                                   params);
         });
       }},
      {"ridge-h", "memory",
       [=] { return in_memory(train_ridge_horizontal(horizontal, glm)); }},
      {"logistic-h", "memory",
       [=] { return in_memory(train_logistic_horizontal(horizontal, glm)); }},
      {"ridge-v", "memory",
       [=] { return in_memory(train_ridge_vertical(vertical, glm)); }},
      {"logistic-v", "memory",
       [=] { return in_memory(train_logistic_vertical(vertical, glm)); }},
  };
}

std::uint64_t run_in_full_session(const MatrixCell& cell) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  obs::PrivacyLedger ledger;
  std::uint64_t d = 0;
  {
    obs::Session session(&tracer, &metrics, &recorder, &ledger);
    d = cell.run();
  }
  EXPECT_GT(tracer.span_count(), 0u) << cell.scheme << " " << cell.transport;
  return d;
}

TEST(ClusterIntegration, SchemeMatrixDigestPinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"lh", 0x0FBE03F93872B1DFULL},
      {"kh", 0x3B633D7B3322942CULL},
      {"lv", 0x2CD28EC7361E2AE4ULL},
      {"kv", 0x2120AA96643874C6ULL},
      {"ridge-h", 0xC3C41E55EDA4BB21ULL},
      {"logistic-h", 0xA4E3175C78D2968DULL},
      {"ridge-v", 0x7BBA81BFB69C868CULL},
      {"logistic-v", 0x55F6A802862B2182ULL},
  };
  const auto split = cancer_split();
  const std::vector<MatrixCell> cells = scheme_matrix(split);
  for (const linalg::Isa isa : testing::available_isas()) {
    linalg::force_isa(isa);
    for (const MatrixCell& cell : cells) {
      const std::string where = std::string(cell.scheme) + " " +
                                cell.transport + " " + linalg::isa_name(isa);
      EXPECT_EQ(cell.run(), golden.at(cell.scheme)) << where << " untraced";
      EXPECT_EQ(run_in_full_session(cell), golden.at(cell.scheme))
          << where << " traced";
    }
  }
  linalg::clear_forced_isa();
}

// Every frame the driver puts on the fabric, per channel: message counts
// and wire bytes of one lv and one lh run (seeded masks), and of one lh run
// with exchanged masks, which adds the peer-exchange channel. Recorded
// before the driver recycled its frames; a change to the frame layout or
// to the delivery loop moves these numbers.
TEST(ClusterIntegration, ChannelStatsPinned) {
  using Channels = std::map<std::string, std::pair<std::size_t, std::size_t>>;
  const auto flatten = [](const auto& stats) {
    Channels out;
    for (const auto& [channel, s] : stats)
      out[channel] = {s.messages, s.bytes};
    return out;
  };
  const auto print = [](const char* what, const Channels& channels) {
    std::string text = what;
    for (const auto& [channel, s] : channels)
      text += " {\"" + channel + "\", {" + std::to_string(s.first) + ", " +
              std::to_string(s.second) + "}}";
    return text;
  };
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = kMatrixRounds;

  mapreduce::Cluster lv_cluster(cluster_config(4));
  train_linear_vertical_on_cluster(
      lv_cluster, data::partition_vertically(split.train, 3, 7), params);
  const Channels lv = flatten(lv_cluster.network().channel_stats());
  EXPECT_EQ(lv, (Channels{{"broadcast", {45, 97020}},
                          {"contribution", {45, 103860}}}))
      << print("lv", lv);

  mapreduce::Cluster lh_cluster(cluster_config(5));
  const Channels lh = flatten(
      run_linear_horizontal_on_cluster(split, params, lh_cluster).channels);
  EXPECT_EQ(lh, (Channels{{"broadcast", {60, 6608}}, {"contribution", {60, 6960}}}))
      << print("lh", lh);

  AdmmParams exchanged = params;
  exchanged.mask_variant = crypto::MaskVariant::kExchangedMasks;
  mapreduce::Cluster ex_cluster(cluster_config(5));
  const Channels ex = flatten(
      run_linear_horizontal_on_cluster(split, exchanged, ex_cluster).channels);
  EXPECT_EQ(ex, (Channels{{"broadcast", {60, 6608}},
                          {"contribution", {60, 6960}},
                          {"peer-exchange", {180, 22320}}}))
      << print("lh exchanged", ex);
}

TEST(ClusterIntegration, TracingDoesNotPerturbTraining) {
  // The observability session must be purely observational: a traced run
  // and an untraced run produce bit-identical models.
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 15;

  mapreduce::Cluster plain_cluster(cluster_config(5));
  const ClusterRun plain =
      run_linear_horizontal_on_cluster(split, params, plain_cluster);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  mapreduce::Cluster traced_cluster(cluster_config(5));
  ClusterRun traced;
  {
    obs::Session session(&tracer, &metrics);
    traced = run_linear_horizontal_on_cluster(split, params, traced_cluster);
  }

  EXPECT_EQ(traced.model.w, plain.model.w);  // bit-identical, not just close
  EXPECT_EQ(traced.model.b, plain.model.b);
  EXPECT_EQ(traced.result.delta_trace, plain.result.delta_trace);
  // And the session actually observed the job.
  EXPECT_GT(tracer.span_count(), 0u);
  EXPECT_GT(metrics.counter("crypto.masked_contributions"), 0);
}

TEST(ClusterIntegration, SpillingBlockstoreDoesNotPerturbTraining) {
  // Out-of-core storage must be purely a memory-management concern: a run
  // whose every shard block is spilled to disk and mmap-served produces a
  // bit-identical model to the all-in-RAM run.
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 15;

  mapreduce::Cluster in_ram(cluster_config(5));
  const ClusterRun reference =
      run_linear_horizontal_on_cluster(split, params, in_ram);

  mapreduce::ClusterConfig budgeted = cluster_config(5);
  budgeted.blockstore_budget_bytes = 1024;  // far below one serialized shard
  mapreduce::Cluster spilled_cluster(budgeted);
  const ClusterRun spilled =
      run_linear_horizontal_on_cluster(split, params, spilled_cluster);

  EXPECT_EQ(spilled.model.w, reference.model.w);  // bit-identical
  EXPECT_EQ(spilled.model.b, reference.model.b);
  EXPECT_EQ(spilled.result.delta_trace, reference.result.delta_trace);

  const mapreduce::SpillStats stats = spilled_cluster.storage().spill_stats();
  EXPECT_GT(stats.spilled_blocks, 0u);
  EXPECT_GT(stats.mapped_reads, 0u);
}

TEST(ClusterIntegration, PartyRollupSumsMatchGlobalCountersExactly) {
  // The party shards are a decomposition of the global counters, not an
  // independent tally: summing `net.bytes{party=*}` (and every other
  // sharded counter) must reproduce the global value exactly. This holds
  // by construction — MetricsRegistry::add bumps both under one lock — and
  // this test pins it across a real cluster run, where mapper threads,
  // the reducer scope, and ambient driver code all contribute shards.
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 10;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  mapreduce::Cluster cluster(cluster_config(5));
  {
    obs::Session session(&tracer, &metrics);
    run_linear_horizontal_on_cluster(split, params, cluster);
  }

  const auto shards = metrics.party_counters();
  for (const auto& [name, global] : metrics.counters()) {
    const auto it = shards.find(name);
    ASSERT_NE(it, shards.end()) << name << " has no party shards";
    std::int64_t sum = 0;
    for (const auto& [party, value] : it->second) sum += value;
    EXPECT_EQ(sum, global) << name << " shards do not sum to the global";
  }

  // The interesting counters really are split across the cluster: all four
  // mapper parties generated masks, and the reducer (not the mappers)
  // absorbed the contribution traffic.
  const auto& masks = shards.at("crypto.masks_generated");
  for (int party = 0; party < 4; ++party) {
    const auto it = masks.find(party);
    ASSERT_NE(it, masks.end()) << "party " << party << " generated no masks";
    EXPECT_GT(it->second, 0);
  }
  EXPECT_EQ(metrics.party_counter("crypto.masks_generated", obs::kNoParty), 0);
  EXPECT_GT(metrics.party_counter("net.bytes", obs::kReducerParty), 0);
  EXPECT_GT(metrics.party_counter("net.bytes.in", obs::kReducerParty), 0);
}

TEST(ClusterIntegration, LearnsOnTheCluster) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 50;
  mapreduce::Cluster cluster(cluster_config(5));
  const ClusterRun run =
      run_linear_horizontal_on_cluster(split, params, cluster);
  const double acc =
      svm::accuracy(run.model.predict_all(split.test.x), split.test.y);
  EXPECT_GE(acc, 0.88);
}

TEST(ClusterIntegration, NoRawDataOrPlaintextResultOnTheWire) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 5;
  mapreduce::Cluster cluster(cluster_config(5));

  // Wrap the network with an observation pass after the run: the Network
  // records channels; we assert on sizes. Raw shard matrices are ~N*k*8
  // bytes; a contribution frame is exactly [u32 crc][u64 mapper][u64 round]
  // [u64 length + (k+2) masked u64 words] — far smaller than any shard.
  const ClusterRun run =
      run_linear_horizontal_on_cluster(split, params, cluster);

  const auto& contribution = run.channels.at("contribution");
  const std::size_t k = split.train.features();
  const std::size_t expected_payload = 4 + 8 * (k + 5);
  EXPECT_EQ(contribution.bytes,
            contribution.messages * expected_payload);
  // The training shards never appear on any channel: total traffic is far
  // below one shard's serialized size per message.
  const std::size_t shard_bytes =
      serialize_horizontal_shard(split.train).size() / 4;
  for (const auto& [channel, stats] : run.channels) {
    EXPECT_LT(stats.bytes / std::max<std::size_t>(stats.messages, 1),
              shard_bytes)
        << channel;
  }
}

TEST(ClusterIntegration, MaskedContributionsLookUniform) {
  // Statistical smoke test of masking: capture one mapper's contribution
  // words and check they spread across the full 64-bit range (plaintext
  // fixed-point encodings of O(1) values would cluster near 0 or 2^64).
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 3;
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  const crypto::FixedPointCodec codec(params.fixed_point_bits, 4);
  const auto seeds = crypto::agree_pairwise_seeds(4, params.protocol_seed);

  LinearHorizontalLearner learner(partition.shards[0], 4, params);
  crypto::SecureSumParty party(0, 4, codec, seeds[0]);
  const Vector contribution = learner.local_step({});
  const std::vector<std::size_t> everyone{0, 1, 2, 3};
  const auto masked = party.mask(contribution, 0, everyone);
  const auto plain = codec.encode_vector(contribution);

  std::size_t high_bits_differ = 0;
  for (std::size_t j = 0; j < masked.size(); ++j)
    if ((masked[j] >> 48) != (plain[j] >> 48)) ++high_bits_differ;
  // Every word should be shifted into "random" territory.
  EXPECT_GE(high_bits_differ, masked.size() - 1);
}

TEST(ClusterIntegration, SurvivesTaskFailureInjection) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 10;
  mapreduce::Cluster cluster(cluster_config(5, /*replication=*/2));
  mapreduce::JobConfig job_config;
  job_config.task_failure_probability = 0.3;
  job_config.max_task_attempts = 8;
  const ClusterRun run =
      run_linear_horizontal_on_cluster(split, params, cluster, job_config);
  EXPECT_EQ(run.result.job.rounds, 10u);
  EXPECT_GT(run.result.job.task_retries, 0u);
}

TEST(ClusterIntegration, DataLossAbortsJob) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 10;
  mapreduce::Cluster cluster(cluster_config(5));
  cluster.kill_node(0);  // learner 0's only replica will be dead
  EXPECT_THROW(run_linear_horizontal_on_cluster(split, params, cluster),
               mapreduce::JobError);
}

TEST(ClusterIntegration, VerticalSchemeRunsOnCluster) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  AdmmParams params;
  params.max_iterations = 40;

  std::vector<Bytes> shards;
  for (const auto& block : partition.blocks)
    shards.push_back(serialize_vertical_block(block));

  VerticalCoordinator coordinator(partition.y, 4, params);
  const AdmmParams captured = params;
  std::vector<std::shared_ptr<LinearVerticalLearner>> learners(4);
  const LearnerFactory factory = [captured, &learners](mapreduce::BytesView payload,
                                                       std::size_t index) {
    auto learner = std::make_shared<LinearVerticalLearner>(
        deserialize_vertical_block(payload), captured);
    learners[index] = learner;
    return learner;
  };

  // The transport moves each payload into the block store: the store
  // serves the very buffers the caller serialized, so no copy is made.
  std::vector<const std::uint8_t*> payloads;
  for (const Bytes& shard : shards) payloads.push_back(shard.data());

  mapreduce::Cluster cluster(cluster_config(5));
  ConsensusEngine engine(4, coordinator, params);
  FabricTransport transport(cluster, std::move(shards), factory,
                            /*reducer_node=*/4);
  engine.run(transport);
  EXPECT_EQ(transport.job_stats().rounds, 40u);
  ASSERT_EQ(cluster.storage().block_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(cluster.storage().read_local(i + 1, i).data(), payloads[i])
        << "learner " << i;

  VerticalLinearModelView view;
  view.feature_indices = partition.feature_indices;
  view.b = coordinator.bias();
  for (const auto& learner : learners) {
    ASSERT_NE(learner, nullptr);
    view.w_blocks.push_back(learner->w());
  }
  const double acc =
      svm::accuracy(view.predict_all(split.test.x), split.test.y);
  EXPECT_GE(acc, 0.88);
}

TEST(ClusterIntegration, ExchangedMaskVariantUsesPeerChannel) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 4;
  params.mask_variant = crypto::MaskVariant::kExchangedMasks;
  mapreduce::Cluster cluster(cluster_config(5));
  const ClusterRun run =
      run_linear_horizontal_on_cluster(split, params, cluster);

  // The literal protocol sends M*(M-1) mask vectors per round.
  const auto& peer = run.channels.at("peer-exchange");
  EXPECT_EQ(peer.messages, 4u * 4u * 3u);
  // And still learns the same model family (sanity: finite values).
  for (double v : run.model.w) EXPECT_TRUE(std::isfinite(v));

  // Seeded variant sends no peer messages at all.
  mapreduce::Cluster cluster2(cluster_config(5));
  AdmmParams seeded = params;
  seeded.mask_variant = crypto::MaskVariant::kSeededMasks;
  const ClusterRun run2 =
      run_linear_horizontal_on_cluster(split, seeded, cluster2);
  EXPECT_EQ(run2.channels.count("peer-exchange"), 0u);
}

}  // namespace
}  // namespace ppml::core
