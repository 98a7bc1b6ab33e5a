#include "core/mapreduce_adapter.h"

#include <algorithm>
#include <optional>

#include "crypto/secure_sum_session.h"
#include "data/dataset.h"
#include "obs/obs.h"

namespace ppml::core {

using mapreduce::Bytes;
using mapreduce::Reader;
using mapreduce::Writer;

void deserialize_doubles(mapreduce::BytesView payload, Vector& out) {
  out.clear();
  if (payload.empty()) return;
  Reader reader(payload);
  reader.get_double_vector(out);
  reader.expect_exhausted("broadcast");
}

void deserialize_masked(mapreduce::BytesView payload,
                        std::vector<std::uint64_t>& out) {
  Reader reader(payload);
  reader.get_u64_vector(out);
  reader.expect_exhausted("masked vector");
}

mapreduce::BytesView masked_word_bytes(mapreduce::BytesView payload) {
  Reader reader(payload);
  const mapreduce::BytesView words = reader.get_u64_vector_bytes();
  reader.expect_exhausted("masked vector");
  return words;
}

namespace {

/// Map() participant: loads its shard data-locally, runs the learner, and
/// only ever emits masked contributions. Holds one SecureSumParty derived
/// from the engine's session config (re-derived per key-agreement epoch via
/// SecureSumSession::make_party).
class SecureConsensusMapper final : public mapreduce::IterativeMapper {
 public:
  SecureConsensusMapper(std::size_t index, std::size_t num_learners,
                        mapreduce::BlockId home_block, LearnerFactory factory,
                        crypto::SecureSumConfig config,
                        std::vector<std::uint64_t> pairwise_seeds)
      : index_(index),
        num_learners_(num_learners),
        home_block_(home_block),
        factory_(std::move(factory)),
        config_(config) {
    live_.resize(num_learners);
    for (std::size_t i = 0; i < num_learners; ++i) live_[i] = i;
    if (config_.variant == crypto::MaskVariant::kSeededMasks) {
      // Epoch-0 seeds are handed in by the transport (one key agreement for
      // the whole cohort instead of one per mapper).
      party_.emplace(index, num_learners,
                     crypto::SecureSumSession::codec_for(config_),
                     std::move(pairwise_seeds), config_.topology,
                     config_.group_size);
    } else {
      party_.emplace(crypto::SecureSumSession::make_party(config_, index));
    }
  }

  void configure(const mapreduce::BlockStore& storage,
                 mapreduce::NodeId node) override {
    // Locality-enforcing read: throws if this node holds no replica. The
    // view may point into an mmap of a spilled split; the factory
    // deserializes it straight from the mapping (streaming, no heap copy).
    const mapreduce::BytesView payload = storage.read_local(home_block_, node);
    learner_ = factory_(payload, index_);
    PPML_CHECK(learner_ != nullptr,
               "SecureConsensusMapper: factory returned null");
    if (live_.size() != num_learners_)
      learner_->on_cohort_resize(live_.size());
  }

  void on_membership_change(const std::vector<std::size_t>& live,
                            std::size_t epoch) override {
    if (config_.variant == crypto::MaskVariant::kSeededMasks &&
        epoch != epoch_) {
      // A peer rejoined: everyone re-runs key agreement under the epoch's
      // session key (the reducer burned the old seeds reconstructing them).
      epoch_ = epoch;
      party_.emplace(
          crypto::SecureSumSession::make_party(config_, index_, epoch));
    }
    live_ = live;
    if (learner_ != nullptr) learner_->on_cohort_resize(live_.size());
  }

  std::vector<std::pair<std::size_t, Bytes>> exchange(
      std::size_t round) override {
    if (config_.variant != crypto::MaskVariant::kExchangedMasks) return {};
    PPML_CHECK(learner_ != nullptr, "SecureConsensusMapper: not configured");
    // Derive this round's outgoing masks ONCE; map() reuses the cache
    // instead of re-expanding the streams when it builds the contribution.
    sent_cache_ = party_->outgoing_masks(round, learner_->contribution_dim());
    sent_round_ = round;
    std::vector<std::pair<std::size_t, Bytes>> out;
    for (std::size_t peer = 0; peer < sent_cache_.size(); ++peer) {
      if (peer == index_) continue;
      Writer writer;
      writer.reserve(mapreduce::wire_size_words(sent_cache_[peer].size()));
      writer.put_u64_vector(sent_cache_[peer]);
      out.emplace_back(peer, writer.take());
    }
    return out;
  }

  void map(std::size_t round, mapreduce::BytesView broadcast,
           std::span<const mapreduce::BytesView> peer_messages,
           Writer& out) override {
    PPML_CHECK(learner_ != nullptr, "SecureConsensusMapper: not configured");
    deserialize_doubles(broadcast, broadcast_);
    const Vector contribution = learner_->local_step(broadcast_);

    // The masked words go straight into the contribution frame, as one
    // length-prefixed u64 vector.
    out.put_u64(contribution.size());
    const std::span<std::uint8_t> wire = out.extend(8 * contribution.size());
    if (config_.variant == crypto::MaskVariant::kSeededMasks) {
      // Masks run over the live set, so against a shrunken cohort the
      // survivors' masks cancel without any reducer-side correction. Every
      // mapper derives the same edge set from the sorted live set, so
      // mapper- and reducer-side edge sets always agree.
      party_->mask(contribution, round, live_, wire);
    } else {
      if (sent_round_ != round) {
        sent_cache_ =
            party_->outgoing_masks(round, learner_->contribution_dim());
        sent_round_ = round;
      }
      std::vector<std::vector<std::uint64_t>> received(peer_messages.size());
      for (std::size_t j = 0; j < peer_messages.size(); ++j) {
        if (j == index_ || peer_messages[j].empty()) continue;
        deserialize_masked(peer_messages[j], received[j]);
      }
      const std::vector<std::span<const std::uint64_t>> sent_views(
          sent_cache_.begin(), sent_cache_.end());
      const std::vector<std::span<const std::uint64_t>> received_views(
          received.begin(), received.end());
      party_->mask(contribution, sent_views, received_views, round, wire);
    }
  }

 private:
  std::size_t index_;
  std::size_t num_learners_;
  mapreduce::BlockId home_block_;
  LearnerFactory factory_;
  crypto::SecureSumConfig config_;
  std::optional<crypto::SecureSumParty> party_;
  std::shared_ptr<ConsensusLearner> learner_;
  std::vector<std::size_t> live_;  ///< current cohort (sorted, includes self)
  std::size_t epoch_ = 0;          ///< key-agreement epoch
  // Exchanged-variant per-round mask cache (filled by exchange()).
  std::vector<std::vector<std::uint64_t>> sent_cache_;
  std::size_t sent_round_ = static_cast<std::size_t>(-1);
  Vector broadcast_;  ///< the decoded broadcast, refilled every round
};

/// Reduce() shim: deserializes the round's contributions, tracks the set
/// the masks were generated against, and delegates every piece of protocol
/// work — aggregation, Shamir dropout recovery, coordinator combine,
/// convergence, series recording — to ConsensusEngine::reduce_round, which
/// sums the masked words straight out of the received frames.
class FabricReducerShim final : public mapreduce::IterativeReducer {
 public:
  FabricReducerShim(ConsensusEngine& engine, RoundObserver observer,
                    std::vector<double>& delta_trace,
                    std::vector<DropoutEvent>& dropout_events)
      : engine_(engine),
        observer_(std::move(observer)),
        delta_trace_(delta_trace),
        dropout_events_(dropout_events) {
    mask_set_.resize(engine.num_learners());
    for (std::size_t i = 0; i < mask_set_.size(); ++i) mask_set_[i] = i;
  }

  void reduce(std::size_t round,
              std::span<const mapreduce::BytesView> contributions,
              Writer& broadcast) override {
    // Who the masks were generated against vs. who actually delivered.
    present_.clear();
    words_.assign(contributions.size(), {});
    for (std::size_t i : mask_set_) {
      if (i < contributions.size() && !contributions[i].empty()) {
        words_[i] = masked_word_bytes(contributions[i]);
        present_.push_back(i);
      }
    }
    PPML_CHECK(!present_.empty(), "FabricReducerShim: empty round");

    const ConsensusEngine::ReduceOutcome& outcome =
        engine_.reduce_round(round, mask_set_, present_, words_);
    if (!outcome.audit.dropped.empty()) {
      for (DropoutEvent& event : dropout_events_) {
        if (event.round == round && event.corrected &&
            event.corrected_sum.empty()) {
          event.survivors = present_;
          event.corrected_sum = outcome.audit.decoded_sum;
        }
      }
    }
    mask_set_ = present_;
    delta_trace_.push_back(engine_.last_delta_sq());
    if (observer_) observer_(round);
    broadcast.put_double_vector(outcome.broadcast);
  }

  bool converged() const override { return engine_.converged(); }

  void on_mapper_lost(std::size_t round, std::size_t mapper,
                      bool masked_this_round) override {
    DropoutEvent event;
    event.round = round;
    event.mapper = mapper;
    event.corrected = masked_this_round;
    dropout_events_.push_back(std::move(event));
  }

  void on_membership_change(const std::vector<std::size_t>& live,
                            std::size_t epoch) override {
    if (epoch != epoch_) {
      epoch_ = epoch;
      engine_.rekey(epoch);
    }
    mask_set_ = live;
  }

 private:
  ConsensusEngine& engine_;
  RoundObserver observer_;
  std::vector<double>& delta_trace_;
  std::vector<DropoutEvent>& dropout_events_;
  std::vector<std::size_t> mask_set_;  ///< set this round's masks cover
  std::size_t epoch_ = 0;
  std::vector<std::size_t> present_;  ///< who delivered this round
  std::vector<mapreduce::BytesView> words_;  ///< masked words, by mapper
};

}  // namespace

FabricTransport::FabricTransport(mapreduce::Cluster& cluster,
                                 std::vector<Bytes> shards,
                                 LearnerFactory factory,
                                 mapreduce::NodeId reducer_node,
                                 mapreduce::JobConfig job_config)
    : cluster_(cluster),
      shards_(std::move(shards)),
      factory_(std::move(factory)),
      reducer_node_(reducer_node),
      job_config_(job_config) {}

ConsensusRunResult FabricTransport::run(ConsensusEngine& engine,
                                        const RoundObserver& observer) {
  const std::size_t m = shards_.size();
  PPML_CHECK(m >= 2, "FabricTransport: need >= 2 learners (one transport "
                     "drives one run: run() moves its shards out)");
  PPML_CHECK(engine.num_learners() == m,
             "FabricTransport: engine learner count != shard count");
  PPML_CHECK(cluster_.num_nodes() >= m,
             "FabricTransport: fewer nodes than learners");
  PPML_CHECK(reducer_node_ < cluster_.num_nodes(),
             "FabricTransport: reducer node out of range");
  const AdmmParams& params = engine.params();
  if (engine.policy().asynchronous()) {
    // Bounded-staleness on the fabric = a deadline-bounded contribution
    // wait: the job drops (and later rejoins) mappers that blow the round
    // budget, and the engine's recovery path corrects their woven-in masks.
    // The carry-forward algebra stays in-memory only — the fabric's rejoin
    // machinery plays the same role with real key epochs.
    job_config_.tolerate_mapper_loss = true;
    if (params.async_round_deadline > 0.0)
      job_config_.round_deadline_factor = params.async_round_deadline;
  }
  if (job_config_.tolerate_mapper_loss) {
    PPML_CHECK(params.mask_variant == crypto::MaskVariant::kSeededMasks,
               "FabricTransport: tolerate_mapper_loss requires the "
               "seeded-mask variant (recovery reconstructs pairwise seeds)");
    PPML_CHECK(m >= 3,
               "FabricTransport: tolerate_mapper_loss needs M >= 3 for "
               "Shamir reconstruction");
    engine.arm_fabric_recovery(params.dropout_threshold);
  }

  job_config_.max_rounds = params.max_iterations;
  mapreduce::IterativeJob job(cluster_, job_config_);

  // Each learner's shard lives on its own node — data locality. The bytes
  // move into the block store, which holds them from then on (it plays
  // the node's disk and serves task retries). Mappers get the engine
  // session's config (and, seeded, their epoch-0 seed row — one key
  // agreement for the whole cohort).
  const crypto::SecureSumConfig& config = engine.session_config();
  for (std::size_t i = 0; i < m; ++i) {
    const mapreduce::BlockId block = cluster_.store_shard(
        "learner" + std::to_string(i) + "/shard", std::move(shards_[i]), i);
    std::vector<std::uint64_t> seed_row;
    if (config.variant == crypto::MaskVariant::kSeededMasks)
      seed_row = engine.session().pairwise_seeds()[i];
    job.add_mapper(std::make_shared<SecureConsensusMapper>(
                       i, m, block, factory_, config, std::move(seed_row)),
                   block);
  }
  shards_.clear();

  auto reducer = std::make_shared<FabricReducerShim>(
      engine, observer, delta_trace_, dropout_events_);
  job.set_reducer(reducer, reducer_node_);

  job_stats_ = job.run({});
  ConsensusRunResult result;
  result.iterations = job_stats_.rounds;
  result.converged = job_stats_.converged;
  engine.finalize_result(result);
  result.deadline_expirations = job_stats_.deadline_misses;
  return result;
}

Bytes serialize_horizontal_shard(const data::Dataset& shard) {
  // Exact size up front: the blockstore keeps this buffer for the whole
  // job, so growth slack would be resident memory.
  Writer writer;
  writer.reserve(mapreduce::wire_size_bytes(shard.name.size()) + 8 +
                 mapreduce::wire_size_words(shard.x.size()) +
                 mapreduce::wire_size_words(shard.y.size()));
  writer.put_string(shard.name);
  writer.put_matrix(shard.x);
  writer.put_double_vector(shard.y);
  return writer.take();
}

data::Dataset deserialize_horizontal_shard(mapreduce::BytesView payload) {
  Reader reader(payload);
  data::Dataset shard;
  shard.name = reader.get_string();
  shard.x = reader.get_matrix();
  shard.y = reader.get_double_vector();
  reader.expect_exhausted("horizontal shard");
  shard.validate();
  return shard;
}

Bytes serialize_vertical_block(const linalg::Matrix& block) {
  Writer writer;
  writer.reserve(8 + mapreduce::wire_size_words(block.size()));
  writer.put_matrix(block);
  return writer.take();
}

linalg::Matrix deserialize_vertical_block(mapreduce::BytesView payload) {
  Reader reader(payload);
  linalg::Matrix block = reader.get_matrix();
  reader.expect_exhausted("vertical block");
  return block;
}

}  // namespace ppml::core
