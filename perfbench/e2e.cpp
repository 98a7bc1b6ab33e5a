// End-to-end benchmark program (README.md in this directory).
//
//   perfbench --workload kv-m4-serve|lv-m8-fabric|lh-m128-fabric --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//             [--expect-digest HEX --expect-accuracy A]
//
// --trace 0 trains through the public entry point and serves the model,
// with tracing off, and reports the end-to-end metrics. --trace 1 is the
// separate outside-in traced pass: it rebuilds the trainer from its public
// pieces, wraps them with timing decorators and reports per-layer metrics.
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; lines before it start with '#'.
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "core/cluster_trainers.h"
#include "core/consensus_engine.h"
#include "core/prediction_server.h"
#include "crypto/grouped_ring.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/microkernel.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "layer_trace.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace core = ppml::core;
namespace crypto = ppml::crypto;
namespace data = ppml::data;
namespace linalg = ppml::linalg;
namespace mr = ppml::mapreduce;
namespace svm = ppml::svm;
using linalg::Vector;

/// CPU time of the whole process (every thread) or of the calling thread.
/// Unlike wall time, it leaves out the time the host runs other tenants'
/// work (steal) and the time a thread waits to be scheduled.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu_seconds() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

enum class Scheme { kKernelVertical, kLinearVertical, kLinearHorizontal };

struct Workload {
  const char* name;
  Scheme scheme;
  std::size_t rows;     ///< generated rows, before the 50/50 split
  std::size_t parties;  ///< M
  bool fabric;          ///< simulated cluster instead of the in-memory engine
};

// Why each workload exists, and which layer it loads: README.md.
constexpr Workload kWorkloads[] = {
    {"kv-m4-serve", Scheme::kKernelVertical, 3000, 4, false},
    {"lv-m8-fabric", Scheme::kLinearVertical, 40000, 8, true},
    {"lh-m128-fabric", Scheme::kLinearHorizontal, 32000, 128, true},
};

constexpr std::size_t kThreadBudget = 4;  ///< sized for a 4-core host
constexpr std::size_t kRounds = 60;
constexpr double kGamma = 0.1;

// Untraced pass budget per cycle, as shares of --seconds (see run_untraced).
constexpr std::size_t kMinTrainReps = 2;
constexpr std::size_t kMaxTrainReps = 20;
constexpr double kSetupShare = 0.02;  ///< data set-ups
constexpr std::size_t kSetupReps = 3;  ///< at least, per set-up chunk
constexpr double kServeShare = 0.03;  ///< per chunk of serve samples
constexpr std::size_t kServeReps = 3;  ///< at least, per chunk
/// Virtual seconds of open loop per server: 15 000 queries, >= 1 500
/// batches, so p99 has well over ten samples beyond it.
constexpr double kOpenLoopSeconds = 3.0;

// Serving (the kv-m4-serve shape applies to every workload's serve phase).
constexpr std::size_t kClients = 4;
constexpr std::size_t kMaxBatch = 64;
constexpr double kLinger = 0.002;
constexpr std::size_t kCacheSlots = 128;  ///< kernel models only
constexpr std::size_t kServeHolders = 4;  ///< lh: holders scoring a query
constexpr double kOpenLoopQps = 5000.0;
constexpr double kSaturatingQps = 1e7;  ///< virtual, far above capacity
constexpr std::size_t kWarmupPass = 1024;  ///< fills the kernel-row cache
constexpr std::size_t kSaturatingPass = 8192;
constexpr std::size_t kAuditStride = 97;
constexpr std::size_t kMaxAudits = 64;  ///< per server

constexpr double kAccuracyFloor = 0.55;  ///< well above chance on higgs
constexpr std::size_t kSolveSamples = 40;  ///< direct linalg calls per party

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_dir;
  std::string expect_digest;
  std::optional<double> expect_accuracy;
};

// --- models and correctness ------------------------------------------------

using Model = std::variant<core::VerticalKernelModelView,
                           core::VerticalLinearModelView, svm::LinearModel>;

/// FNV-1a over the bits of every model parameter.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const Vector& v) {
    add(static_cast<double>(v.size()));
    for (double x : v) add(x);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string model_digest(const Model& model) {
  Digest d;
  if (const auto* k = std::get_if<core::VerticalKernelModelView>(&model)) {
    for (const auto& a : k->alphas) d.add(a);
    d.add(k->b);
  } else if (const auto* v = std::get_if<core::VerticalLinearModelView>(&model)) {
    for (const auto& w : v->w_blocks) d.add(w);
    d.add(v->b);
  } else {
    const auto& h = std::get<svm::LinearModel>(model);
    d.add(h.w);
    d.add(h.b);
  }
  return d.hex();
}

double model_accuracy(const Model& model, const data::Dataset& test) {
  const Vector predicted =
      std::visit([&](const auto& m) { return m.predict_all(test.x); }, model);
  return svm::accuracy(predicted, test.y);
}

/// Counts operations and their failures; every failure is printed.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::string expect_digest;
  std::optional<double> expect_accuracy;
  std::string reference_digest;  ///< first model of this run
  double reference_accuracy = 0.0;

  void fail(const std::string& why, std::size_t count = 1) {
    failed += count;
    std::printf("# FAILED (%zu): %s\n", count, why.c_str());
  }

  /// One training call: its model must match this run's first model and the
  /// value recorded for the seed, when one is.
  void check_model(const char* what, const std::string& digest,
                   double accuracy) {
    ++attempted;
    if (reference_digest.empty()) {
      reference_digest = digest;
      reference_accuracy = accuracy;
    }
    if (digest != reference_digest || accuracy != reference_accuracy)
      fail(std::string(what) + ": model " + digest +
           " differs from this run's first model " + reference_digest);
    else if (!expect_digest.empty() && digest != expect_digest)
      fail(std::string(what) + ": model " + digest +
           " differs from the digest recorded for this seed " +
           expect_digest);
    else if (expect_accuracy && accuracy != *expect_accuracy)
      fail(std::string(what) + ": accuracy differs from the recorded value");
  }
};

// --- inputs --------------------------------------------------------------

struct Inputs {
  ppml::bench::BenchDataset data;        ///< higgs substitute, 50/50, scaled
  data::VerticalPartition vertical;      ///< vertical schemes
  data::HorizontalPartition horizontal;  ///< horizontal scheme
};

void partition(const Workload& w, Inputs& in, std::uint64_t seed) {
  if (w.scheme == Scheme::kLinearHorizontal)
    in.horizontal =
        data::partition_horizontally(in.data.split.train, w.parties, seed);
  else
    in.vertical = data::partition_vertically(in.data.split.train, w.parties, seed);
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.data = ppml::bench::make_bench_dataset("higgs", w.rows, seed);
  partition(w, in, seed);
  return in;
}

core::AdmmParams workload_params(const Workload& w) {
  core::AdmmParams params = ppml::bench::paper_params(kRounds);
  if (w.scheme == Scheme::kLinearHorizontal)
    params.agg_topology = crypto::AggregationTopology::kGroupedRing;
  return params;
}

/// M learner nodes plus the reducer, sharing kThreadBudget task slots.
std::unique_ptr<mr::Cluster> make_cluster(const Workload& w) {
  mr::ClusterConfig config;
  config.num_nodes = w.parties + 1;
  config.task_slots = kThreadBudget;
  auto cluster = std::make_unique<mr::Cluster>(config);
  PPML_CHECK(cluster->executor().threads() == kThreadBudget,
             "perfbench: the fabric must run on exactly 4 task slots");
  return cluster;
}

mr::Bytes serialize_shard(const Workload& w, const Inputs& in, std::size_t i) {
  return w.scheme == Scheme::kLinearHorizontal
             ? core::serialize_horizontal_shard(in.horizontal.shards[i])
             : core::serialize_vertical_block(in.vertical.blocks[i]);
}

// --- training through the public entry points ------------------------------

struct Trained {
  Model model;
  double train_s = 0.0;      ///< the public call alone, wall time
  double train_cpu_s = 0.0;  ///< the same call, process CPU time
  double accuracy = 0.0;
  std::string digest;
};

/// The one public training call of the workload; `cluster` is fresh for
/// fabric workloads and null otherwise.
Trained train_public(const Workload& w, const Inputs& in,
                     const core::AdmmParams& params, mr::Cluster* cluster) {
  Trained t;
  const double c0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  switch (w.scheme) {
    case Scheme::kKernelVertical: {
      auto result = core::train_kernel_vertical(
          in.vertical, svm::Kernel::rbf(kGamma), params, &in.data.split.test);
      t.train_s = seconds_since(t0);
      t.train_cpu_s = process_cpu_seconds() - c0;
      t.accuracy = result.trace.final_accuracy();
      t.model = std::move(result.model);
      break;
    }
    case Scheme::kLinearVertical: {
      auto result =
          core::train_linear_vertical_on_cluster(*cluster, in.vertical, params);
      t.train_s = seconds_since(t0);
      t.train_cpu_s = process_cpu_seconds() - c0;
      t.model = std::move(result.model);
      break;
    }
    case Scheme::kLinearHorizontal: {
      auto result = core::train_linear_horizontal_on_cluster(
          *cluster, in.horizontal, params);
      t.train_s = seconds_since(t0);
      t.train_cpu_s = process_cpu_seconds() - c0;
      t.model = std::move(result.model);
      break;
    }
  }
  if (w.scheme != Scheme::kKernelVertical)
    t.accuracy = model_accuracy(t.model, in.data.split.test);
  t.digest = model_digest(t.model);
  return t;
}

// --- the trainers rebuilt from public pieces --------------------------------

/// The fabric's reference without the fabric: each round's local steps run
/// on kThreadBudget threads, as the fabric's task slots run its mappers,
/// then the reducer-side engine masks, sums and combines them in process.
/// What the fabric adds on top (mapper and reducer shims, serde, CRC,
/// network, scheduling) is the difference between the two.
class SlotTransport final : public core::Transport {
 public:
  explicit SlotTransport(
      const std::vector<std::shared_ptr<core::ConsensusLearner>>& learners)
      : learners_(learners) {}

  core::ConsensusRunResult run(core::ConsensusEngine& engine,
                               const core::RoundObserver& observer) override {
    const std::size_t m = learners_.size();
    std::vector<std::size_t> all(m);
    for (std::size_t i = 0; i < m; ++i) all[i] = i;
    core::ConsensusRunResult result;
    Vector broadcast;  // empty on round 0, as the fabric's first broadcast
    for (std::size_t round = 0; round < engine.params().max_iterations;
         ++round) {
      const std::vector<Vector> values = local_steps(broadcast);
      std::vector<std::vector<std::uint64_t>> wire(m);
      for (std::size_t i = 0; i < m; ++i) {
        const crypto::SecureSumSession::Tensor tensor = values[i];
        wire[i] = engine.session().contribute(i, {&tensor, 1}, round, all);
      }
      broadcast = engine.reduce_round(round, all, all, wire).broadcast;
      ++result.iterations;
      if (observer) observer(round);
      if (engine.converged()) {
        result.converged = true;
        break;
      }
    }
    engine.finalize_result(result);
    return result;
  }

 private:
  std::vector<Vector> local_steps(const Vector& broadcast) {
    std::vector<Vector> values(learners_.size());
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    {
      std::vector<std::jthread> slots;
      for (std::size_t t = 0; t < kThreadBudget; ++t)
        slots.emplace_back([&] {
          for (std::size_t i = next++; i < learners_.size(); i = next++) {
            try {
              values[i] = learners_[i]->local_step(broadcast);
            } catch (...) {
              std::lock_guard<std::mutex> lock(error_mutex);
              if (!error) error = std::current_exception();
            }
          }
        });
    }
    if (error) std::rethrow_exception(error);
    return values;
  }

  const std::vector<std::shared_ptr<core::ConsensusLearner>>& learners_;
};

/// Where run_engine executes the rounds.
enum class Mode {
  kInMemory,  ///< core::InMemoryTransport, as the in-memory trainers
  kSlots,     ///< SlotTransport: the fabric workloads' in-memory reference
  kFabric,    ///< core::FabricTransport on a fresh cluster
};

struct EngineRun {
  Trained trained;  ///< train_s = wall of the whole composition
  crypto::SecureSumConfig session_config;
  mr::JobStats job;            ///< fabric only
  mr::ChannelStats network;    ///< fabric only
};

/// Learners, coordinator, ConsensusEngine with FullParticipation and a
/// transport, wired as the public trainers wire them. With a null `log`
/// nothing is wrapped (the reference run); with a log every learner and the
/// coordinator are decorated, and each round, learner construction, key
/// agreement and test-view Gram is a span. `cluster` is used in kFabric mode.
EngineRun run_engine(const Workload& w, const Inputs& in,
                     const core::AdmmParams& params, Mode mode,
                     mr::Cluster* cluster, SpanLog* log) {
  const std::size_t m = w.parties;
  const bool kernel = w.scheme == Scheme::kKernelVertical;
  const svm::Kernel rbf = svm::Kernel::rbf(kGamma);
  EngineRun out;
  const auto t0 = Clock::now();
  ScopedSpan root(log, "train.traced", -1);
  std::atomic<int> round_span{-1};

  std::vector<std::shared_ptr<core::ConsensusLearner>> typed(m);
  const auto make_learner = [&](std::size_t i, const mr::BytesView* shard,
                                int parent) {
    std::shared_ptr<core::ConsensusLearner> learner;
    {
      ScopedSpan span(log, "core.learner_init", parent, -1, static_cast<long>(i));
      switch (w.scheme) {
        case Scheme::kKernelVertical:
          learner = std::make_shared<core::KernelVerticalLearner>(
              shard ? core::deserialize_vertical_block(*shard)
                    : in.vertical.blocks[i],
              rbf, params);
          break;
        case Scheme::kLinearVertical:
          learner = std::make_shared<core::LinearVerticalLearner>(
              shard ? core::deserialize_vertical_block(*shard)
                    : in.vertical.blocks[i],
              params);
          break;
        case Scheme::kLinearHorizontal:
          learner = std::make_shared<core::LinearHorizontalLearner>(
              shard ? core::deserialize_horizontal_shard(*shard)
                    : in.horizontal.shards[i],
              m, params);
          break;
      }
    }
    typed[i] = learner;
    if (log == nullptr) return learner;
    return std::shared_ptr<core::ConsensusLearner>(
        std::make_shared<TimedLearner>(learner, i, *log, round_span));
  };

  std::vector<std::shared_ptr<core::ConsensusLearner>> learners;
  std::vector<mr::Bytes> shards;
  if (mode != Mode::kFabric) {
    for (std::size_t i = 0; i < m; ++i)
      learners.push_back(make_learner(i, nullptr, root.id()));
  } else {
    ScopedSpan span(log, "data.serialize", root.id());
    for (std::size_t i = 0; i < m; ++i) shards.push_back(serialize_shard(w, in, i));
  }

  std::unique_ptr<core::ConsensusCoordinator> coordinator;
  if (w.scheme == Scheme::kLinearHorizontal)
    coordinator = std::make_unique<core::AveragingCoordinator>(
        in.horizontal.shards.front().features() + 1);
  else
    coordinator =
        std::make_unique<core::VerticalCoordinator>(in.vertical.y, m, params);
  std::optional<TimedCoordinator> timed;
  if (log) timed.emplace(*coordinator, *log, round_span);
  core::ConsensusCoordinator& coord =
      timed ? static_cast<core::ConsensusCoordinator&>(*timed) : *coordinator;
  const auto bias = [&] {
    return static_cast<core::VerticalCoordinator&>(*coordinator).bias();
  };

  // The kernel trainer's per-round test trace (the CLI path): K(test view,
  // train block) once per learner, then one gemv per learner per round.
  const data::Dataset& test = in.data.split.test;
  std::vector<linalg::Matrix> test_grams;
  if (kernel) {
    for (std::size_t i = 0; i < m; ++i) {
      ScopedSpan span(log, "svm.cross_gram", root.id(), -1, static_cast<long>(i));
      const auto& idx = in.vertical.feature_indices[i];
      linalg::Matrix projected(test.size(), idx.size());
      for (std::size_t r = 0; r < test.size(); ++r)
        for (std::size_t j = 0; j < idx.size(); ++j)
          projected(r, j) = test.x(r, idx[j]);
      test_grams.push_back(svm::cross_gram(rbf, projected, in.vertical.blocks[i]));
    }
  }
  double last_accuracy = 0.0;
  const core::RoundObserver observer = [&](std::size_t iteration) {
    if (log) log->end(round_span.load());
    if (kernel) {
      ScopedSpan span(log, "core.observer", root.id(), static_cast<long>(iteration));
      Vector decision(test.size(), bias());
      for (std::size_t i = 0; i < m; ++i) {
        const auto& learner =
            static_cast<const core::KernelVerticalLearner&>(*typed[i]);
        const Vector part = linalg::gemv(test_grams[i], learner.alpha());
        linalg::axpy(1.0, part, decision);
      }
      for (double& v : decision) v = v >= 0.0 ? 1.0 : -1.0;
      last_accuracy = svm::accuracy(decision, test.y);
    }
    if (log && iteration + 1 < params.max_iterations)
      round_span.store(log->begin("core.round", root.id(),
                                  static_cast<long>(iteration + 1)));
  };

  core::FullParticipation policy;
  std::optional<core::ConsensusEngine> engine;
  {
    ScopedSpan span(log, "crypto.setup", root.id());
    if (mode == Mode::kInMemory)
      engine.emplace(learners, coord, params, policy);
    else
      engine.emplace(m, coord, params, policy);
  }
  out.session_config = engine->session_config();
  if (log) round_span.store(log->begin("core.round", root.id(), 0));
  if (mode == Mode::kFabric) {
    const core::LearnerFactory factory = [&](mr::BytesView shard,
                                             std::size_t i) {
      return make_learner(i, &shard, round_span.load());
    };
    core::FabricTransport transport(*cluster, shards, factory,
                                    /*reducer_node=*/m);
    engine->run(transport, observer);
    out.job = transport.job_stats();
    out.network = cluster->network().totals();
  } else if (mode == Mode::kSlots) {
    SlotTransport transport(learners);
    engine->run(transport, observer);
  } else {
    core::InMemoryTransport transport;
    engine->run(transport, observer);
  }

  Model model;
  switch (w.scheme) {
    case Scheme::kKernelVertical: {
      core::VerticalKernelModelView view;
      view.kernel = rbf;
      view.feature_indices = in.vertical.feature_indices;
      view.b = bias();
      for (std::size_t i = 0; i < m; ++i) {
        view.train_blocks.push_back(in.vertical.blocks[i]);
        view.alphas.push_back(
            static_cast<const core::KernelVerticalLearner&>(*typed[i]).alpha());
      }
      model = std::move(view);
      break;
    }
    case Scheme::kLinearVertical: {
      core::VerticalLinearModelView view;
      view.feature_indices = in.vertical.feature_indices;
      view.b = bias();
      for (const auto& learner : typed)
        view.w_blocks.push_back(
            static_cast<const core::LinearVerticalLearner&>(*learner).w());
      model = std::move(view);
      break;
    }
    case Scheme::kLinearHorizontal: {
      const auto& avg = static_cast<core::AveragingCoordinator&>(*coordinator);
      model = svm::LinearModel{avg.z(), avg.s()};
      break;
    }
  }
  out.trained.train_s = seconds_since(t0);
  out.trained.accuracy =
      kernel ? last_accuracy : model_accuracy(model, in.data.split.test);
  out.trained.digest = model_digest(model);
  out.trained.model = std::move(model);
  return out;
}

// --- serving ----------------------------------------------------------------

using ServeView =
    std::variant<core::VerticalLinearModelView, core::VerticalKernelModelView>;

/// What PredictionServer serves for each workload. The horizontal model is
/// held whole by every party; its serve phase scores queries whose features
/// are split over kServeHolders holders (feature j on holder j mod 4).
ServeView serve_view(const Model& model) {
  if (const auto* k = std::get_if<core::VerticalKernelModelView>(&model))
    return *k;
  if (const auto* v = std::get_if<core::VerticalLinearModelView>(&model))
    return *v;
  const auto& h = std::get<svm::LinearModel>(model);
  core::VerticalLinearModelView view;
  view.b = h.b;
  view.w_blocks.resize(kServeHolders);
  view.feature_indices.resize(kServeHolders);
  for (std::size_t j = 0; j < h.w.size(); ++j) {
    view.feature_indices[j % kServeHolders].push_back(j);
    view.w_blocks[j % kServeHolders].push_back(h.w[j]);
  }
  return view;
}

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< due time -> end of the answering batch
  std::vector<double> late_ms;     ///< submit lag behind each due time
  std::vector<double> batch_ms;    ///< ServeResult::compute_seconds per batch
  double occupancy = 0.0;          ///< served / batches
};

/// One PredictionServer plus the bench-side drive loops. Query rows cycle
/// over the test set; kernel models cycle over kCacheSlots distinct rows so
/// the kernel-row cache is exercised. `queries` must outlive the phase.
class ServePhase {
 public:
  ServePhase(ServeView view, const core::AdmmParams& params,
             const linalg::Matrix& queries)
      : view_(std::move(view)),
        params_(params),
        x_(queries),
        pool_(std::holds_alternative<core::VerticalKernelModelView>(view_)
                  ? std::min(kCacheSlots, queries.rows())
                  : queries.rows()) {
    core::ServingConfig config;
    config.max_batch = kMaxBatch;
    config.max_linger = kLinger;
    if (std::holds_alternative<core::VerticalKernelModelView>(view_))
      config.cache_slots = kCacheSlots;
    server_ = std::visit(
        [&](const auto& v) {
          return std::make_unique<core::PredictionServer>(v, params_, config);
        },
        view_);
  }

  /// Served queries per CPU second of the serving thread, arrivals far
  /// above capacity on the virtual clock: every batch flushes full.
  double saturating_pass(std::size_t queries) {
    const double c0 = thread_cpu_seconds();
    for (std::size_t i = 0; i < queries; ++i) {
      clock_ += 1.0 / kSaturatingQps;
      server_->advance(clock_);
      submit(i % kClients, clock_, clock_);
    }
    server_->drain(clock_);
    const double cpu = thread_cpu_seconds() - c0;
    const auto results = server_->take_results();
    for (const auto& r : results) keep_for_audit(r);
    return static_cast<double>(results.size()) / cpu;
  }

  /// Open loop at kOpenLoopQps for `seconds` of virtual time. Query i is
  /// due at i / kOpenLoopQps. The server is busy for the CPU time of each
  /// submit() and advance() call: the virtual clock moves on by that much,
  /// so a query that arrives while a batch computes waits for it, and a
  /// stall counts against the queries behind it. Each query is timed from
  /// its due time to the end of the batch that answered it.
  OpenLoopResult open_loop(double seconds) {
    OpenLoopResult out;
    const auto n = static_cast<std::size_t>(seconds * kOpenLoopQps);
    const double base = clock_ + 1.0;  // after every earlier query
    std::unordered_set<std::size_t> batches;
    std::size_t served = 0;
    // One advance() at virtual time t. The batches it flushes run one after
    // another; its CPU time is shared among them by their compute_seconds.
    const auto step = [&](double t) {
      const double c0 = thread_cpu_seconds();
      server_->advance(t);
      const double busy = thread_cpu_seconds() - c0;
      const auto results = server_->take_results();
      double total = 0.0;
      for (std::size_t k = 0; k < results.size(); ++k)
        if (k == 0 || results[k].batch_id != results[k - 1].batch_id)
          total += results[k].compute_seconds;
      double done = 0.0;
      for (std::size_t k = 0; k < results.size(); ++k) {
        const auto& r = results[k];
        if (batches.insert(r.batch_id).second) {
          done += r.compute_seconds;
          out.batch_ms.push_back(r.compute_seconds * 1e3);
        }
        const double finish = t + (total > 0.0 ? busy * done / total : busy);
        out.latency_ms.push_back((finish - due_[r.query_id - 1]) * 1e3);
        ++served;
        keep_for_audit(r);
      }
      clock_ = t + busy;
    };
    // The first virtual time at which the oldest pending query has lingered
    // max_linger, as PredictionServer::advance compares it.
    const auto linger_deadline = [&] {
      const double submitted = submitted_at_[server_->stats().served];
      double t = submitted + kLinger;
      while (t - submitted < kLinger) t = std::nextafter(t, 2.0 * t);
      return t;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const double due = base + static_cast<double>(i) / kOpenLoopQps;
      while (server_->pending() > 0 && linger_deadline() <= due)
        step(std::max(clock_, linger_deadline()));
      clock_ = std::max(clock_, due);
      out.late_ms.push_back((clock_ - due) * 1e3);
      const double c0 = thread_cpu_seconds();
      submit(i % kClients, clock_, due);
      clock_ += thread_cpu_seconds() - c0;
      if (server_->pending() >= kMaxBatch) step(clock_);
    }
    while (server_->pending() > 0) step(std::max(clock_, linger_deadline()));
    out.occupancy = batches.empty() ? 0.0
                                    : static_cast<double>(served) /
                                          static_cast<double>(batches.size());
    return out;
  }

  /// Sampled bit-identity audit against the per-query secure prediction
  /// path (one fresh session per query). Returns the mismatches.
  std::size_t audit() const {
    std::size_t mismatches = 0;
    for (const auto& [id, value] : audit_) {
      const auto row = x_.row(row_[id - 1]);
      linalg::Matrix one(1, row.size());
      for (std::size_t j = 0; j < row.size(); ++j) one(0, j) = row[j];
      const Vector reference = std::visit(
          [&](const auto& v) {
            return core::secure_vertical_decision_values(v, one, params_);
          },
          view_);
      if (std::memcmp(&reference[0], &value, sizeof value) != 0) ++mismatches;
    }
    return mismatches;
  }

  std::size_t audited() const noexcept { return audit_.size(); }
  const core::PredictionServer& server() const noexcept { return *server_; }

 private:
  void submit(std::size_t client, double now, double due) {
    const std::size_t row = next_row_++ % pool_;
    if (server_->submit(client, x_.row(row), now) ==
        core::AdmissionOutcome::kQueued) {
      row_.push_back(row);
      due_.push_back(due);
      submitted_at_.push_back(now);
    }
  }

  void keep_for_audit(const core::ServeResult& r) {
    if (r.query_id % kAuditStride == 0 && audit_.size() < kMaxAudits)
      audit_.emplace_back(r.query_id, r.decision_value);
  }

  ServeView view_;
  core::AdmmParams params_;
  const linalg::Matrix& x_;
  std::size_t pool_;
  std::unique_ptr<core::PredictionServer> server_;
  double clock_ = 0.0;
  std::size_t next_row_ = 0;
  std::vector<std::size_t> row_;  ///< by query id - 1
  std::vector<double> due_;       ///< by query id - 1
  std::vector<double> submitted_at_;  ///< virtual submit time, by query id - 1
  std::vector<std::pair<std::uint64_t, double>> audit_;
};

/// Serve-phase accounting shared by both passes: every submitted query is
/// an operation; shed queries and audit mismatches fail. Only servers with
/// `audit` set run the (costly) bit-identity audit.
void settle_serving(const ServePhase& serve, Ledger& ledger, bool audit = true) {
  const auto& stats = serve.server().stats();
  ledger.attempted += stats.submitted;
  if (stats.shed_rate + stats.shed_queue > 0)
    ledger.fail("queries shed", stats.shed_rate + stats.shed_queue);
  if (!audit) return;
  if (const std::size_t bad = serve.audit(); bad > 0)
    ledger.fail("batched decision values differ from the per-query path", bad);
  std::printf("# serve audit: %zu sampled queries checked bit for bit\n",
              serve.audited());
}

// --- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_environment(const Workload& w, const Options& o) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  std::printf("# env: isa=%s hardware_concurrency=%u build=%s "
              "thread_budget=%zu\n",
              linalg::active_isa_name(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, kThreadBudget);
  std::printf("# shape: M=%zu rows=%zu (train %zu) rounds=%zu %s\n", w.parties,
              w.rows, w.rows / 2, kRounds,
              w.fabric ? "fabric, 4 task slots" : "in memory, 4 threads");
}

void emit(const Ledger& ledger, const std::vector<Metric>& metrics) {
  bool finite = true;
  std::string out = "{\"correct\": ";
  std::string body;
  for (const auto& m : metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    body += buf;
  }
  const bool correct = ledger.correct && ledger.failed == 0 && finite;
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(ledger.attempted, 1));
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", out.c_str());
}

// --- untraced pass: end-to-end metrics --------------------------------------

int run_untraced(const Workload& w, const Options& o, Ledger& ledger) {
  const core::AdmmParams params = workload_params(w);
  const Inputs in = make_inputs(w, o.seed);
  const linalg::Matrix& queries = in.data.split.test.x;

  // Every timing is CPU time: on a shared host the wall clock also counts
  // the time other tenants hold the cores, which swings by tens of percent
  // from one minute to the next. Each cycle times a chunk of serve samples,
  // a chunk of data set-ups, one training call and another chunk of serve
  // samples, then runs an open loop. Cycles repeat while the next one fits
  // in --seconds (at least kMinTrainReps), so every kind of sample spans
  // the whole run.
  std::vector<double> setup_data_s, setup_server_s, train_cpu_s, train_s, qps,
      latency_ms;
  double peak_rss = 0.0;
  std::optional<Trained> first;
  std::optional<ServeView> view;
  const auto timed_chunk = [](double seconds, std::size_t min_reps,
                              std::vector<double>& samples, auto&& fn) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < min_reps || seconds_since(t0) < seconds; ++k) {
      const double c0 = process_cpu_seconds();
      fn();
      samples.push_back(process_cpu_seconds() - c0);
    }
  };
  // A chunk of serve samples. Every sample serves from a fresh server, so
  // the samples span many heap layouts. Construction, which runs the serving
  // key agreement, is a set-up sample; a warm-up pass fills the kernel-row
  // cache, then one saturating pass is timed. Returns the last server.
  const auto serve_chunk = [&] {
    std::unique_ptr<ServePhase> serve;
    const auto t0 = Clock::now();
    for (std::size_t k = 0;
         k < kServeReps || seconds_since(t0) < kServeShare * o.seconds; ++k) {
      if (serve) settle_serving(*serve, ledger, /*audit=*/false);
      const double c0 = process_cpu_seconds();
      serve = std::make_unique<ServePhase>(*view, params, queries);
      setup_server_s.push_back(process_cpu_seconds() - c0);
      serve->saturating_pass(kWarmupPass);
      if (peak_rss == 0.0) peak_rss = peak_rss_mb();
      qps.push_back(serve->saturating_pass(kSaturatingPass));
    }
    return serve;
  };
  // The fabric workloads end with the in-memory cross-check, which takes
  // about as long as one more training call.
  const auto run_t0 = Clock::now();
  double last_cycle = 0.0, last_train = 0.0;
  for (std::size_t r = 0;
       r < kMaxTrainReps &&
       (r < kMinTrainReps ||
        seconds_since(run_t0) + last_cycle + (w.fabric ? last_train : 0.0) <=
            o.seconds);
       ++r) {
    const auto cycle_t0 = Clock::now();
    // Serve samples on both sides of the training call: a training call
    // lasts seconds, so the two chunks see different host states.
    if (view) settle_serving(*serve_chunk(), ledger, /*audit=*/false);

    // Set-up: data, split, standardisation, partition (+ the cluster).
    timed_chunk(kSetupShare * o.seconds, kSetupReps, setup_data_s, [&] {
      const Inputs fresh = make_inputs(w, o.seed);
      if (w.fabric) make_cluster(w);
    });

    // The public training call; every model must be identical.
    const auto cluster = w.fabric ? make_cluster(w) : nullptr;
    try {
      Trained t = train_public(w, in, params, cluster.get());
      train_cpu_s.push_back(t.train_cpu_s);
      train_s.push_back(t.train_s);
      ledger.check_model("training call", t.digest, t.accuracy);
      if (!first) first = std::move(t);
    } catch (const std::exception& e) {
      ++ledger.attempted;
      ledger.fail(std::string("training call threw: ") + e.what());
    }
    if (!first) continue;

    // The cycle's last server also runs the open loop and is audited.
    if (!view) view = serve_view(first->model);
    const std::unique_ptr<ServePhase> serve = serve_chunk();
    const OpenLoopResult open = serve->open_loop(kOpenLoopSeconds);
    latency_ms.insert(latency_ms.end(), open.latency_ms.begin(),
                      open.latency_ms.end());
    settle_serving(*serve, ledger);
    last_train = train_s.back();
    last_cycle = seconds_since(cycle_t0);
  }
  if (!first) return 1;

  // The fabric must reproduce the in-memory engine on the same partition.
  if (w.fabric) {
    const EngineRun reference =
        run_engine(w, in, params, Mode::kSlots, nullptr, nullptr);
    ledger.check_model("in-memory engine cross-check",
                       reference.trained.digest, reference.trained.accuracy);
  }

  const Summary setup_sum = summarize(setup_data_s);
  const Summary server_sum = summarize(setup_server_s);
  const Summary train_sum = summarize(train_cpu_s);
  const Summary qps_sum = summarize(qps);
  const Summary latency = summarize(latency_ms);
  print_summary("setup_s (data)", setup_sum, "s");
  print_summary("setup_s (PredictionServer)", server_sum, "s");
  print_summary("train_cpu_s", train_sum, "s");
  print_summary("train_s (wall, not a metric)", summarize(train_s), "s");
  print_summary("serve_cpu_qps (per pass)", qps_sum, "queries/s");
  print_summary("serve_latency_ms", latency, "ms");
  std::printf("# train_cpu_s samples:");
  for (double t : train_cpu_s) std::printf(" %.4f", t);
  std::printf("\n# train_s (wall) samples:");
  for (double t : train_s) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("# model %s test_accuracy %.17g\n", first->digest.c_str(),
              first->accuracy);
  if (!latency.p99_qualifies) {
    ledger.correct = false;
    std::printf("# serve_latency_ms: p99 has fewer than ten samples beyond "
                "it; not reported\n");
  }
  if (first->accuracy < kAccuracyFloor) {
    ledger.correct = false;
    std::printf("# test_accuracy below %.2f\n", kAccuracyFloor);
  }

  emit(ledger, {
                   {"setup_s", setup_sum.median + server_sum.median, "s"},
                   {"train_cpu_s", train_sum.median, "s"},
                   {"test_accuracy", first->accuracy, "fraction"},
                   {"serve_cpu_qps", qps_sum.median, "queries/s"},
                   {"serve_latency_ms.p50", latency.median, "ms"},
                   {"serve_latency_ms.p99", latency.p99, "ms"},
                   {"peak_rss_mb", peak_rss, "MB"},
               });
  return 0;
}

// --- traced pass: per-layer metrics ------------------------------------------

/// Direct timed calls on the workload's own inputs, for layers the public
/// seams do not expose: the learners' Gram / factor / solve / gemv, and the
/// secure sum's contribute / reduce at the workload's width and mask set.
struct DirectCalls {
  double gram_s = 0.0;
  double cholesky_s = 0.0;
  std::vector<double> solve_ms, gemv_ms, contribute_ms, reduce_ms;
};

DirectCalls direct_calls(const Workload& w, const Inputs& in,
                         const core::AdmmParams& params,
                         const crypto::SecureSumConfig& session_config,
                         SpanLog& log) {
  DirectCalls out;
  const int root = log.begin("direct", -1);
  const auto timed = [&](const char* name, long party, auto&& fn) {
    ScopedSpan span(&log, name, root, -1, party);
    const auto t0 = Clock::now();
    fn();
    return seconds_since(t0);
  };

  if (w.scheme != Scheme::kLinearHorizontal) {
    const svm::Kernel rbf = svm::Kernel::rbf(kGamma);
    for (std::size_t i = 0; i < w.parties; ++i) {
      const linalg::Matrix& block = in.vertical.blocks[i];
      const long party = static_cast<long>(i);
      // The learner's operator: K (kernel) or X (linear), and the matrix it
      // factors, I + rho K or I + rho X^T X, built as the learners build it.
      linalg::Matrix op;
      linalg::Matrix normal;
      if (w.scheme == Scheme::kKernelVertical) {
        out.gram_s += timed("svm.gram", party, [&] { op = svm::gram(rbf, block); });
        normal = op;
        for (double& v : normal.data()) v *= params.rho;
        for (std::size_t r = 0; r < normal.rows(); ++r) normal(r, r) += 1.0 + 1e-10;
      } else {
        op = block;
        normal = linalg::gram_at_a(block);
        for (double& v : normal.data()) v *= params.rho;
        for (std::size_t r = 0; r < normal.rows(); ++r) normal(r, r) += 1.0;
      }
      std::optional<linalg::Cholesky> factor;
      out.cholesky_s +=
          timed("linalg.cholesky", party, [&] { factor.emplace(normal); });
      const Vector rhs = w.scheme == Scheme::kKernelVertical
                             ? in.vertical.y
                             : linalg::gemv_t(block, in.vertical.y);
      for (std::size_t s = 0; s < kSolveSamples; ++s) {
        Vector x;
        out.solve_ms.push_back(
            1e3 * timed("linalg.solve", party, [&] { x = factor->solve(rhs); }));
        Vector y;
        out.gemv_ms.push_back(
            1e3 * timed("linalg.gemv", party, [&] { y = linalg::gemv(op, x); }));
      }
    }
  }

  // Secure sum at the training width over the full cohort.
  const std::size_t m = w.parties;
  const std::size_t width = w.scheme == Scheme::kLinearHorizontal
                                ? in.horizontal.shards.front().features() + 1
                                : in.vertical.rows();
  Vector values(width);
  for (std::size_t j = 0; j < width; ++j)
    values[j] = std::sin(static_cast<double>(j));
  const crypto::SecureSumSession::Tensor tensor = values;
  crypto::SecureSumSession session(session_config);
  std::vector<std::size_t> all(m);
  for (std::size_t i = 0; i < m; ++i) all[i] = i;
  const std::size_t reps = std::max<std::size_t>(20, (200 + m - 1) / m);
  for (std::size_t round = 0; round < reps; ++round) {
    std::vector<std::vector<std::uint64_t>> wire(m);
    for (std::size_t p = 0; p < m; ++p)
      out.contribute_ms.push_back(
          1e3 * timed("crypto.contribute", static_cast<long>(p), [&] {
            wire[p] = session.contribute(p, {&tensor, 1}, round, all);
          }));
    out.reduce_ms.push_back(1e3 * timed("crypto.reduce", -1, [&] {
      session.reduce_average(round, all, all, wire);
    }));
  }
  log.end(root);
  return out;
}

std::vector<double> span_ms(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back((s.end - s.start) * 1e3);
  return out;
}

double span_total_s(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const auto& s : spans)
    if (s.name == name) total += s.end - s.start;
  return total;
}

void write_trace_file(const Options& o, const std::vector<Span>& spans,
                      const std::vector<Metric>& metrics) {
  if (o.trace_dir.empty()) return;
  std::filesystem::create_directories(o.trace_dir);
  ppml::obs::JsonValue doc = ppml::obs::JsonValue::object();
  doc.set("workload", o.workload->name);
  doc.set("seed", static_cast<double>(o.seed));
  ppml::obs::JsonValue env = ppml::obs::JsonValue::object();
  env.set("isa", linalg::active_isa_name());
  env.set("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  env.set("thread_budget", kThreadBudget);
  doc.set("env", std::move(env));
  ppml::obs::JsonValue layers = ppml::obs::JsonValue::object();
  for (const auto& m : metrics) layers.set(m.name, m.value);
  doc.set("layers", std::move(layers));
  ppml::obs::JsonValue list = ppml::obs::JsonValue::array();
  for (const auto& s : spans) {
    ppml::obs::JsonValue span = ppml::obs::JsonValue::object();
    span.set("name", s.name);
    span.set("start_s", s.start);
    span.set("end_s", s.end);
    span.set("parent", s.parent);
    span.set("round", static_cast<double>(s.round));
    span.set("party", static_cast<double>(s.party));
    list.push(std::move(span));
  }
  doc.set("spans", std::move(list));
  const std::string path = o.trace_dir + "/" + o.workload->name + "-seed" +
                           std::to_string(o.seed) + ".json";
  ppml::obs::write_json_file(path, doc);
  std::printf("# spans written to %s\n", path.c_str());
}

int run_traced(const Workload& w, const Options& o, Ledger& ledger) {
  const core::AdmmParams params = workload_params(w);
  SpanLog log;
  const std::size_t m = w.parties;
  const double rounds = static_cast<double>(kRounds);

  // Data layers: generation alone, then the bench dataset (generation,
  // split, scaler) plus the partition; placement on a throwaway cluster.
  double generate_s = 0.0, partition_s = 0.0, place_s = 0.0;
  Inputs in;
  {
    ScopedSpan span(&log, "data.generate", -1);
    const auto t0 = Clock::now();
    data::make_higgs_like(o.seed, w.rows);
    generate_s = seconds_since(t0);
  }
  {
    ScopedSpan span(&log, "data.partition", -1);
    const auto t0 = Clock::now();
    in = make_inputs(w, o.seed);
    partition_s = std::max(0.0, seconds_since(t0) - generate_s);
  }
  if (w.fabric) {
    ScopedSpan span(&log, "data.place", -1);
    const auto cluster = make_cluster(w);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i)
      cluster->store_shard("learner" + std::to_string(i) + "/shard",
                           serialize_shard(w, in, i), i);
    place_s = seconds_since(t0);
  }

  // The untraced public call: the reference model and train_s.
  Trained base;
  {
    const auto cluster = w.fabric ? make_cluster(w) : nullptr;
    base = train_public(w, in, params, cluster.get());
    ledger.check_model("untraced training call", base.digest, base.accuracy);
  }

  // Fabric workloads: the in-memory engine on the same partition, with the
  // fabric's four slots for local steps (SlotTransport).
  double transport_overhead_s = 0.0;
  if (w.fabric) {
    const EngineRun reference =
        run_engine(w, in, params, Mode::kSlots, nullptr, nullptr);
    ledger.check_model("in-memory engine cross-check",
                       reference.trained.digest, reference.trained.accuracy);
    transport_overhead_s = base.train_s - reference.trained.train_s;
  }

  // The traced composition.
  EngineRun traced;
  {
    const auto cluster = w.fabric ? make_cluster(w) : nullptr;
    traced = run_engine(w, in, params,
                        w.fabric ? Mode::kFabric : Mode::kInMemory,
                        cluster.get(), &log);
    ledger.check_model("traced composition", traced.trained.digest,
                       traced.trained.accuracy);
  }

  // The same public call with the program's own obs::Session installed.
  double obs_train_s = 0.0;
  {
    ppml::obs::Tracer tracer;
    ppml::obs::MetricsRegistry registry;
    const auto cluster = w.fabric ? make_cluster(w) : nullptr;
    ppml::obs::Session session(&tracer, &registry);
    const Trained t = train_public(w, in, params, cluster.get());
    obs_train_s = t.train_s;
    ledger.check_model("training call under obs::Session", t.digest, t.accuracy);
  }

  const DirectCalls calls =
      direct_calls(w, in, params, traced.session_config, log);

  // Serve phase, shortened: a warm-up and four saturating passes, then the
  // open loop for batch compute, occupancy and submit lag.
  ServePhase serve(serve_view(base.model), params, in.data.split.test.x);
  serve.saturating_pass(kWarmupPass);
  for (int k = 0; k < 4; ++k) serve.saturating_pass(kSaturatingPass);
  const OpenLoopResult open = serve.open_loop(kOpenLoopSeconds);
  settle_serving(serve, ledger);

  // --- analysis -------------------------------------------------------------
  const std::vector<Span> spans = log.spans();
  const Summary local_step = summarize(span_ms(spans, "core.local_step"));
  const Summary round = summarize(span_ms(spans, "core.round"));
  const Summary combine = summarize(span_ms(spans, "core.combine"));
  const Summary solve = summarize(calls.solve_ms);
  const Summary gemv = summarize(calls.gemv_ms);
  const Summary contribute = summarize(calls.contribute_ms);
  const Summary reduce = summarize(calls.reduce_ms);
  const Summary batch = summarize(open.batch_ms);
  const Summary late = summarize(open.late_ms);

  // Per round: the slowest step and its lead over the mean step. The steps
  // of a round share kThreadBudget threads, so the round waits for the
  // slowest step or for the summed steps spread over the threads.
  std::vector<double> round_max(kRounds, 0.0), round_sum(kRounds, 0.0);
  std::vector<std::size_t> round_n(kRounds, 0);
  for (const auto& s : spans) {
    if (s.name != "core.local_step" || s.round < 0 ||
        s.round >= static_cast<long>(kRounds))
      continue;
    const double ms = (s.end - s.start) * 1e3;
    const auto r = static_cast<std::size_t>(s.round);
    round_max[r] = std::max(round_max[r], ms);
    round_sum[r] += ms;
    ++round_n[r];
  }
  std::vector<double> step_wait_ms;
  double critical_steps_s = 0.0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (round_n[r] == 0) continue;
    step_wait_ms.push_back(round_max[r] -
                           round_sum[r] / static_cast<double>(round_n[r]));
    critical_steps_s +=
        std::max(round_max[r], round_sum[r] / static_cast<double>(kThreadBudget)) /
        1e3;
  }
  const Summary step_wait = summarize(step_wait_ms);

  const double learner_init_s = span_total_s(spans, "core.learner_init");
  const double cross_gram_s = span_total_s(spans, "svm.cross_gram");
  const double crypto_setup_s = span_total_s(spans, "crypto.setup");
  const double combine_s = span_total_s(spans, "core.combine");
  const double observer_s = span_total_s(spans, "core.observer");
  const double contribute_s =
      rounds * static_cast<double>(m) * contribute.median / 1e3;
  const double reduce_s = rounds * reduce.median / 1e3;

  // Attribution of the untraced train_s (README.md, "unattributed_s"): the
  // layers on the critical path as the in-memory engine runs them (learners
  // built serially, steps on four threads, secure sum and combine serial);
  // on the fabric, plus the transport overhead beyond that reference.
  struct Share {
    const char* layer;
    double seconds;
  };
  std::vector<Share> shares;
  if (w.fabric) {
    shares = {{"mapreduce+crypto.contribute", transport_overhead_s + contribute_s},
              {"core.local_step (critical)", critical_steps_s},
              {"core.combine", combine_s},
              {"crypto.reduce", reduce_s},
              {"crypto.setup", crypto_setup_s},
              {"core.learner_init", learner_init_s}};
  } else {
    shares = {{"svm.gram+linalg.cholesky", calls.gram_s + calls.cholesky_s},
              {"core.learner_init (rest)",
               learner_init_s - calls.gram_s - calls.cholesky_s},
              {"core.local_step (critical)", critical_steps_s},
              {"crypto.contribute+reduce", contribute_s + reduce_s},
              {"core.combine", combine_s},
              {"core.observer (test trace)", observer_s},
              {"svm.cross_gram", cross_gram_s},
              {"crypto.setup", crypto_setup_s}};
  }
  double attributed = 0.0;
  for (const auto& s : shares) attributed += s.seconds;
  const double unattributed_s = base.train_s - attributed;

  const char* predicted = w.scheme == Scheme::kKernelVertical
                              ? "svm.gram+linalg.cholesky"
                          : w.scheme == Scheme::kLinearVertical
                              ? "mapreduce+crypto.contribute"
                              : "crypto.setup";
  const Share* largest = &shares.front();
  for (const auto& s : shares)
    if (s.seconds > largest->seconds) largest = &s;
  std::printf("# layer shares of train_s %.4f s:\n", base.train_s);
  for (const auto& s : shares)
    std::printf("#   %-38s %9.4f s  %6.1f%%\n", s.layer, s.seconds,
                100.0 * s.seconds / base.train_s);
  std::printf("#   %-38s %9.4f s  %6.1f%%\n", "unattributed", unattributed_s,
              100.0 * unattributed_s / base.train_s);
  std::printf("# predicted dominant layer %s: %s (largest is %s)\n", predicted,
              std::strcmp(largest->layer, predicted) == 0 ? "met" : "NOT met",
              largest->layer);

  print_summary("core.local_step_ms", local_step, "ms");
  print_summary("core.round_ms", round, "ms");
  print_summary("core.combine_ms", combine, "ms");
  print_summary("core.step_wait_ms", step_wait, "ms");
  print_summary("linalg.solve_ms", solve, "ms");
  print_summary("linalg.gemv_ms", gemv, "ms");
  print_summary("crypto.contribute_ms", contribute, "ms");
  print_summary("crypto.reduce_ms", reduce, "ms");
  print_summary("core.serve.batch_ms", batch, "ms");
  print_summary("bench.generator_late_ms", late, "ms");

  const auto& stats = serve.server().stats();
  const std::size_t mask_edges =
      params.agg_topology == crypto::AggregationTopology::kGroupedRing
          ? crypto::grouped_mask_edges(m, params.agg_group_size)
          : m * (m - 1) / 2;
  const double pct = 100.0 / base.train_s;
  const std::vector<Metric> metrics = {
      {"data.generate_s", generate_s, "s"},
      {"data.partition_s", partition_s, "s"},
      {"data.place_s", place_s, "s"},
      {"svm.gram_s", calls.gram_s, "s"},
      {"svm.cross_gram_s", cross_gram_s, "s"},
      {"linalg.cholesky_s", calls.cholesky_s, "s"},
      {"linalg.solve_ms.p50", solve.median, "ms"},
      {"linalg.solve_ms.tail", solve.tail, "ms"},
      {"linalg.gemv_ms.p50", gemv.median, "ms"},
      {"core.learner_init_s", learner_init_s, "s"},
      {"core.local_step_ms.p50", local_step.median, "ms"},
      {"core.local_step_ms.tail", local_step.tail, "ms"},
      {"core.step_wait_ms.p50", step_wait.median, "ms"},
      {"core.round_ms.p50", round.median, "ms"},
      {"core.round_ms.tail", round.tail, "ms"},
      {"core.combine_ms.p50", combine.median, "ms"},
      {"core.combine_ms.tail", combine.tail, "ms"},
      {"crypto.setup_s", crypto_setup_s, "s"},
      {"crypto.contribute_ms.p50", contribute.median, "ms"},
      {"crypto.contribute_ms.tail", contribute.tail, "ms"},
      {"crypto.reduce_ms.p50", reduce.median, "ms"},
      {"crypto.mask_edges", static_cast<double>(mask_edges), "count"},
      {"mapreduce.bytes", static_cast<double>(traced.network.bytes), "bytes"},
      {"mapreduce.messages", static_cast<double>(traced.network.messages), "count"},
      {"mapreduce.task_attempts", static_cast<double>(traced.job.map_task_attempts), "count"},
      {"mapreduce.task_retries", static_cast<double>(traced.job.task_retries), "count"},
      {"mapreduce.transport_overhead_s", transport_overhead_s, "s"},
      {"core.serve.batch_ms.p50", batch.median, "ms"},
      {"core.serve.batch_ms.tail", batch.tail, "ms"},
      {"core.serve.occupancy", open.occupancy, "queries"},
      {"core.serve.shed", static_cast<double>(stats.shed_rate + stats.shed_queue), "count"},
      {"bench.generator_late_ms.tail", late.tail, "ms"},
      {"qp.cache.hit_rate", serve.server().cache_hit_rate(), "fraction"},
      {"qp.cache.hits", static_cast<double>(serve.server().cache_hits()), "count"},
      {"qp.cache.misses", static_cast<double>(serve.server().cache_misses()), "count"},
      {"obs.session_overhead_pct", (obs_train_s - base.train_s) * pct, "%"},
      {"unattributed_s", unattributed_s, "s"},
      {"trace_overhead_pct", (traced.trained.train_s - base.train_s) * pct, "%"},
  };
  write_trace_file(o, spans, metrics);
  emit(ledger, metrics);
  return 0;
}

// --- command line ------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload kv-m4-serve|lv-m8-fabric|lh-m128-fabric "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR] "
               "[--expect-digest HEX --expect-accuracy A]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads)
        if (value == w.name) o.workload = &w;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      have_seconds = o.seconds > 0.0;
    } else if (flag == "--trace") {
      o.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else if (flag == "--expect-accuracy") {
      o.expect_accuracy = std::stod(value);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || o.workload == nullptr || !have_seed || !have_seconds ||
      !have_trace)
    return usage(argv[0]);

  const Workload& w = *o.workload;
  PPML_CHECK(w.fabric || w.parties <= kThreadBudget,
             "perfbench: an in-memory workload runs one thread per party; "
             "M must stay within the 4-thread budget");
  print_environment(w, o);
  Ledger ledger;
  ledger.expect_digest = o.expect_digest;
  ledger.expect_accuracy = o.expect_accuracy;
  return o.trace ? run_traced(w, o, ledger) : run_untraced(w, o, ledger);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
