// Scalability study (paper abstract/§VI claim: "demonstrate its
// scalability"). Runs the linear-horizontal trainer as a full MapReduce
// job on the simulated cluster while sweeping the number of learners M and
// the training-set size N, and reports per-round communication (bytes,
// messages), simulated network time, task attempts and wall-clock time.
//
// The key shape the paper's design predicts: per-round traffic grows with
// M (and with M^2 for the literal exchanged-mask protocol) but is
// INDEPENDENT of N — the training data never moves (data locality).
// Besides the stdout tables, writes BENCH_scalability.json (working
// directory): the sweep rows plus per-phase span medians from one extra
// instrumented M=4 run. The sweeps themselves run WITHOUT an observability
// session, so the reported wall times exercise (and measure) the disabled
// instrumentation path.
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>

#include "bench/bench_common.h"
#include "core/linear_horizontal.h"
#include "crypto/grouped_ring.h"
#include "core/mapreduce_adapter.h"
#include "data/partition.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/microkernel.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "svm/kernel.h"

using namespace ppml;

namespace {

struct RunStats {
  double wall_seconds = 0.0;
  double network_seconds = 0.0;
  std::size_t bytes = 0;
  std::size_t messages = 0;
  double accuracy = 0.0;
};

RunStats run_job(const data::SplitDataset& split, std::size_t m,
                 crypto::MaskVariant variant, std::size_t iterations) {
  core::AdmmParams params = bench::paper_params(iterations);
  params.mask_variant = variant;

  const auto partition = data::partition_horizontally(split.train, m, 7);
  std::vector<mapreduce::Bytes> shards;
  for (const auto& shard : partition.shards)
    shards.push_back(core::serialize_horizontal_shard(shard));

  mapreduce::ClusterConfig config;
  config.num_nodes = m + 1;  // + dedicated reducer node
  mapreduce::Cluster cluster(config);

  const std::size_t k = split.train.features();
  core::AveragingCoordinator coordinator(k + 1);
  const core::AdmmParams captured = params;
  const core::LearnerFactory factory = [captured, m](
                                           mapreduce::BytesView payload,
                                           std::size_t) {
    return std::make_shared<core::LinearHorizontalLearner>(
        core::deserialize_horizontal_shard(payload), m, captured);
  };

  const auto start = std::chrono::steady_clock::now();
  const auto result = core::run_consensus_on_cluster(
      cluster, shards, factory, coordinator, k + 1, /*reducer_node=*/m,
      params);
  const auto stop = std::chrono::steady_clock::now();

  RunStats stats;
  stats.wall_seconds = std::chrono::duration<double>(stop - start).count();
  stats.network_seconds = result.job.simulated_network_seconds;
  const auto totals = cluster.network().totals();
  stats.bytes = totals.bytes;
  stats.messages = totals.messages;
  const svm::LinearModel model{coordinator.z(), coordinator.s()};
  stats.accuracy = svm::accuracy(model.predict_all(split.test.x), split.test.y);
  return stats;
}

/// One (M, topology) cell of the large-M masking sweep: R full secure-sum
/// rounds at the session level (contribute + reduce for every party, no
/// trainers — the QP cost would drown the crypto at M=512), with
/// crypto.masks_generated captured from a private metrics session.
struct TopologyStats {
  std::size_t group_size = 0;  ///< resolved (auto = ceil(sqrt(M)))
  std::size_t groups = 0;      ///< 1 under pairwise
  std::size_t edges = 0;       ///< mask edges |E|
  std::int64_t masks_generated = 0;  ///< total over all rounds
  std::int64_t masks_per_round = 0;
  std::size_t mask_stream_bytes = 0;  ///< masks * dim * 8 — the wire mask
                                      ///< traffic an exchanged-style
                                      ///< protocol would pay per job
  double setup_seconds = 0.0;  ///< DH pairwise key agreement
  double wall_seconds = 0.0;   ///< the masking + reduce rounds
  double max_abs_diff_vs_pairwise = 0.0;  ///< must be exactly 0
};

TopologyStats run_topology_cell(std::size_t m,
                                crypto::AggregationTopology topology,
                                std::size_t group_size, std::size_t rounds,
                                std::size_t dim,
                                const std::vector<double>* pairwise_sum,
                                std::vector<double>* sum_out) {
  // Deterministic per-party values: the decoded sums must agree bit-for-bit
  // across topologies, which is the whole point of the sweep's self-check.
  std::vector<std::vector<double>> values(m);
  for (std::size_t i = 0; i < m; ++i) {
    values[i].resize(dim);
    for (std::size_t j = 0; j < dim; ++j)
      values[i][j] = 0.5 * static_cast<double>(i + 1) -
                     0.03125 * static_cast<double>(j) *
                         (i % 2 == 0 ? 1.0 : -1.0);
  }

  crypto::SecureSumConfig config;
  config.num_parties = m;
  config.protocol_seed = 0xC0FFEE;
  config.topology = topology;
  config.group_size = group_size;

  TopologyStats stats;
  const bool grouped = topology == crypto::AggregationTopology::kGroupedRing;
  stats.group_size = grouped ? crypto::resolve_group_size(group_size, m) : m;
  stats.groups =
      grouped ? (m + stats.group_size - 1) / stats.group_size : 1;
  stats.edges = grouped ? crypto::grouped_mask_edges(m, group_size)
                        : m * (m - 1) / 2;

  const auto setup_start = std::chrono::steady_clock::now();
  crypto::SecureSumSession session(config);
  stats.setup_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - setup_start)
                            .count();

  std::vector<std::size_t> everyone(m);
  for (std::size_t i = 0; i < m; ++i) everyone[i] = i;
  const std::vector<crypto::SecureSumSession::Tensor> tensors(values.begin(),
                                                              values.end());

  obs::MetricsRegistry metrics;
  std::vector<double> sum;
  {
    obs::Session obs_session(nullptr, &metrics);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<std::vector<std::uint64_t>> wire(m);
      for (std::size_t i = 0; i < m; ++i)
        wire[i] = session.contribute(i, {&tensors[i], 1}, round, everyone);
      crypto::SecureSumSession::ReduceAudit audit;
      (void)session.reduce_average(round, everyone, everyone, wire, &audit);
      sum = std::move(audit.decoded_sum);
    }
    stats.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  }
  stats.masks_generated = metrics.counter("crypto.masks_generated");
  stats.masks_per_round =
      stats.masks_generated / static_cast<std::int64_t>(rounds);
  stats.mask_stream_bytes =
      static_cast<std::size_t>(stats.masks_generated) * dim * 8;
  if (pairwise_sum != nullptr)
    for (std::size_t j = 0; j < dim; ++j)
      stats.max_abs_diff_vs_pairwise = std::max(
          stats.max_abs_diff_vs_pairwise, std::abs(sum[j] - (*pairwise_sum)[j]));
  if (sum_out != nullptr) *sum_out = std::move(sum);
  return stats;
}

obs::JsonValue topology_row(std::size_t m, const char* topology,
                            const TopologyStats& s) {
  obs::JsonValue row = obs::JsonValue::object();
  row.set("learners", m);
  row.set("topology", topology);
  row.set("group_size", s.group_size);
  row.set("groups", s.groups);
  row.set("edges", s.edges);
  row.set("masks_generated", s.masks_generated);
  row.set("masks_per_round", s.masks_per_round);
  row.set("mask_stream_bytes", s.mask_stream_bytes);
  row.set("setup_seconds", s.setup_seconds);
  row.set("wall_seconds", s.wall_seconds);
  row.set("max_abs_diff_vs_pairwise", s.max_abs_diff_vs_pairwise);
  return row;
}

/// One ISA cell of the microkernel speedup head-to-head: the blocked
/// gemm_nt plus an RBF gram — the two dense primitives the trainer and
/// kernel caches ride through.
struct SimdStats {
  double scalar_seconds = 0.0;
  double dispatch_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_diff_vs_scalar = 0.0;  ///< must be exactly 0 (bit-identity)
  std::string isa;                      ///< the dispatched level
};

SimdStats run_simd_cell() {
  constexpr std::size_t kRows = 768;
  constexpr std::size_t kCols = 256;
  constexpr std::size_t kReps = 4;
  std::mt19937_64 rng(0x51D0u);
  linalg::Matrix a(kRows, kCols);
  linalg::Matrix b(kRows, kCols);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (double& v : a.data()) v = normal(rng);
  for (double& v : b.data()) v = normal(rng);
  const svm::Kernel rbf = svm::Kernel::rbf(1.0 / static_cast<double>(kCols));

  linalg::Matrix gemm_out;
  linalg::Matrix gram_out;
  const auto run_once = [&]() {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kReps; ++rep)
      gemm_out = linalg::gemm_nt(a, b);
    gram_out = svm::gram(rbf, a);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  SimdStats stats;
  linalg::force_isa(linalg::Isa::kScalar);
  stats.scalar_seconds = run_once();
  const linalg::Matrix scalar_gemm = gemm_out;
  const linalg::Matrix scalar_gram = gram_out;

  linalg::clear_forced_isa();  // back to the cpuid-probed level
  stats.dispatch_seconds = run_once();
  stats.isa = linalg::active_isa_name();
  stats.speedup = stats.dispatch_seconds > 0.0
                      ? stats.scalar_seconds / stats.dispatch_seconds
                      : 1.0;
  for (std::size_t i = 0; i < gemm_out.size(); ++i)
    stats.max_abs_diff_vs_scalar =
        std::max(stats.max_abs_diff_vs_scalar,
                 std::abs(gemm_out.data()[i] - scalar_gemm.data()[i]));
  for (std::size_t i = 0; i < gram_out.size(); ++i)
    stats.max_abs_diff_vs_scalar =
        std::max(stats.max_abs_diff_vs_scalar,
                 std::abs(gram_out.data()[i] - scalar_gram.data()[i]));
  return stats;
}

/// The factorization half of the SIMD head-to-head: the kernel-vertical
/// system I + rho*K (K an RBF Gram, one party's 1500 training rows) factored
/// once and solved 40 times, scalar-pinned and then dispatched.
struct FactorStats {
  std::size_t n = 0;
  double scalar_factor_seconds = 0.0;
  double dispatch_factor_seconds = 0.0;
  double scalar_solve40_seconds = 0.0;
  double dispatch_solve40_seconds = 0.0;
  std::size_t bits_differ = 0;  ///< factor + solution elements; must be 0
};

FactorStats run_factor_cell() {
  constexpr std::size_t kRows = 1500;
  constexpr std::size_t kFeatures = 28;
  constexpr std::size_t kSolves = 40;
  constexpr double kRho = 100.0;
  std::mt19937_64 rng(0xC401u);
  std::normal_distribution<double> normal(0.0, 1.0);
  linalg::Matrix x(kRows, kFeatures);
  for (double& v : x.data()) v = normal(rng);
  linalg::Matrix system = svm::gram(svm::Kernel::rbf(0.1), x);
  for (double& v : system.data()) v *= kRho;
  for (std::size_t i = 0; i < kRows; ++i) system(i, i) += 1.0;
  linalg::Matrix rhs(kSolves, kRows);
  for (double& v : rhs.data()) v = normal(rng);

  struct Run {
    double factor_seconds = 0.0;
    double solve_seconds = 0.0;
    linalg::Matrix l;
    std::vector<linalg::Vector> solutions;
  };
  const auto run_once = [&]() {
    Run run;
    auto start = std::chrono::steady_clock::now();
    const linalg::Cholesky factor(system);
    auto stop = std::chrono::steady_clock::now();
    run.factor_seconds = std::chrono::duration<double>(stop - start).count();
    start = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < kSolves; ++s)
      run.solutions.push_back(factor.solve(rhs.row(s)));
    stop = std::chrono::steady_clock::now();
    run.solve_seconds = std::chrono::duration<double>(stop - start).count();
    run.l = factor.l();
    return run;
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  linalg::force_isa(linalg::Isa::kScalar);
  const Run scalar = run_once();
  linalg::clear_forced_isa();
  const Run dispatch = run_once();

  FactorStats stats;
  stats.n = kRows;
  stats.scalar_factor_seconds = scalar.factor_seconds;
  stats.dispatch_factor_seconds = dispatch.factor_seconds;
  stats.scalar_solve40_seconds = scalar.solve_seconds;
  stats.dispatch_solve40_seconds = dispatch.solve_seconds;
  for (std::size_t i = 0; i < scalar.l.size(); ++i)
    stats.bits_differ += !same_bits(scalar.l.data()[i], dispatch.l.data()[i]);
  for (std::size_t s = 0; s < kSolves; ++s)
    for (std::size_t i = 0; i < kRows; ++i)
      stats.bits_differ +=
          !same_bits(scalar.solutions[s][i], dispatch.solutions[s][i]);
  return stats;
}

/// The HIGGS-scale row: n = 10^6 synthetic-HIGGS rows as a full cluster job
/// with a blockstore budget far below the serialized shards, so the map
/// phase streams spilled partitions off mmap. The matrix-free factored dual
/// solver keeps the QP O(nk) — a dense Q at this n would need ~TBs.
struct HiggsScaleStats {
  RunStats run;
  mapreduce::SpillStats spill;
  std::size_t peak_rss_bytes = 0;
  std::string isa;
};

HiggsScaleStats run_higgs_scale(std::size_t rows, std::size_t learners,
                                std::size_t iterations,
                                std::size_t qp_sweeps,
                                std::size_t budget_bytes) {
  core::AdmmParams params = bench::paper_params(iterations);
  params.qp_max_sweeps = qp_sweeps;  // fixed compute budget, deterministic

  // Counter-seeded generator: each shard slice is generated independently
  // and serialized immediately — the full training set never has to sit in
  // this address space at once.
  std::vector<mapreduce::Bytes> shards;
  const std::size_t per = rows / learners;
  for (std::size_t m = 0; m < learners; ++m) {
    data::Dataset shard = data::make_higgs_scale_rows(
        7, m * per, m + 1 == learners ? rows : (m + 1) * per);
    shards.push_back(core::serialize_horizontal_shard(shard));
  }
  const data::Dataset test =
      data::make_higgs_scale_rows(7, rows, rows + 20000);

  mapreduce::ClusterConfig config;
  config.num_nodes = learners + 1;
  config.blockstore_budget_bytes = budget_bytes;
  mapreduce::Cluster cluster(config);

  constexpr std::size_t kFeatures = 28;
  core::AveragingCoordinator coordinator(kFeatures + 1);
  const core::AdmmParams captured = params;
  const core::LearnerFactory factory = [captured, learners](
                                           mapreduce::BytesView payload,
                                           std::size_t) {
    return std::make_shared<core::LinearHorizontalLearner>(
        core::deserialize_horizontal_shard(payload), learners, captured);
  };

  const auto start = std::chrono::steady_clock::now();
  const auto result = core::run_consensus_on_cluster(
      cluster, shards, factory, coordinator, kFeatures + 1,
      /*reducer_node=*/learners, params);
  const auto stop = std::chrono::steady_clock::now();

  HiggsScaleStats out;
  out.run.wall_seconds = std::chrono::duration<double>(stop - start).count();
  out.run.network_seconds = result.job.simulated_network_seconds;
  const auto totals = cluster.network().totals();
  out.run.bytes = totals.bytes;
  out.run.messages = totals.messages;
  const svm::LinearModel model{coordinator.z(), coordinator.s()};
  out.run.accuracy =
      svm::accuracy(model.predict_all(test.x), test.y);
  out.spill = cluster.storage().spill_stats();
  out.peak_rss_bytes = obs::process_peak_rss_bytes();
  out.isa = linalg::active_isa_name();
  return out;
}

obs::JsonValue stats_row(std::size_t sweep_value, const char* key,
                         const RunStats& s) {
  obs::JsonValue row = obs::JsonValue::object();
  row.set(key, sweep_value);
  row.set("wall_seconds", s.wall_seconds);
  row.set("network_seconds", s.network_seconds);
  row.set("bytes", s.bytes);
  row.set("messages", s.messages);
  row.set("accuracy", s.accuracy);
  return row;
}

}  // namespace

int main() {
  constexpr std::size_t kIterations = 30;
  std::printf("# Scalability: linear-horizontal on the simulated cluster\n");
  std::printf("# %zu iterations; traffic is the full job total\n",
              kIterations);

  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "scalability");
  report.set("iterations", kIterations);

  std::printf("\n## Sweep M (learners), cancer_like, seeded-mask protocol\n");
  std::printf("%4s %10s %10s %12s %12s %9s\n", "M", "wall_s", "net_s",
              "bytes", "messages", "accuracy");
  const auto cancer = bench::make_bench_dataset("cancer");
  obs::JsonValue sweep_m = obs::JsonValue::array();
  for (std::size_t m : {2, 4, 8, 16}) {
    const RunStats s = run_job(cancer.split, m,
                               crypto::MaskVariant::kSeededMasks, kIterations);
    std::printf("%4zu %10.3f %10.5f %12zu %12zu %8.1f%%\n", m, s.wall_seconds,
                s.network_seconds, s.bytes, s.messages, s.accuracy * 100.0);
    sweep_m.push(stats_row(m, "learners", s));
  }
  report.set("sweep_learners_seeded", std::move(sweep_m));

  std::printf(
      "\n## Same sweep with the literal exchanged-mask protocol (O(M^2) "
      "mask traffic per round)\n");
  std::printf("%4s %10s %10s %12s %12s %9s\n", "M", "wall_s", "net_s",
              "bytes", "messages", "accuracy");
  obs::JsonValue sweep_m_exchanged = obs::JsonValue::array();
  for (std::size_t m : {2, 4, 8, 16}) {
    const RunStats s = run_job(
        cancer.split, m, crypto::MaskVariant::kExchangedMasks, kIterations);
    std::printf("%4zu %10.3f %10.5f %12zu %12zu %8.1f%%\n", m, s.wall_seconds,
                s.network_seconds, s.bytes, s.messages, s.accuracy * 100.0);
    sweep_m_exchanged.push(stats_row(m, "learners", s));
  }
  report.set("sweep_learners_exchanged", std::move(sweep_m_exchanged));

  std::printf(
      "\n## Sweep N (training rows), higgs_like, M=4: traffic must stay "
      "flat (data locality — only results move)\n");
  std::printf("%6s %10s %10s %12s %12s %9s\n", "N", "wall_s", "net_s",
              "bytes", "messages", "accuracy");
  obs::JsonValue sweep_n = obs::JsonValue::array();
  for (std::size_t n : {1000, 2000, 4000, 8000}) {
    const auto dataset = bench::make_bench_dataset("higgs", n);
    const RunStats s = run_job(dataset.split, 4,
                               crypto::MaskVariant::kSeededMasks, kIterations);
    std::printf("%6zu %10.3f %10.5f %12zu %12zu %8.1f%%\n", n, s.wall_seconds,
                s.network_seconds, s.bytes, s.messages, s.accuracy * 100.0);
    sweep_n.push(stats_row(n, "train_rows", s));
  }
  report.set("sweep_rows_seeded", std::move(sweep_n));

  // Large-M topology sweep: where the O(M^2) pairwise masking wall bites
  // and where the grouped-ring topology breaks it. Session-level secure-sum
  // rounds (no trainers): the sums are asserted bit-identical across
  // topologies, the mask counters are exact and deterministic, and only the
  // timings carry noise. grouped-auto uses groups of ceil(sqrt(M)) (~M^1.5
  // masks per round); grouped-g8 pins the group size to 8, making the mask
  // count strictly linear in M.
  {
    constexpr std::size_t kRounds = 3;
    constexpr std::size_t kDim = 32;
    std::printf(
        "\n## Topology sweep: per-round mask streams, pairwise vs "
        "grouped-ring (%zu secure-sum rounds, dim=%zu)\n",
        kRounds, kDim);
    std::printf("%5s %-13s %6s %8s %12s %12s %10s %10s\n", "M", "topology",
                "groups", "edges", "masks/round", "mask_bytes", "setup_s",
                "wall_s");
    obs::JsonValue sweep_topology = obs::JsonValue::array();
    for (std::size_t m : {64, 128, 256, 512}) {
      std::vector<double> pairwise_sum;
      const auto emit = [&](const char* label, const TopologyStats& s) {
        std::printf("%5zu %-13s %6zu %8zu %12lld %12zu %10.4f %10.4f\n", m,
                    label, s.groups, s.edges,
                    static_cast<long long>(s.masks_per_round),
                    s.mask_stream_bytes, s.setup_seconds, s.wall_seconds);
        sweep_topology.push(topology_row(m, label, s));
        if (s.max_abs_diff_vs_pairwise != 0.0) {
          std::fprintf(stderr,
                       "FATAL: %s sum differs from pairwise at M=%zu\n",
                       label, m);
          std::exit(1);
        }
      };
      emit("pairwise",
           run_topology_cell(m, crypto::AggregationTopology::kPairwise, 0,
                             kRounds, kDim, nullptr, &pairwise_sum));
      emit("grouped-auto",
           run_topology_cell(m, crypto::AggregationTopology::kGroupedRing, 0,
                             kRounds, kDim, &pairwise_sum, nullptr));
      emit("grouped-g8",
           run_topology_cell(m, crypto::AggregationTopology::kGroupedRing, 8,
                             kRounds, kDim, &pairwise_sum, nullptr));
    }
    report.set("sweep_topology", std::move(sweep_topology));
  }

  // SIMD microkernel head-to-head: scalar-pinned vs runtime-dispatched on
  // the dense primitives and on the Cholesky factor and solves. Outputs are
  // asserted bit-identical — only the wall time may move.
  {
    std::printf("\n## SIMD microkernels: scalar vs dispatched (gemm_nt + RBF "
                "gram, bit-identity enforced)\n");
    const SimdStats s = run_simd_cell();
    std::printf("%-8s %12s %14s %9s %14s\n", "isa", "scalar_s", "dispatch_s",
                "speedup", "max_abs_diff");
    std::printf("%-8s %12.4f %14.4f %8.2fx %14.1e\n", s.isa.c_str(),
                s.scalar_seconds, s.dispatch_seconds, s.speedup,
                s.max_abs_diff_vs_scalar);
    if (s.max_abs_diff_vs_scalar != 0.0) {
      std::fprintf(stderr,
                   "FATAL: dispatched microkernels differ from scalar\n");
      return 1;
    }
    std::printf("\n## Cholesky of I + rho*K: scalar vs dispatched (factor + "
                "40 solves, bit-identity enforced)\n");
    const FactorStats f = run_factor_cell();
    std::printf("%6s %16s %18s %16s %18s %12s\n", "n", "factor_scalar_s",
                "factor_dispatch_s", "solve40_scalar_s", "solve40_dispatch_s",
                "bits_differ");
    std::printf("%6zu %16.4f %18.4f %16.4f %18.4f %12zu\n", f.n,
                f.scalar_factor_seconds, f.dispatch_factor_seconds,
                f.scalar_solve40_seconds, f.dispatch_solve40_seconds,
                f.bits_differ);
    if (f.bits_differ != 0) {
      std::fprintf(stderr,
                   "FATAL: dispatched Cholesky differs from scalar in %zu "
                   "elements\n",
                   f.bits_differ);
      return 1;
    }
    obs::JsonValue simd = obs::JsonValue::object();
    simd.set("isa", s.isa);
    simd.set("scalar_seconds", s.scalar_seconds);
    simd.set("dispatch_seconds", s.dispatch_seconds);
    simd.set("speedup", s.speedup);
    simd.set("max_abs_diff_vs_scalar", s.max_abs_diff_vs_scalar);
    simd.set("cholesky_n", f.n);
    simd.set("cholesky_scalar_factor_seconds", f.scalar_factor_seconds);
    simd.set("cholesky_dispatch_factor_seconds", f.dispatch_factor_seconds);
    simd.set("cholesky_scalar_solve40_seconds", f.scalar_solve40_seconds);
    simd.set("cholesky_dispatch_solve40_seconds", f.dispatch_solve40_seconds);
    simd.set("cholesky_bits_differ_vs_scalar", f.bits_differ);
    report.set("simd", std::move(simd));
  }

  // HIGGS scale: the paper's headline n. One n=10^6 cluster job whose
  // shards are generated slice-by-slice, spilled to disk by a blockstore
  // budget far below their serialized size, and solved matrix-free.
  {
    constexpr std::size_t kHiggsRows = 1'000'000;
    constexpr std::size_t kHiggsLearners = 4;
    constexpr std::size_t kHiggsIterations = 3;
    constexpr std::size_t kHiggsQpSweeps = 30;
    constexpr std::size_t kHiggsBudget = 64ull << 20;  // 64 MiB
    std::printf(
        "\n## HIGGS scale: n=%zu, M=%zu, %zu iterations (out-of-core "
        "blockstore, %zu MiB budget, factored dual)\n",
        kHiggsRows, kHiggsLearners, kHiggsIterations, kHiggsBudget >> 20);
    const HiggsScaleStats s =
        run_higgs_scale(kHiggsRows, kHiggsLearners, kHiggsIterations,
                        kHiggsQpSweeps, kHiggsBudget);
    std::printf("%8s %10s %9s %12s %12s %10s %12s\n", "N", "wall_s",
                "accuracy", "spill_blks", "spill_bytes", "mmap_reads",
                "peak_rss");
    std::printf("%8zu %10.3f %8.1f%% %12zu %12zu %10zu %9zu MB\n", kHiggsRows,
                s.run.wall_seconds, s.run.accuracy * 100.0,
                s.spill.spilled_blocks, s.spill.spilled_bytes,
                s.spill.mapped_reads, s.peak_rss_bytes >> 20);
    obs::JsonValue row = obs::JsonValue::object();
    row.set("train_rows", kHiggsRows);
    row.set("learners", kHiggsLearners);
    row.set("iterations", kHiggsIterations);
    row.set("qp_max_sweeps", kHiggsQpSweeps);
    row.set("blockstore_budget_bytes", kHiggsBudget);
    row.set("wall_seconds", s.run.wall_seconds);
    row.set("network_seconds", s.run.network_seconds);
    row.set("bytes", s.run.bytes);
    row.set("messages", s.run.messages);
    row.set("accuracy", s.run.accuracy);
    row.set("spill_blocks", s.spill.spilled_blocks);
    row.set("spill_bytes", s.spill.spilled_bytes);
    row.set("spill_mapped_reads", s.spill.mapped_reads);
    row.set("peak_rss_bytes", s.peak_rss_bytes);
    row.set("isa", s.isa);
    report.set("higgs_scale", std::move(row));
  }

  // One extra instrumented run for per-phase medians. Kept out of the
  // sweeps above so their wall times keep measuring the disabled path.
  {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    {
      obs::Session session(&tracer, &metrics);
      run_job(cancer.split, 4, crypto::MaskVariant::kSeededMasks, kIterations);
    }
    report.set("phases_m4_seeded", obs::span_stats_json(tracer));
    report.set("metrics_m4_seeded", obs::metrics_json(metrics));
  }

  obs::write_json_file("BENCH_scalability.json", report);
  std::printf("\n# report written to BENCH_scalability.json\n");
  return 0;
}
