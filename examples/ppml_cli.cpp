// ppml_cli — train any of the paper's four privacy-preserving schemes from
// the command line, on a CSV/LIBSVM file or on the built-in synthetic
// datasets.
//
//   ppml_cli --scheme linear-h --data cancer --learners 4 --iterations 60
//   ppml_cli --scheme kernel-h --data my.csv --gamma 0.1 --landmarks 60
//   ppml_cli --scheme kernel-h --data my.csv --kernel poly --save model.txt
//   ppml_cli --scheme linear-v --data higgs --cluster   # simulated cluster
//   ppml_cli --scheme kernel-v --data cancer --serve 20000 --serve-batch 32
//
// Schemes: linear-h | kernel-h | linear-v | kernel-v.
//
// Vertical schemes can follow training with a secure prediction serving
// run (--serve N): test rows are replayed as an open-loop query stream
// through core::PredictionServer — micro-batched secure summation, token
// bucket admission, cross-batch kernel-row reuse (docs/serving.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster_trainers.h"
#include "core/prediction_server.h"
#include "data/generators.h"
#include "data/io.h"
#include "data/standardize.h"
#include "linalg/microkernel.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "svm/metrics.h"

using namespace ppml;

namespace {

struct CliOptions {
  std::string scheme = "linear-h";
  std::string data = "cancer";
  std::string kernel = "rbf";
  double gamma = 0.1;
  std::size_t learners = 4;
  std::size_t iterations = 60;
  double c = 50.0;
  double rho = 100.0;
  std::size_t landmarks = 50;
  double train_fraction = 0.5;
  std::uint64_t seed = 7;
  std::string mask_variant = "seeded";
  std::string agg_topology = "pairwise";
  std::size_t agg_group_size = 0;
  double async_quorum = 0.0;
  double async_deadline = 0.0;
  std::size_t max_staleness = 4;
  double stale_decay = 0.5;
  bool use_cluster = false;
  std::size_t serve = 0;  ///< 0 = no serving stage
  std::size_t serve_batch = 64;
  double serve_linger = 0.002;
  double serve_qps = 20000.0;
  double serve_rate = 0.0;
  std::size_t serve_clients = 4;
  std::size_t serve_cache = 128;
  std::optional<std::string> save_path;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> flight_recorder_path;
  std::optional<std::string> flight_dump_path;
  std::optional<std::string> party_report_path;
  std::optional<std::string> privacy_report_path;
};

void usage() {
  std::printf(
      "ppml_cli — privacy-preserving SVM training (ICDCS'15 reproduction)\n"
      "  --scheme  linear-h|kernel-h|linear-v|kernel-v   (default linear-h)\n"
      "  --data    cancer|higgs|ocr|<path.csv>|<path.libsvm>\n"
      "  --learners M       number of collaborating parties (default 4)\n"
      "  --iterations T     ADMM rounds (default 60)\n"
      "  --c C --rho RHO    SVM slack / ADMM penalty (defaults 50 / 100)\n"
      "  --kernel rbf|poly|sigmoid|linear --gamma G --landmarks L\n"
      "  --split F          train fraction (default 0.5)\n"
      "  --seed S           partition/protocol seed\n"
      "  --mask-variant seeded|exchanged   secure-sum masking (default "
      "seeded)\n"
      "  --agg-topology pairwise|grouped-ring   secure-sum edge set\n"
      "                     (default pairwise; grouped-ring masks inside\n"
      "                     ~sqrt(M) groups + a leader ring — same sums,\n"
      "                     ~linear mask work; seeded variant only)\n"
      "  --agg-group-size G grouped-ring group size (0 = auto ceil(sqrt(M)))\n"
      "  --cluster          run as a simulated MapReduce job\n"
      "  --async-quorum F   0 = synchronous rounds (default). In (0, 1]:\n"
      "                     bounded-staleness async rounds that close once\n"
      "                     ceil(F x M) parties delivered a fresh step\n"
      "  --async-deadline D per-round deadline in nominal step times\n"
      "                     (async only; 0 = wait for the quorum)\n"
      "  --max-staleness K  carried values older than K rounds drop the\n"
      "                     party into Shamir recovery (default 4)\n"
      "  --stale-decay B    geometric stale-weight base in (0, 1]\n"
      "  --serve N          after training a VERTICAL scheme, serve N\n"
      "                     secure prediction queries (test rows replayed\n"
      "                     as an open-loop stream, docs/serving.md)\n"
      "  --serve-batch B    micro-batch size (default 64)\n"
      "  --serve-linger S   max linger before a partial flush, virtual\n"
      "                     seconds (default 0.002)\n"
      "  --serve-qps R      offered arrival rate, virtual qps (default 20000)\n"
      "  --serve-rate R     per-client admitted qps, 0 = no admission\n"
      "                     control (default 0)\n"
      "  --serve-clients K  simulated clients (default 4)\n"
      "  --serve-cache S    score-cache query slots, kernel-v only\n"
      "                     (default 128, 0 disables)\n"
      "  --save PATH        write the trained model (horizontal schemes)\n"
      "  --trace PATH       write a Chrome trace_event JSON (open in Perfetto)\n"
      "  --metrics PATH     write run metrics as CSV\n"
      "  --flight-recorder PATH  keep a flight-recorder ring; dump it to\n"
      "                     PATH on watchdog trips, check failures, fatal\n"
      "                     errors and at run end\n"
      "  --flight-dump PATH      write the flight-recorder ring to PATH at\n"
      "                     run end, on demand (unlike --flight-recorder it\n"
      "                     needs no trip to fire)\n"
      "  --party-report PATH     write the per-party rollup JSON\n"
      "  --privacy-report PATH   write the privacy audit ledger JSON: pads,\n"
      "                     Shamir exposure, masked-vs-cleartext leakage,\n"
      "                     reconciled against the crypto.* counters\n");
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--cluster") {
      options.use_cluster = true;
      continue;
    }
    const char* value = need_value();
    if (value == nullptr) return false;
    try {
      if (flag == "--scheme") options.scheme = value;
      else if (flag == "--data") options.data = value;
      else if (flag == "--kernel") options.kernel = value;
      else if (flag == "--gamma") options.gamma = std::stod(value);
      else if (flag == "--learners") options.learners = std::stoul(value);
      else if (flag == "--iterations") options.iterations = std::stoul(value);
      else if (flag == "--c") options.c = std::stod(value);
      else if (flag == "--rho") options.rho = std::stod(value);
      else if (flag == "--landmarks") options.landmarks = std::stoul(value);
      else if (flag == "--split") options.train_fraction = std::stod(value);
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--mask-variant") options.mask_variant = value;
      else if (flag == "--agg-topology") options.agg_topology = value;
      else if (flag == "--agg-group-size")
        options.agg_group_size = std::stoul(value);
      else if (flag == "--async-quorum") options.async_quorum = std::stod(value);
      else if (flag == "--async-deadline")
        options.async_deadline = std::stod(value);
      else if (flag == "--max-staleness")
        options.max_staleness = std::stoul(value);
      else if (flag == "--stale-decay") options.stale_decay = std::stod(value);
      else if (flag == "--serve") options.serve = std::stoul(value);
      else if (flag == "--serve-batch") options.serve_batch = std::stoul(value);
      else if (flag == "--serve-linger")
        options.serve_linger = std::stod(value);
      else if (flag == "--serve-qps") options.serve_qps = std::stod(value);
      else if (flag == "--serve-rate") options.serve_rate = std::stod(value);
      else if (flag == "--serve-clients")
        options.serve_clients = std::stoul(value);
      else if (flag == "--serve-cache") options.serve_cache = std::stoul(value);
      else if (flag == "--save") options.save_path = value;
      else if (flag == "--trace") options.trace_path = value;
      else if (flag == "--metrics") options.metrics_path = value;
      else if (flag == "--flight-recorder") options.flight_recorder_path = value;
      else if (flag == "--flight-dump") options.flight_dump_path = value;
      else if (flag == "--party-report") options.party_report_path = value;
      else if (flag == "--privacy-report") options.privacy_report_path = value;
      else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value, flag.c_str());
      return false;
    }
  }
  return true;
}

data::Dataset load_data(const CliOptions& options) {
  if (options.data == "cancer") return data::make_cancer_like(options.seed);
  if (options.data == "higgs") return data::make_higgs_like(options.seed, 4000);
  if (options.data == "ocr") return data::make_ocr_like(options.seed, 2400);
  if (options.data.size() > 4 &&
      options.data.substr(options.data.size() - 4) == ".csv")
    return data::load_csv_file(options.data);
  return data::load_libsvm_file(options.data);
}

svm::Kernel make_kernel(const CliOptions& options) {
  switch (svm::parse_kernel_type(options.kernel)) {
    case svm::KernelType::kLinear:
      return svm::Kernel::linear();
    case svm::KernelType::kRbf:
      return svm::Kernel::rbf(options.gamma);
    case svm::KernelType::kPolynomial:
      return svm::Kernel::polynomial(3, options.gamma, 1.0);
    case svm::KernelType::kSigmoid:
      return svm::Kernel::sigmoid(options.gamma, 0.0);
  }
  throw InvalidArgument("unreachable");
}

void report(const char* what, double accuracy, std::size_t rounds) {
  std::printf("%s: accuracy %.2f%% after %zu rounds\n", what,
              accuracy * 100.0, rounds);
}

void report_run(const core::ConsensusRunResult& run) {
  if (run.watchdog_tripped)
    std::printf("watchdog: tripped (%s)\n", run.watchdog_reason.c_str());
  if (run.async_seconds > 0.0 || run.deadline_expirations > 0 ||
      run.staleness_drops > 0) {
    std::printf(
        "async: %.3f simulated s, %zu deadline expirations, %zu staleness "
        "drops\n",
        run.async_seconds, run.deadline_expirations, run.staleness_drops);
  }
}

/// The CLI's serving stage: replay test rows as an open-loop stream through
/// PredictionServer and report the latency/throughput/admission picture.
template <typename ModelView>
void run_serving(const ModelView& model, const core::AdmmParams& params,
                 const CliOptions& options, const linalg::Matrix& x) {
  core::ServingConfig config;
  config.max_batch = options.serve_batch;
  config.max_linger = options.serve_linger;
  config.client_rate = options.serve_rate;
  config.cache_slots = options.serve_cache;
  core::PredictionServer server(model, params, config);

  const double dt = 1.0 / options.serve_qps;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < options.serve; ++i) {
    const double now = static_cast<double>(i) * dt;
    server.advance(now);
    server.submit(i % options.serve_clients, x.row(i % x.rows()), now);
  }
  server.drain(static_cast<double>(options.serve) * dt);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto results = server.take_results();
  std::vector<double> latency;
  latency.reserve(results.size());
  std::size_t positive = 0;
  for (const auto& r : results) {
    latency.push_back(r.serve_time - r.submit_time + r.compute_seconds);
    if (r.decision_value >= 0.0) ++positive;
  }
  std::sort(latency.begin(), latency.end());
  const auto quantile_ms = [&](double q) {
    if (latency.empty()) return 0.0;
    return latency[static_cast<std::size_t>(
               q * static_cast<double>(latency.size() - 1))] *
           1e3;
  };

  const auto& s = server.stats();
  std::printf(
      "serve: %zu queries -> %zu served / %zu shed (rate %zu, queue %zu)\n",
      s.submitted, s.served, s.shed_rate + s.shed_queue, s.shed_rate,
      s.shed_queue);
  std::printf(
      "serve: %zu batches, mean occupancy %.1f (%zu full / %zu linger / %zu "
      "drain flushes)\n",
      s.batches, s.mean_occupancy(), s.full_flushes, s.linger_flushes,
      s.drain_flushes);
  std::printf("serve: %.0f qps real, latency p50 %.3f / p95 %.3f / p99 %.3f "
              "ms (virtual wait + batch compute)\n",
              wall == 0.0 ? 0.0 : static_cast<double>(s.served) / wall,
              quantile_ms(0.50), quantile_ms(0.95), quantile_ms(0.99));
  if (server.is_kernel() && options.serve_cache > 0)
    std::printf("serve: score cache hit rate %.4f (%lld hits, %zu "
                "bypassed queries)\n",
                server.cache_hit_rate(),
                static_cast<long long>(server.cache_hits()), s.cache_bypass);
  if (!results.empty())
    std::printf("serve: %.1f%% of served queries classified +1\n",
                100.0 * static_cast<double>(positive) /
                    static_cast<double>(results.size()));
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 1;
  }

  try {
    auto split = data::train_test_split(load_data(options),
                                        options.train_fraction, options.seed);
    data::StandardScaler scaler;
    scaler.fit_transform(split);
    std::printf("data: %zu train / %zu test rows, %zu features, %zu learners\n",
                split.train.size(), split.test.size(),
                split.train.features(), options.learners);

    core::AdmmParams params;
    params.c = options.c;
    params.rho = options.rho;
    params.max_iterations = options.iterations;
    params.landmarks = options.landmarks;
    params.seed = options.seed;
    params.async_quorum_fraction = options.async_quorum;
    params.async_round_deadline = options.async_deadline;
    params.max_staleness = options.max_staleness;
    params.stale_decay = options.stale_decay;
    if (options.mask_variant == "exchanged") {
      params.mask_variant = crypto::MaskVariant::kExchangedMasks;
    } else if (options.mask_variant != "seeded") {
      std::fprintf(stderr, "unknown --mask-variant %s\n",
                   options.mask_variant.c_str());
      return 2;
    }
    if (options.agg_topology == "grouped-ring") {
      params.agg_topology = crypto::AggregationTopology::kGroupedRing;
    } else if (options.agg_topology != "pairwise") {
      std::fprintf(stderr, "unknown --agg-topology %s\n",
                   options.agg_topology.c_str());
      return 2;
    }
    params.agg_group_size = options.agg_group_size;

    const auto save_linear = [&](const svm::LinearModel& model) {
      if (!options.save_path) return;
      std::ofstream out(*options.save_path);
      model.save(out);
      std::printf("model written to %s\n", options.save_path->c_str());
    };
    const auto save_kernel = [&](const svm::KernelModel& model) {
      if (!options.save_path) return;
      std::ofstream out(*options.save_path);
      model.save(out);
      std::printf("model written to %s\n", options.save_path->c_str());
    };

    mapreduce::ClusterConfig cluster_config;
    cluster_config.num_nodes = options.learners + 1;

    // Observability session around the whole training run. The root "run"
    // span must close before export, hence the scope below. Any obs flag
    // installs the full session (trace + metrics + flight recorder) —
    // the party report needs spans AND counter shards, and the recorder
    // is the only half that pays off precisely when the run dies early.
    const bool observe = options.trace_path || options.metrics_path ||
                         options.flight_recorder_path ||
                         options.flight_dump_path ||
                         options.party_report_path ||
                         options.privacy_report_path;
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::PrivacyLedger ledger;
    if (options.flight_recorder_path)
      recorder.arm_auto_dump(*options.flight_recorder_path);
    try {
    std::optional<obs::Session> session;
    if (observe) session.emplace(&tracer, &metrics, &recorder, &ledger);
    obs::Span run_span("run", "cli");

    // One-line ISA attribution (PPML_FORCE_ISA=scalar|avx2|avx512 overrides
    // the cpuid probe): timings in --metrics output are meaningless without
    // knowing which level served the microkernels and the mask keystream.
    std::printf("simd isa: %s\n", linalg::active_isa_name());

    if (options.serve > 0 && options.scheme != "linear-v" &&
        options.scheme != "kernel-v") {
      std::fprintf(stderr,
                   "--serve needs a vertical scheme (linear-v | kernel-v): "
                   "serving runs the vertical secure prediction protocol\n");
      return 2;
    }

    if (options.scheme == "linear-h") {
      const auto partition = data::partition_horizontally(
          split.train, options.learners, options.seed);
      if (options.use_cluster) {
        mapreduce::Cluster cluster(cluster_config);
        const auto result = core::train_linear_horizontal_on_cluster(
            cluster, partition, params);
        report("linear-h (cluster)",
               svm::accuracy(result.model.predict_all(split.test.x),
                             split.test.y),
               result.cluster.job.rounds);
        report_run(result.cluster.run);
        const auto totals = cluster.network().totals();
        std::printf("network: %zu messages, %zu bytes, %.4f simulated s\n",
                    totals.messages, totals.bytes,
                    result.cluster.job.simulated_network_seconds);
        save_linear(result.model);
      } else {
        const auto result =
            core::train_linear_horizontal(partition, params, &split.test);
        report("linear-h", result.trace.final_accuracy(),
               result.run.iterations);
        report_run(result.run);
        save_linear(result.model);
      }
    } else if (options.scheme == "kernel-h") {
      const auto partition = data::partition_horizontally(
          split.train, options.learners, options.seed);
      const svm::Kernel kernel = make_kernel(options);
      if (options.use_cluster) {
        mapreduce::Cluster cluster(cluster_config);
        const auto result = core::train_kernel_horizontal_on_cluster(
            cluster, partition, kernel, params);
        report("kernel-h (cluster)",
               svm::accuracy(result.model.predict_all(split.test.x),
                             split.test.y),
               result.cluster.job.rounds);
        report_run(result.cluster.run);
        save_kernel(result.model);
      } else {
        const auto result = core::train_kernel_horizontal(partition, kernel,
                                                          params, &split.test);
        report("kernel-h", result.trace.final_accuracy(),
               result.run.iterations);
        report_run(result.run);
        save_kernel(result.model);
      }
    } else if (options.scheme == "linear-v") {
      const auto partition = data::partition_vertically(
          split.train, options.learners, options.seed);
      if (options.use_cluster) {
        mapreduce::Cluster cluster(cluster_config);
        const auto result =
            core::train_linear_vertical_on_cluster(cluster, partition, params);
        report("linear-v (cluster)",
               svm::accuracy(result.model.predict_all(split.test.x),
                             split.test.y),
               result.cluster.job.rounds);
        report_run(result.cluster.run);
        if (options.serve > 0)
          run_serving(result.model, params, options, split.test.x);
      } else {
        const auto result =
            core::train_linear_vertical(partition, params, &split.test);
        report("linear-v", result.trace.final_accuracy(),
               result.run.iterations);
        report_run(result.run);
        if (options.serve > 0)
          run_serving(result.model, params, options, split.test.x);
      }
    } else if (options.scheme == "kernel-v") {
      const auto partition = data::partition_vertically(
          split.train, options.learners, options.seed);
      const svm::Kernel kernel = make_kernel(options);
      if (options.use_cluster) {
        mapreduce::Cluster cluster(cluster_config);
        const auto result = core::train_kernel_vertical_on_cluster(
            cluster, partition, kernel, params);
        report("kernel-v (cluster)",
               svm::accuracy(result.model.predict_all(split.test.x),
                             split.test.y),
               result.cluster.job.rounds);
        report_run(result.cluster.run);
        if (options.serve > 0)
          run_serving(result.model, params, options, split.test.x);
      } else {
        const auto result = core::train_kernel_vertical(partition, kernel,
                                                        params, &split.test);
        report("kernel-v", result.trace.final_accuracy(),
               result.run.iterations);
        report_run(result.run);
        if (options.serve > 0)
          run_serving(result.model, params, options, split.test.x);
      }
    } else {
      std::fprintf(stderr, "unknown scheme '%s'\n", options.scheme.c_str());
      usage();
      return 1;
    }

    // Land the process high-water mark in the metrics while the session is
    // still installed, so `--metrics` runs record peak RSS next to the
    // training counters.
    obs::gauge_process_peak_rss();
    } catch (const std::exception&) {
      // The run died: preserve the ring's last moments (the armed path)
      // before the outer handler turns this into an exit code. PPML_CHECK
      // failures already dumped via the install-time hook; this catches
      // JobError and friends.
      recorder.dump_now("exception");
      throw;
    }

    if (options.trace_path) {
      std::ofstream out(*options.trace_path);
      tracer.write_chrome_trace(out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     options.trace_path->c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu spans — open in ui.perfetto.dev)\n",
                  options.trace_path->c_str(), tracer.span_count());
    }
    if (options.metrics_path) {
      std::ofstream out(*options.metrics_path);
      metrics.write_csv(out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     options.metrics_path->c_str());
        return 1;
      }
      std::printf("metrics written to %s\n", options.metrics_path->c_str());
    }
    if (options.flight_recorder_path) {
      if (recorder.dump_now("run_complete"))
        std::printf("flight recorder written to %s (%llu events recorded)\n",
                    options.flight_recorder_path->c_str(),
                    static_cast<unsigned long long>(recorder.recorded()));
    }
    if (options.flight_dump_path) {
      std::ofstream out(*options.flight_dump_path);
      recorder.dump_json(out, "on_demand");
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     options.flight_dump_path->c_str());
        return 1;
      }
      std::printf("flight dump written to %s (%llu events recorded)\n",
                  options.flight_dump_path->c_str(),
                  static_cast<unsigned long long>(recorder.recorded()));
    }
    if (options.party_report_path) {
      obs::write_json_file(*options.party_report_path,
                           obs::party_report_json(tracer, metrics));
      std::printf("party report written to %s\n",
                  options.party_report_path->c_str());
    }
    if (options.privacy_report_path) {
      const obs::JsonValue report = obs::privacy_report_json(ledger, &metrics);
      obs::write_json_file(*options.privacy_report_path, report);
      std::printf("privacy report written to %s (%s)\n",
                  options.privacy_report_path->c_str(),
                  obs::privacy_reconciled(ledger, &metrics)
                      ? "reconciled with crypto.* counters"
                      : "RECONCILIATION MISMATCH — see report");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
