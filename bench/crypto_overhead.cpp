// Ablation X1: cost of privacy at the Reducer (google-benchmark).
//
// The paper's core efficiency argument is that a few symmetric-crypto
// operations at Reduce() are cheap, whereas SMC-style public-key
// approaches pay per-value asymmetric costs. This bench quantifies that
// gap on the exact summation task the Reducer performs:
//   - plaintext sum (no privacy, lower bound)
//   - the paper's masking protocol (mask generation + ring sum + decode)
//   - Paillier encrypt+add+decrypt (toy 48-bit modulus — real deployments
//     use 2048-bit+, so the measured gap is a LOWER bound on the real one)
//
// Plus the privacy-ledger guardrail cell (runs after the gbench suite, or
// alone with --benchmark_filter='^$'): an M=16 seeded consensus-style run
// timed ledger-off vs ledger-on, written to BENCH_crypto.json and gated by
// scripts/bench_check.py — the ledger's per-pad accounting must stay under
// a few percent of the masking work it audits, with bit-identical sums.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "crypto/paillier.h"
#include "crypto/secure_sum_session.h"
#include "obs/obs.h"
#include "obs/report.h"

using namespace ppml;

namespace {

constexpr std::size_t kParties = 4;

std::vector<std::vector<double>> party_values(std::size_t dim) {
  std::vector<std::vector<double>> values(kParties,
                                          std::vector<double>(dim));
  crypto::Xoshiro256 rng(7);
  for (auto& v : values)
    for (double& x : v) x = rng.next_double() * 10.0 - 5.0;
  return values;
}

void BM_PlaintextSum(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const auto values = party_values(dim);
  for (auto _ : state) {
    std::vector<double> sum(dim, 0.0);
    for (const auto& v : values)
      for (std::size_t j = 0; j < dim; ++j) sum[j] += v[j];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim * kParties));
}
BENCHMARK(BM_PlaintextSum)->Arg(16)->Arg(256)->Arg(4096);

void BM_SecureSumSeededMasks(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const auto values = party_values(dim);
  crypto::SecureSumConfig config;
  config.num_parties = kParties;
  config.protocol_seed = 5;
  crypto::SecureSumSession session(config);
  const std::vector<crypto::SecureSumSession::Tensor> tensors(values.begin(),
                                                              values.end());
  std::size_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.average_once(tensors, round));
    ++round;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim * kParties));
}
BENCHMARK(BM_SecureSumSeededMasks)->Arg(16)->Arg(256)->Arg(4096);

void BM_SecureSumExchangedMasks(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const auto values = party_values(dim);
  const crypto::FixedPointCodec codec(20, kParties);
  std::size_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::secure_average(
        values, codec, 9, crypto::MaskVariant::kExchangedMasks, round));
    ++round;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim * kParties));
}
BENCHMARK(BM_SecureSumExchangedMasks)->Arg(16)->Arg(256)->Arg(4096);

void BM_PaillierSum(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const auto values = party_values(dim);
  crypto::Xoshiro256 rng(11);
  const auto keys = crypto::paillier_keygen(24, rng);
  const crypto::FixedPointCodec codec(10, kParties);
  for (auto _ : state) {
    std::vector<std::uint64_t> decoded(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      crypto::u128 acc = crypto::paillier_encrypt(keys.public_key, 0, rng);
      for (std::size_t i = 0; i < kParties; ++i) {
        // Encode each real into the plaintext space (scaled, offset).
        const std::uint64_t m = crypto::paillier_encode_signed(
            keys.public_key,
            static_cast<std::int64_t>(values[i][j] * 1024.0));
        acc = crypto::paillier_add(
            keys.public_key, acc,
            crypto::paillier_encrypt(keys.public_key, m, rng));
      }
      decoded[j] =
          crypto::paillier_decrypt(keys.public_key, keys.private_key, acc);
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim * kParties));
}
BENCHMARK(BM_PaillierSum)->Arg(16)->Arg(256);

void BM_DhKeyAgreement(benchmark::State& state) {
  const std::size_t parties = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::agree_pairwise_seeds(parties, seed++));
  }
}
BENCHMARK(BM_DhKeyAgreement)->Arg(4)->Arg(16)->Arg(128);

// ------------------------------------------------- ledger guardrail cell

constexpr std::size_t kLedgerParties = 16;
constexpr std::size_t kLedgerDim = 2048;
// 96 rounds make one arm last ~0.14 s on a 4-vCPU AVX-512 Xeon (12 rounds
// lasted ~17 ms there, short enough for host noise to exceed the budget).
constexpr std::size_t kLedgerRounds = 96;
constexpr std::size_t kLedgerPairs = 121;
constexpr double kLedgerBudgetPct = 3.0;

/// One consensus-style run: every party contributes a batched masked vector
/// per round, the reducer averages. Returns (wall seconds, final average).
std::pair<double, std::vector<double>> consensus_run(
    crypto::SecureSumSession& session,
    const std::vector<std::vector<double>>& values) {
  const std::vector<std::size_t> everyone = [] {
    std::vector<std::size_t> ids(kLedgerParties);
    for (std::size_t i = 0; i < kLedgerParties; ++i) ids[i] = i;
    return ids;
  }();
  std::vector<std::vector<std::uint64_t>> contributions(kLedgerParties);
  std::vector<double> average;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < kLedgerRounds; ++round) {
    for (std::size_t i = 0; i < kLedgerParties; ++i) {
      const std::vector<crypto::SecureSumSession::Tensor> tensors{
          crypto::SecureSumSession::Tensor(values[i])};
      contributions[i] = session.contribute(i, tensors, round, everyone);
    }
    average = session.reduce_average(round, everyone, everyone, contributions);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {wall, std::move(average)};
}

double median(std::vector<double> xs) {
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  return xs[mid];
}

int run_ledger_overhead_cell() {
  std::vector<std::vector<double>> values(kLedgerParties,
                                          std::vector<double>(kLedgerDim));
  crypto::Xoshiro256 rng(13);
  for (auto& v : values)
    for (double& x : v) x = rng.next_double() * 10.0 - 5.0;

  crypto::SecureSumConfig config;
  config.num_parties = kLedgerParties;
  config.protocol_seed = 0x1ED6E5;

  // Paired estimator: each pair runs both arms back to back, alternating
  // which goes first, so drift over the run and any order effect cancel
  // within a pair; the median of the per-pair ratios over many pairs
  // discards the pairs in which a burst of host noise hit one arm only.
  std::vector<double> off_walls, on_walls, ratios;
  std::vector<double> off_sum, on_sum;
  std::uint64_t pads_recorded = 0, pads_distinct = 0;
  const auto run_off = [&] {
    crypto::SecureSumSession session(config);
    auto [wall, average] = consensus_run(session, values);
    off_walls.push_back(wall);
    off_sum = std::move(average);
  };
  for (std::size_t pair = 0; pair < kLedgerPairs; ++pair) {
    if (pair % 2 == 0) run_off();
    {
      obs::PrivacyLedger ledger;
      obs::Session obs_session(nullptr, nullptr, nullptr, &ledger);
      crypto::SecureSumSession session(config);
      auto [wall, average] = consensus_run(session, values);
      on_walls.push_back(wall);
      on_sum = std::move(average);
      const auto snap = ledger.snapshot();
      pads_recorded = snap.pads_recorded;
      pads_distinct = snap.pads_distinct;
      if (!snap.violations.empty()) {
        std::fprintf(stderr, "ledger cell: unexpected violation recorded\n");
        return 1;
      }
    }
    if (pair % 2 == 1) run_off();
    ratios.push_back(on_walls.back() / off_walls.back());
  }

  const bool bit_identical = off_sum == on_sum;
  const double off_wall = median(off_walls);
  const double on_wall = median(on_walls);
  const double overhead_pct = (median(ratios) - 1.0) * 100.0;

  std::printf("\n# privacy ledger cell: M=%zu dim=%zu rounds=%zu pairs=%zu\n",
              kLedgerParties, kLedgerDim, kLedgerRounds, kLedgerPairs);
  std::printf("# ledger off %.4fs, on %.4fs (medians) -> overhead %.2f%% "
              "(median paired ratio, budget %.1f%%), bit_identical=%d\n",
              off_wall, on_wall, overhead_pct, kLedgerBudgetPct,
              bit_identical ? 1 : 0);

  obs::JsonValue cell = obs::JsonValue::object();
  cell.set("parties", kLedgerParties);
  cell.set("dim", kLedgerDim);
  cell.set("rounds", kLedgerRounds);
  cell.set("ledger_off_wall_s", off_wall);
  cell.set("ledger_on_wall_s", on_wall);
  cell.set("ledger_overhead_pct", overhead_pct);
  cell.set("bit_identical", bit_identical);
  cell.set("pads_recorded", pads_recorded);
  cell.set("pads_distinct", pads_distinct);
  obs::JsonValue report = obs::JsonValue::object();
  report.set("ledger_overhead", std::move(cell));
  obs::JsonValue root = obs::JsonValue::object();
  root.set("crypto_overhead", std::move(report));
  obs::write_json_file("BENCH_crypto.json", root);
  std::printf("# report written to BENCH_crypto.json\n");

  if (!bit_identical) {
    std::fprintf(stderr,
                 "ledger cell: sums differ ledger-on vs ledger-off\n");
    return 1;
  }
  if (overhead_pct > kLedgerBudgetPct) {
    std::fprintf(stderr, "ledger cell: overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kLedgerBudgetPct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return run_ledger_overhead_cell();
}
