#!/usr/bin/env bash
# Tier-1 verification: configure + build, the fast `tier1`-labelled unit
# suites first (fail fast — a broken codec or consensus engine should stop
# the run before the integration and sanitizer stages spin up), then the
# full test suite, then the fault-tolerance-, observability- and
# cache-critical suites again under AddressSanitizer +
# UndefinedBehaviorSanitizer (the chaos, tracing, kernel-cache,
# threaded-gemm, consensus-engine and decoder-fuzz paths exercise threads,
# retries, spans into LRU-managed storage, ring arithmetic and hostile
# lengths — exactly where ASan/UBSan earn their keep), the race-clean
# suites under ThreadSanitizer (build-tsan/), bench smoke runs that check
# BENCH_qp.json and a reduced-load BENCH_serving.json are well-formed (no
# performance gating),
# a bench regression gate that diffs BENCH_fig4.json /
# BENCH_scalability.json / BENCH_qp.json / BENCH_async.json /
# BENCH_serving.json / BENCH_crypto.json against bench/baselines/ via
# scripts/bench_check.py, then the doc link check.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
# The tier1 label includes data_alloc_test and fabric_alloc_test, which
# count heap allocations through a replaced global operator new; they run
# in this unsanitized build only (a sanitizer's allocator would count its
# own). fabric_alloc_test holds a steady linear-vertical fabric round to
# at most M + 2 allocations of 64 KiB or more.
ctest --test-dir build --output-on-failure -j"$jobs" -L tier1
ctest --test-dir build --output-on-failure -j"$jobs" -LE tier1

cmake -B build-asan -S . -DPPML_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$jobs" --target mapreduce_test chaos_test \
  dropout_recovery_test obs_test qp_test linalg_test microkernel_test \
  consensus_engine_test async_consensus_test grouped_ring_test serving_test \
  privacy_ledger_test crypto_test serde_fuzz_test property_test \
  core_vertical_test core_horizontal_test edge_cases_test \
  cluster_integration_test data_test
# mapreduce_test covers the out-of-core blockstore: spill/mmap/LRU paths
# hand out spans into unlinked mapped files — ASan watches the lifetimes.
./build-asan/tests/mapreduce_test
# serde_fuzz_test feeds mutated frames, shards and model files to every
# decoder: hostile lengths against the bulk memcpy reads are exactly where
# an out-of-bounds copy would hide. property_test round-trips random
# payloads through the same reader.
./build-asan/tests/serde_fuzz_test
./build-asan/tests/property_test
./build-asan/tests/chaos_test
./build-asan/tests/dropout_recovery_test
./build-asan/tests/obs_test
./build-asan/tests/qp_test
./build-asan/tests/linalg_test
# Again pinned to the scalar table, so both dispatch entries of the
# Cholesky rank-update primitive run under the sanitizers.
PPML_FORCE_ISA=scalar ./build-asan/tests/linalg_test
# SIMD microkernels under ASan/UBSan, once dispatched and once pinned to
# the scalar table: tail-lane loads at awkward shapes and the cpuid/env
# dispatcher are exactly where out-of-bounds reads would hide.
./build-asan/tests/microkernel_test
PPML_FORCE_ISA=scalar ./build-asan/tests/microkernel_test
# core_vertical_test's kernel learner keeps K below the diagonal of its
# Cholesky buffer and U above it; the in-place factor and the half-matrix
# c = K alpha product index both triangles of one buffer. Run it dispatched
# and pinned to the scalar table.
./build-asan/tests/core_vertical_test
PPML_FORCE_ISA=scalar ./build-asan/tests/core_vertical_test
# core_horizontal_test streams kernel-horizontal's landmark and shard rows
# through the deferred test trace (kernel_row into a rank_update over the
# coefficient history), the same path kv's trace takes. Dispatched and
# pinned to the scalar table.
./build-asan/tests/core_horizontal_test
PPML_FORCE_ISA=scalar ./build-asan/tests/core_horizontal_test
# edge_cases_test hands every full-row consumer (vertical trainers, model
# views, secure prediction) a feature matrix narrower than the partition:
# each must throw before it reads a column that is not there.
./build-asan/tests/edge_cases_test
# data_test pins shuffle_rows, which permutes rows in place by walking the
# cycles of its permutation with one spare row, and the split that gathers
# both sides straight from its input: index arithmetic over one buffer.
./build-asan/tests/data_test
./build-asan/tests/consensus_engine_test
./build-asan/tests/async_consensus_test
# The whole cluster suite, scheme matrix included (every scheme, in memory
# and on the fabric, at every ISA level, untraced and under a full obs
# session, against one golden digest per scheme). The driver recycles its
# frame buffers and hands mappers and the reducer views into received
# frames, so a frame released too early would be a use after free here;
# chaos_test, mapreduce_test and dropout_recovery_test above take the
# same frames through drops, duplicates, corruption, crashes and rejoins.
./build-asan/tests/cluster_integration_test
./build-asan/tests/grouped_ring_test
# serving_test drives spans and flows into deque-managed storage while
# batches read back cached per-slot scores — prime ASan territory.
./build-asan/tests/serving_test
# privacy_ledger_test injects pad replay and Shamir over-exposure: the
# ledger's lock-free slot table and the check-failure flight dump run under
# ASan/UBSan exactly where a racy or out-of-bounds probe would hide.
./build-asan/tests/privacy_ledger_test
# crypto_test drives the u128 modular arithmetic (single-multiply mulmod
# below 2^64, bit-serial above) against in-test oracles — UBSan watches
# the wide shifts and products. It runs dispatched, pinned to avx2 and
# pinned to the scalar table, so the 16-block AVX-512 keystream's (on
# AVX-512 hosts) and the 8-block AVX2 keystream's unaligned stores into
# fill()'s output, and the codec's masked tail loads, run under ASan next
# to the scalar reference.
./build-asan/tests/crypto_test
PPML_FORCE_ISA=avx2 ./build-asan/tests/crypto_test
PPML_FORCE_ISA=scalar ./build-asan/tests/crypto_test

# ThreadSanitizer over the suites that are race-clean today: the metrics
# registry and flight ring (obs), the executor and fabric under faults
# (chaos, mapreduce), the ledger's lock-free slot table, threaded gemm,
# the prediction server's batcher and admission queue (serving), the
# consensus engine's local steps on the one worker pool, sync and async
# (consensus_engine, async_consensus), and the whole cluster suite, whose
# kh cells also run learner setup on that pool (cluster_integration). The
# fabric's recycled frames are written by map tasks on executor threads
# and read and released by the driver: chaos, mapreduce, dropout_recovery
# and cluster_integration take them through every fault path.
cmake -B build-tsan -S . -DPPML_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$jobs" --target obs_test chaos_test \
  mapreduce_test privacy_ledger_test linalg_test serving_test \
  async_consensus_test consensus_engine_test cluster_integration_test \
  dropout_recovery_test
./build-tsan/tests/obs_test
./build-tsan/tests/chaos_test
./build-tsan/tests/mapreduce_test
./build-tsan/tests/dropout_recovery_test
./build-tsan/tests/privacy_ledger_test
./build-tsan/tests/linalg_test
./build-tsan/tests/serving_test
./build-tsan/tests/async_consensus_test
./build-tsan/tests/consensus_engine_test
./build-tsan/tests/cluster_integration_test

# Bench smoke: skip the timed google-benchmark cases (empty filter), run
# only the cache-budget sweep, and require a parseable report with the
# expected shape. Timings are NOT gated — this guards the harness, not
# the numbers.
(cd build && ./bench/qp_solvers --benchmark_filter='^$' >/dev/null)
python3 - <<'PYEOF'
import json
report = json.load(open("build/BENCH_qp.json"))
assert report["bench"] == "qp_solvers", report
for size in report["cache_sweep"]:
    modes = {m["mode"] for m in size["modes"]}
    assert {"dense", "cache_full", "cache_25pct", "cache_min"} <= modes, modes
    for m in size["modes"]:
        if "max_abs_diff_vs_dense" in m:
            assert m["max_abs_diff_vs_dense"] == 0.0, m
assert report["diagonal"]["x_differs_vs_serial"] == 0, report["diagonal"]
print("bench smoke: BENCH_qp.json OK")
PYEOF

# Serving smoke: reduced query count, shape + invariants only (the real
# load level runs in the regression gate below and overwrites this file).
(cd build && ./bench/serving --queries 2000 >/dev/null)
python3 - <<'PYEOF'
import json
report = json.load(open("build/BENCH_serving.json"))
assert report["bench"] == "serving", report
assert len(report["linear_batch_sweep"]) == 3
for row in report["linear_batch_sweep"]:
    assert row["served"] == report["queries"], row
    assert row["p99_latency_s"] > 0.0, row
cache = report["kernel_cache"]
assert cache["cache_hit_rate"] > 0.5, cache
overload = report["overload"]
assert overload["shed_rate"] > 0, overload
assert overload["served"] + overload["shed_rate"] + overload["shed_queue"] \
    == overload["submitted"], overload
assert report["counters_instrumented"]["serve.admission.queued"] > 0
print("bench smoke: BENCH_serving.json OK")
PYEOF

# Bench regression gate: regenerate the deterministic reports and diff
# them against the committed baselines (BENCH_qp.json was just written by
# the smoke run above). Deterministic numerics
# (counters, residual series, accuracies) must match exactly; timings only
# fail on catastrophic drift — policy in scripts/bench_check.py.
(cd build && ./bench/fig4_linear_horizontal >/dev/null)
(cd build && ./bench/scalability >/dev/null)
# ablation_straggler also self-checks the ISSUE acceptance bound: async
# objective within 1e-3 of sync in at most half the sync wall-clock.
(cd build && ./bench/ablation_straggler >/dev/null)
# serving self-checks batched-vs-per-query bit identity and admission
# accounting; its virtual-clock numerics (batching, sheds, cache traffic)
# are gated exactly, only wall/qps/latency keys get timing slack.
(cd build && ./bench/serving >/dev/null)
# crypto_overhead's ledger cell (gbench cases skipped via empty filter)
# self-enforces the <3% ledger-on budget and bit-identical sums, then the
# bench_check backstop gates the written report.
(cd build && ./bench/crypto_overhead --benchmark_filter='^$' >/dev/null)
python3 scripts/bench_check.py build/BENCH_fig4.json \
  bench/baselines/BENCH_fig4.json
python3 scripts/bench_check.py build/BENCH_scalability.json \
  bench/baselines/BENCH_scalability.json
python3 scripts/bench_check.py build/BENCH_qp.json \
  bench/baselines/BENCH_qp.json
python3 scripts/bench_check.py build/BENCH_async.json \
  bench/baselines/BENCH_async.json
python3 scripts/bench_check.py build/BENCH_serving.json \
  bench/baselines/BENCH_serving.json
python3 scripts/bench_check.py build/BENCH_crypto.json \
  bench/baselines/BENCH_crypto.json

scripts/check_docs.sh

echo "verify: OK"
