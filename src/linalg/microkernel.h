// Runtime-dispatched SIMD microkernels for the blocked linalg hot loops.
//
// The blocked gemm/gemm_nt/syrk tile loops in blas.cpp, the RBF/poly row
// evaluators in svm/kernel.cpp and the blocked Cholesky factor and forward
// solve in cholesky.cpp all reduce to four primitive shapes:
//
//   axpy         y[j] += a * x[j]                     (gemm inner tile)
//   dot_rows     out[r] = sum_k x[k] * b_r[k]         (gemm_nt / syrk / gemv
//                                                      / symv_lower /
//                                                      dot-kernel rows)
//   sqdist_rows  out[r] = sum_k (x[k] - b_r[k])^2     (RBF kernel rows)
//   rank_update  y[j] += a[p] * x_p[j], p ascending   (Cholesky panel and
//                                                      trailing update,
//                                                      symv_lower, gemv_t)
//
// Each primitive has a scalar implementation (the exact loops the blocked
// paths used before this seam existed) and an AVX2 implementation selected
// at runtime from a cpuid probe. Bit-identity contract: the AVX2 kernels
// vectorize ACROSS output elements — every output element keeps its own
// accumulator in its own SIMD lane, fed in strictly ascending k with
// separate multiply and add instructions (no FMA contraction) — so each
// element sees the exact IEEE-754 operation sequence of the scalar loop and
// every ISA level is bit-identical to the naive oracles. A single reduction
// (linalg::dot) cannot be vectorized under that contract and stays scalar.
//
// The levels form one ladder: scalar < avx2 < avx512. The avx512 level runs
// the AVX2 linalg table under its own name (AVX-512 linalg kernels are not
// written yet); it exists for the crypto mask path, and every AVX2 fast path
// below stays on at it (their gates read `active_isa() >= Isa::kAvx2`).
//
// The seam has three users outside linalg, each in its own -mavx2 TU:
//   - crypto::ChaCha20Stream::fill (crypto/prng.h) chooses its 8-block AVX2
//     keystream (crypto/chacha20_avx2.cpp), and at avx512 its 16-block
//     keystream (crypto/chacha20_avx512.cpp, -mavx512f -mavx512dq), all
//     bit-identical to the scalar RFC 8439 block function; the same avx512
//     TU holds FixedPointCodec::encode_vector's conversion loop;
//   - qp::solve_diagonal_qp (qp/diagonal_qp.h) runs a lane-summed fast pass
//     (qp/diagonal_qp_avx2.cpp) and takes each bisection decision from it
//     only when an error bound certifies the serial sum decides the same;
//   - mapreduce::crc32 (mapreduce/serde.h) folds with PCLMULQDQ
//     (mapreduce/crc32_pclmul.cpp, also -mpclmul) when cpuid reports it.
// Forcing a level pins all of them.
//
// Pinning: set PPML_FORCE_ISA=scalar|avx2|avx512 in the environment, or call
// force_isa(). The selected level is logged once to stderr so perf numbers
// are attributable to an ISA.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace ppml::linalg {

enum class Isa : int {
  kScalar = 0,  ///< portable reference loops, always available
  kAvx2 = 1,    ///< 4-wide double AVX2 (no FMA contraction), x86-64 only
  kAvx512 = 2,  ///< AVX-512 F+DQ for crypto; linalg runs the AVX2 table
};

/// Function-pointer table of the microkernel primitives for one ISA level.
struct Microkernels {
  Isa isa;
  const char* name;  ///< "scalar", "avx2" or "avx512"

  /// y[j] += a * x[j] for j in [0, n). x and y must not overlap.
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// out[r] = sum over k in ascending order of x[k] * b[r*ldb + k]
  /// for r in [0, rows). Row r of b starts at b + r*ldb (ldb >= k).
  void (*dot_rows)(const double* x, const double* b, std::size_t ldb,
                   std::size_t rows, std::size_t k, double* out);

  /// out[r] = sum over k in ascending order of (x[k] - b[r*ldb+k])^2.
  void (*sqdist_rows)(const double* x, const double* b, std::size_t ldb,
                      std::size_t rows, std::size_t k, double* out);

  /// Rank-kk row update: for p = 0, 1, ..., kk-1 in that order,
  /// y[j] += a[p] * x[p*ldx + j] for j in [0, n). Every y[j] sees one
  /// multiply and one add per p, in ascending p. Row p of x starts at
  /// x + p*ldx (ldx >= n); x and y must not overlap.
  void (*rank_update)(const double* a, const double* x, std::size_t ldx,
                      std::size_t kk, double* y, std::size_t n);
};

/// The active table. First call resolves the level (forced > PPML_FORCE_ISA
/// env > cpuid probe), logs one line to stderr, and caches the result; later
/// calls are a single atomic load.
const Microkernels& microkernels() noexcept;

/// ISA level of the active table (resolves on first use, like microkernels()).
Isa active_isa() noexcept;
const char* active_isa_name() noexcept;

/// Best level this binary + CPU can run (ignores any forcing).
Isa detected_isa() noexcept;

/// True when `isa` was compiled in and the CPU supports it.
bool isa_available(Isa isa) noexcept;

/// Pin the dispatcher to one level (throws InvalidArgument when that level
/// is unavailable on this binary/CPU). clear_forced_isa() restores the
/// automatic probe; both reset the cached table and re-log on next use.
void force_isa(Isa isa);
void clear_forced_isa() noexcept;

/// Parse "scalar" / "avx2" / "avx512" (as accepted by PPML_FORCE_ISA).
/// nullopt on anything else.
std::optional<Isa> parse_isa(std::string_view name) noexcept;
const char* isa_name(Isa isa) noexcept;

}  // namespace ppml::linalg
