#include "linalg/blas.h"

#include <algorithm>
#include <cmath>

#include "linalg/microkernel.h"
#include "linalg/parallel.h"

namespace ppml::linalg {

namespace {

// Tile sizes for the blocked matrix-product kernels, in doubles. Derivation
// in docs/performance.md ("Tile sizes"): a 256-column tile of a C row
// (2 KiB) plus the matching B-row segment stay L1-resident while the k-loop
// streams A; 64-row task blocks keep per-task work large enough to amortize
// the pool hand-off while still load-balancing across cores.
constexpr std::size_t kRowBlock = 64;
constexpr std::size_t kColBlock = 256;

// Rows per block of symv_lower. The block's rows are read twice, by the
// dot_rows over their prefix and by the rank_update that pushes them into
// the rows above; 16 rows of n = 1 500 (192 KiB) stay in L2 between the two.
constexpr std::size_t kSymvRows = 16;

// Products smaller than this many FLOPs run serially even when a parallel
// backend is installed — the hand-off costs more than the arithmetic.
// Results are bit-identical either way; this is purely a latency knob.
constexpr std::size_t kMinParallelFlops = std::size_t{1} << 21;

std::size_t row_blocks(std::size_t rows) {
  return (rows + kRowBlock - 1) / kRowBlock;
}

void run_row_blocks(std::size_t rows, std::size_t flops,
                    const std::function<void(std::size_t)>& block_fn) {
  const std::size_t blocks = row_blocks(rows);
  if (blocks == 0) return;
  if (parallel_enabled() && flops >= kMinParallelFlops && blocks > 1) {
    count("linalg.gemm.tasks", static_cast<std::int64_t>(blocks));
    parallel_for(blocks, block_fn);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) block_fn(b);
  }
}

}  // namespace

// dot stays a plain scalar loop on purpose: it is a single reduction into
// one accumulator, and the microkernel bit-identity contract (one SIMD lane
// per OUTPUT element, ascending-k feed) has nothing to vectorize across when
// there is only one output. Splitting the accumulator would change the
// summation order and break every bit-identity pin in the repo.
double dot(std::span<const double> x, std::span<const double> y) {
  PPML_CHECK(x.size() == y.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double squared_norm(std::span<const double> x) { return dot(x, x); }

double norm(std::span<const double> x) { return std::sqrt(squared_norm(x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  PPML_CHECK(x.size() == y.size(), "axpy: size mismatch");
  // Per-element mul+add — vectorizable bit-identically (each y[i] is its own
  // output element), so this rides the dispatched microkernel.
  microkernels().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double squared_distance(std::span<const double> x, std::span<const double> y) {
  PPML_CHECK(x.size() == y.size(), "squared_distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

void gemv(const Matrix& a, std::span<const double> x, std::span<double> out) {
  PPML_CHECK(a.cols() == x.size() && a.rows() == out.size(),
             "gemv: shape mismatch");
  // out[i] = dot(a.row(i), x): one accumulator per output row, ascending k —
  // exactly the dot_rows microkernel shape, bit-identical to the dot() loop.
  microkernels().dot_rows(x.data(), a.data().data(), a.cols(), a.rows(),
                          a.cols(), out.data());
}

Vector gemv(const Matrix& a, std::span<const double> x) {
  Vector out(a.rows());
  gemv(a, x, out);
  return out;
}

void symv_lower(const Matrix& a, std::span<const double> diag,
                std::span<const double> x, std::span<double> out) {
  const std::size_t n = a.rows();
  PPML_CHECK(a.cols() == n && diag.size() == n && x.size() == n &&
                 out.size() == n,
             "symv_lower: shape mismatch");
  // Row blocks [j0, j1) in ascending order. out[j] for j in the block takes
  // its terms k < j0 from one dot_rows over the rows' common prefix, then
  // its in-block terms serially (K(j,k) for k > j is read as K(k,j)). The
  // block's rows then push their terms k in [j0, j1) into out[0..j0) with
  // one rank_update, in ascending k. So every out[i] sees 0.0 + term_0 +
  // term_1 + ... exactly as gemv's dot_rows does.
  const double* ad = a.data().data();
  const Microkernels& mk = microkernels();
  for (std::size_t j0 = 0; j0 < n; j0 += kSymvRows) {
    const std::size_t j1 = std::min(j0 + kSymvRows, n);
    mk.dot_rows(x.data(), ad + j0 * n, n, j1 - j0, j0, out.data() + j0);
    for (std::size_t j = j0; j < j1; ++j) {
      double acc = out[j];
      for (std::size_t k = j0; k < j; ++k) acc += x[k] * ad[j * n + k];
      acc += x[j] * diag[j];
      for (std::size_t k = j + 1; k < j1; ++k) acc += x[k] * ad[k * n + j];
      out[j] = acc;
    }
    mk.rank_update(x.data() + j0, ad + j0 * n, n, j1 - j0, out.data(), j0);
  }
}

void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> out) {
  PPML_CHECK(a.rows() == x.size() && a.cols() == out.size(),
             "gemv_t: shape mismatch");
  // out[j] = 0.0 + x[0] a(0, j) + x[1] a(1, j) + ..., ascending rows: one
  // rank_update over all of a.
  std::fill(out.begin(), out.end(), 0.0);
  microkernels().rank_update(x.data(), a.data().data(), a.cols(), a.rows(),
                             out.data(), a.cols());
}

Vector gemv_t(const Matrix& a, std::span<const double> x) {
  Vector out(a.cols());
  gemv_t(a, x, out);
  return out;
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  PPML_CHECK(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t nn = b.cols();
  Matrix c(m, nn);
  count("linalg.gemm.calls");
  count("linalg.gemm.flops", static_cast<std::int64_t>(2 * m * kk * nn));
  if (m == 0 || nn == 0 || kk == 0) return c;
  // Blocked ikj: for each C row block (one task) and each column tile, the
  // k-loop accumulates a_ik * b_kj in ascending k per element — the same
  // per-element order as the unblocked ikj loop, so the result is
  // bit-identical to that reference regardless of tiling, thread count or
  // ISA level (the axpy microkernel keeps one lane per C element; see
  // microkernel.h).
  const Microkernels& mk = microkernels();
  run_row_blocks(m, 2 * m * kk * nn, [&](std::size_t block) {
    const std::size_t i0 = block * kRowBlock;
    const std::size_t i1 = std::min(i0 + kRowBlock, m);
    for (std::size_t j0 = 0; j0 < nn; j0 += kColBlock) {
      const std::size_t j1 = std::min(j0 + kColBlock, nn);
      for (std::size_t i = i0; i < i1; ++i) {
        auto crow = c.row(i);
        for (std::size_t k = 0; k < kk; ++k) {
          const double aik = a(i, k);
          if (aik == 0.0) continue;  // same skip as the ikj loop's axpy guard
          const auto brow = b.row(k);
          mk.axpy(aik, brow.data() + j0, crow.data() + j0, j1 - j0);
        }
      }
    }
  });
  return c;
}

Matrix gemm_nt(const Matrix& a, const Matrix& b) {
  PPML_CHECK(a.cols() == b.cols(), "gemm_nt: inner dimension mismatch");
  const std::size_t m = a.rows();
  const std::size_t nn = b.rows();
  const std::size_t kk = a.cols();
  Matrix c(m, nn);
  count("linalg.gemm.calls");
  count("linalg.gemm.flops", static_cast<std::int64_t>(2 * m * kk * nn));
  if (m == 0 || nn == 0) return c;
  // Row-tile both operands so a block of B rows stays cache-resident while
  // the A rows of one task stream past it. Each element keeps one ascending-k
  // accumulator (dot_rows evaluates a strip of B rows against one A row),
  // identical to one dot() call per element.
  const Microkernels& mk = microkernels();
  run_row_blocks(m, 2 * m * kk * nn, [&](std::size_t block) {
    const std::size_t i0 = block * kRowBlock;
    const std::size_t i1 = std::min(i0 + kRowBlock, m);
    for (std::size_t j0 = 0; j0 < nn; j0 += kRowBlock) {
      const std::size_t j1 = std::min(j0 + kRowBlock, nn);
      for (std::size_t i = i0; i < i1; ++i)
        mk.dot_rows(a.row(i).data(), b.data().data() + j0 * kk, kk, j1 - j0,
                    kk, c.row(i).data() + j0);
    }
  });
  return c;
}

Matrix gram_at_a(const Matrix& a) {
  Matrix c(a.cols(), a.cols());
  const Microkernels& mk = microkernels();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double v = row[i];
      if (v == 0.0) continue;
      // c(i, j >= i) += v * row[j] — an axpy over the upper-triangle strip,
      // per-element mul+add in the original j order.
      mk.axpy(v, row.data() + i, c.row(i).data() + i, a.cols() - i);
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  return c;
}

Matrix syrk(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  Matrix c(m, m);
  count("linalg.gemm.calls");
  count("linalg.gemm.flops", static_cast<std::int64_t>(m * (m + 1) * kk));
  if (m == 0) return c;
  // Upper triangle only, mirrored. A task owns C rows [i0, i1): it writes
  // c(i, j >= i) and the mirror c(j, i) — disjoint elements across tasks,
  // so the parallel path is race-free and bit-identical to the serial one.
  const Microkernels& mk = microkernels();
  run_row_blocks(m, m * (m + 1) * kk, [&](std::size_t block) {
    const std::size_t i0 = block * kRowBlock;
    const std::size_t i1 = std::min(i0 + kRowBlock, m);
    for (std::size_t i = i0; i < i1; ++i) {
      const auto ri = a.row(i);
      // One dot_rows call fills c(i, j >= i): per-element accumulation is
      // the same ascending-k dot() the serial loop computed.
      mk.dot_rows(ri.data(), a.data().data() + i * kk, kk, m - i, kk,
                  c.row(i).data() + i);
      for (std::size_t j = i + 1; j < m; ++j) c(j, i) = c(i, j);
    }
  });
  return c;
}

Matrix gram_a_at(const Matrix& a) { return syrk(a); }

Vector add(std::span<const double> x, std::span<const double> y) {
  PPML_CHECK(x.size() == y.size(), "add: size mismatch");
  Vector out(x.begin(), x.end());
  axpy(1.0, y, out);
  return out;
}

Vector sub(std::span<const double> x, std::span<const double> y) {
  PPML_CHECK(x.size() == y.size(), "sub: size mismatch");
  Vector out(x.begin(), x.end());
  axpy(-1.0, y, out);
  return out;
}

Vector scaled(double alpha, std::span<const double> x) {
  Vector out(x.begin(), x.end());
  scale(alpha, out);
  return out;
}

}  // namespace ppml::linalg
