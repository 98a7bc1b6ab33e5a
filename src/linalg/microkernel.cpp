#include "linalg/microkernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "linalg/common.h"

namespace ppml::linalg {

namespace {

// ---- Scalar reference kernels ----------------------------------------------
// axpy, dot_rows and sqdist_rows are character-for-character the loops the
// blocked blas.cpp paths and svm kernel evaluators ran before the dispatch
// seam existed; rank_update is one axpy per row of x, in ascending row order.
// Every other ISA level is pinned bit-identical to them (and to the naive
// oracles).

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

void dot_rows_scalar(const double* x, const double* b, std::size_t ldb,
                     std::size_t rows, std::size_t k, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* br = b + r * ldb;
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += x[i] * br[i];
    out[r] = acc;
  }
}

void sqdist_rows_scalar(const double* x, const double* b, std::size_t ldb,
                        std::size_t rows, std::size_t k, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* br = b + r * ldb;
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double d = x[i] - br[i];
      acc += d * d;
    }
    out[r] = acc;
  }
}

void rank_update_scalar(const double* a, const double* x, std::size_t ldx,
                        std::size_t kk, double* y, std::size_t n) {
  for (std::size_t p = 0; p < kk; ++p) {
    const double ap = a[p];
    const double* xp = x + p * ldx;
    for (std::size_t j = 0; j < n; ++j) y[j] += ap * xp[j];
  }
}

constexpr Microkernels kScalarTable{Isa::kScalar,        "scalar",
                                    axpy_scalar,         dot_rows_scalar,
                                    sqdist_rows_scalar,  rank_update_scalar};

}  // namespace

#if defined(PPML_HAVE_AVX2)
// Defined in microkernel_avx2.cpp (compiled with -mavx2).
const Microkernels& avx2_microkernels() noexcept;
const Microkernels& avx512_microkernels() noexcept;
#endif

namespace {

bool cpu_has_avx2() noexcept {
#if defined(PPML_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// The avx512 level needs the AVX2 table (it runs it) and the AVX-512 F+DQ
// crypto kernels, which are compiled in exactly when PPML_HAVE_AVX512 is.
bool cpu_has_avx512() noexcept {
#if defined(PPML_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
  return cpu_has_avx2() && __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

const Microkernels* table_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kAvx2:
#if defined(PPML_HAVE_AVX2)
      if (cpu_has_avx2()) return &avx2_microkernels();
#endif
      return nullptr;
    case Isa::kAvx512:
#if defined(PPML_HAVE_AVX2)
      if (cpu_has_avx512()) return &avx512_microkernels();
#endif
      return nullptr;
  }
  return nullptr;
}

// -1 = no programmatic pin; otherwise the int value of the forced Isa.
std::atomic<int> g_forced{-1};
// Cached resolution; reset to nullptr whenever forcing changes.
std::atomic<const Microkernels*> g_active{nullptr};

const Microkernels* resolve() {
  const char* how = "cpu probe";
  const Microkernels* table = nullptr;

  const int forced = g_forced.load(std::memory_order_acquire);
  if (forced >= 0) {
    table = table_for(static_cast<Isa>(forced));
    how = "forced";
  } else if (const char* env = std::getenv("PPML_FORCE_ISA");
             env != nullptr && env[0] != '\0') {
    if (auto isa = parse_isa(env); isa.has_value()) {
      table = table_for(*isa);
      how = "PPML_FORCE_ISA";
      if (table == nullptr) {
        std::fprintf(stderr,
                     "ppml: PPML_FORCE_ISA=%s unavailable on this "
                     "binary/CPU, falling back to probe\n",
                     env);
      }
    } else {
      std::fprintf(stderr,
                   "ppml: ignoring unrecognized PPML_FORCE_ISA='%s' "
                   "(expected scalar|avx2|avx512)\n",
                   env);
    }
  }
  if (table == nullptr) {
    table = table_for(detected_isa());
    if (table == nullptr) table = &kScalarTable;
  }
  // The one-line startup log: which ISA level the numeric hot path runs at,
  // and why. Emitted once per resolution (so once per process in the common
  // case); stderr keeps it out of bench report streams.
  std::fprintf(stderr, "ppml: linalg microkernels: %s (%s)\n", table->name,
               how);
  return table;
}

}  // namespace

const Microkernels& microkernels() noexcept {
  const Microkernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = resolve();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

Isa active_isa() noexcept { return microkernels().isa; }

const char* active_isa_name() noexcept { return microkernels().name; }

Isa detected_isa() noexcept {
  if (cpu_has_avx512()) return Isa::kAvx512;
  return cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
}

bool isa_available(Isa isa) noexcept { return table_for(isa) != nullptr; }

void force_isa(Isa isa) {
  PPML_CHECK(isa_available(isa),
             std::string("force_isa: ISA level '") + isa_name(isa) +
                 "' not available on this binary/CPU");
  g_forced.store(static_cast<int>(isa), std::memory_order_release);
  g_active.store(nullptr, std::memory_order_release);
}

void clear_forced_isa() noexcept {
  g_forced.store(-1, std::memory_order_release);
  g_active.store(nullptr, std::memory_order_release);
}

std::optional<Isa> parse_isa(std::string_view name) noexcept {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  return std::nullopt;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace ppml::linalg
