// Helpers for tests that pin a model or a convergence trace bit for bit:
// FNV-1a digests over the bit patterns of doubles, and the ISA levels a pin
// must hold at.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/params.h"
#include "linalg/microkernel.h"

namespace ppml::testing {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over the bit patterns of `v`, each word little-endian.
inline std::uint64_t fnv1a_bits(std::uint64_t h, std::span<const double> v) {
  for (double d : v) {
    const auto w = std::bit_cast<std::uint64_t>(d);
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Digest of every record of a trace: its iteration, z_delta_sq and
/// test_accuracy, bit for bit, in record order.
inline std::uint64_t trace_digest(const core::ConvergenceTrace& trace) {
  std::uint64_t h = kFnvOffset;
  for (const core::IterationRecord& r : trace.records) {
    const double words[] = {static_cast<double>(r.iteration), r.z_delta_sq,
                            r.test_accuracy};
    h = fnv1a_bits(h, words);
  }
  return h;
}

/// Every dispatch level this binary and CPU can run, scalar first; a pin
/// forces each in turn with linalg::force_isa.
inline std::vector<linalg::Isa> available_isas() {
  std::vector<linalg::Isa> isas = {linalg::Isa::kScalar};
  for (const linalg::Isa isa : {linalg::Isa::kAvx2, linalg::Isa::kAvx512})
    if (linalg::isa_available(isa)) isas.push_back(isa);
  return isas;
}

}  // namespace ppml::testing
