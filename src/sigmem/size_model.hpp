// Eq. 2 of the paper: the closed-form memory model of the asymmetric
// signature memory.
//
//   SigMem(n, t) = n * (4 + (-t * ln(FPRate)) / (8 * ln^2(2)))   bytes
//
// where n is the signature slot count, t the thread count and FPRate the
// bloom-filter false-positive target. The first term (4 bytes/slot) is the
// one-level write signature; the second is the per-slot bloom filter of the
// two-level read signature. The paper instantiates n = 10^7, t = 32,
// FPRate = 0.001 and concludes "around 580MB could be sufficient".
// bench/eq2_sigmem_model sweeps this model and checks it against the actual
// allocations of the implementation, which lays the signatures out exactly
// as the model counts them: n write cells and n bloom filters, each filter's
// m rounded up to whole 64-bit words.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace commscope::sigmem {

/// Byte breakdown of the Eq. 2 model.
struct SigMemModel {
  double write_bytes = 0.0;   ///< n * 4
  double read_bytes = 0.0;    ///< n * bloom_bytes_per_slot
  double bloom_bits_per_slot = 0.0;  ///< -t*ln(p)/ln^2(2)
  [[nodiscard]] double total() const noexcept { return write_bytes + read_bytes; }
};

/// Evaluates Eq. 2 for (n slots, t threads, bloom FP rate p).
[[nodiscard]] inline SigMemModel sigmem_model(std::size_t n, int t,
                                              double p) noexcept {
  const double ln2 = std::log(2.0);
  SigMemModel m;
  m.bloom_bits_per_slot = -static_cast<double>(t) * std::log(p) / (ln2 * ln2);
  m.write_bytes = static_cast<double>(n) * 4.0;
  m.read_bytes = static_cast<double>(n) * m.bloom_bits_per_slot / 8.0;
  return m;
}

}  // namespace commscope::sigmem
