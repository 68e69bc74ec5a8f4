#ifndef GAL_COMMON_FIXED_POINT_H_
#define GAL_COMMON_FIXED_POINT_H_

#include <cmath>
#include <cstdint>

namespace gal {

/// PageRank's rank contributions travel as fixed-point integers (2^-50
/// resolution), in the TLAV program (tlav/algos/pagerank.cc) and the
/// out-of-core sweep (ooc/ooc_algos.cc) alike. Floating-point summation
/// is order-sensitive, and both vertex reordering and worker/thread
/// splits change the order messages fold in — integer addition is
/// associative and commutative, so the reduction is exact and the final
/// ranks are bit-identical across layouts, worker counts, delivery orders
/// and memory budgets. Total rank mass is ~1, so the fixed-point sum
/// stays far below 2^63 (and below 2^53 when mirrored into the
/// double-typed dangling aggregator, keeping that sum exact too).
/// Quantization error is ~2^-51 per edge, orders of magnitude under the
/// tolerance any consumer of PageRank uses.
inline constexpr double kFixedScale = static_cast<double>(1ull << 50);

inline uint64_t ToFixed(double x) {
  return static_cast<uint64_t>(std::llround(x * kFixedScale));
}

inline double FromFixed(uint64_t fixed) {
  return static_cast<double>(fixed) / kFixedScale;
}

}  // namespace gal

#endif  // GAL_COMMON_FIXED_POINT_H_
