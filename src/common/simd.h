#ifndef GAL_COMMON_SIMD_H_
#define GAL_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

/// Portable SIMD wrapper for the hot inner loops: the row kernel under
/// every GEMM and SpMM (AxpyRowsF32) and the sorted-adjacency
/// intersections. Design rules:
///
///  - Vector code lives in exactly one translation unit
///    (simd_avx2.cc), compiled with -mavx2 and nothing else — no
///    -mfma, so float lanes do a separate multiply and add and stay
///    bit-identical to the scalar loops; no -march=native, so the
///    binary still runs on any x86-64.
///  - Everything here dispatches at runtime: AVX2 only when the
///    compiler could build it AND the CPU reports it AND the user has
///    not set GAL_SIMD=0. The scalar fallback is the reference
///    implementation, not an approximation.
///  - SetEnabled is the test/bench hook for A/B runs in one process.
namespace gal::simd {

/// True iff AVX2 kernels were compiled in and this CPU supports them.
bool Available();

/// True iff vector kernels are active (Available, not killed by
/// GAL_SIMD=0, not switched off via SetEnabled). GAL_SIMD is read once
/// per process, at the first call.
bool Enabled();

/// Switches vector kernels on/off at runtime (capped by Available).
/// Returns the previous setting. Thread-safe.
bool SetEnabled(bool enabled);

/// "avx2" or "scalar" — what a kernel called right now would run.
const char* ActiveIsa();

/// y[i] += a * x[i] for i in [0, n). The vector path performs the same
/// per-element multiply-then-add as the scalar loop (no FMA
/// contraction), so results are bit-identical either way.
void AxpyF32(float* y, const float* x, float a, size_t n);

/// y[j] += w[t] * rows[t][j] for j in [0, n), one term t at a time for
/// t = 0, 1, ..., count - 1: bit for bit the result of `count`
/// successive AxpyF32(y, rows[t], w[t], n) calls, which is what the
/// scalar fallback runs. The vector path holds y in registers across
/// all the terms (blocks of 64, 32, 16 and 8 lanes, then a masked
/// tail) instead of loading and storing it once per term. The rows must
/// not overlap y.
void AxpyRowsF32(float* y, size_t n, const float* w,
                 const float* const* rows, size_t count);

/// Number of common elements of two strictly-ascending sorted arrays.
/// Vector path: 8x8 block compare (all-pairs via register rotations).
size_t IntersectCountU32(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb);

/// Writes the common elements of two strictly-ascending sorted arrays
/// to `out` (caller guarantees capacity >= min(na, nb)); returns how
/// many were written. Output is ascending.
size_t IntersectIntoU32(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb, uint32_t* out);

}  // namespace gal::simd

#endif  // GAL_COMMON_SIMD_H_
