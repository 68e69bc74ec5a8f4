#include "common/simd.h"

#include <atomic>

#include "common/env.h"

namespace gal::simd {

#if GAL_SIMD_HAVE_AVX2
namespace detail {
// Implemented in simd_avx2.cc, the only TU compiled with -mavx2.
void AxpyF32Avx2(float* y, const float* x, float a, size_t n);
void AxpyRowsF32Avx2(float* y, size_t n, const float* w,
                     const float* const* rows, size_t count);
size_t IntersectCountU32Avx2(const uint32_t* a, size_t na, const uint32_t* b,
                             size_t nb);
size_t IntersectIntoU32Avx2(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb, uint32_t* out);
}  // namespace detail
#endif

namespace {

bool CompiledAndSupported() {
#if GAL_SIMD_HAVE_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag(CompiledAndSupported() && [] {
    const std::optional<env::Value> env = env::Lookup(env::Knob::kSimd, "on");
    return !env || env->on;
  }());
  return flag;
}

size_t ScalarIntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

size_t ScalarIntersectInto(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[count++] = a[i];
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

bool Available() { return CompiledAndSupported(); }

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }

bool SetEnabled(bool enabled) {
  return EnabledFlag().exchange(enabled && Available(),
                                std::memory_order_relaxed);
}

const char* ActiveIsa() { return Enabled() ? "avx2" : "scalar"; }

void AxpyF32(float* y, const float* x, float a, size_t n) {
#if GAL_SIMD_HAVE_AVX2
  if (Enabled()) {
    detail::AxpyF32Avx2(y, x, a, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void AxpyRowsF32(float* y, size_t n, const float* w,
                 const float* const* rows, size_t count) {
#if GAL_SIMD_HAVE_AVX2
  if (Enabled()) {
    detail::AxpyRowsF32Avx2(y, n, w, rows, count);
    return;
  }
#endif
  for (size_t t = 0; t < count; ++t) {
    const float a = w[t];
    const float* x = rows[t];
    // Unrolled: -O2 does not vectorize this loop, and with a
    // one-element body it measured up to 2x slower depending on where
    // it landed in the binary.
#pragma GCC unroll 4
    for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
  }
}

size_t IntersectCountU32(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb) {
#if GAL_SIMD_HAVE_AVX2
  if (Enabled()) return detail::IntersectCountU32Avx2(a, na, b, nb);
#endif
  return ScalarIntersectCount(a, na, b, nb);
}

size_t IntersectIntoU32(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb, uint32_t* out) {
#if GAL_SIMD_HAVE_AVX2
  if (Enabled()) return detail::IntersectIntoU32Avx2(a, na, b, nb, out);
#endif
  return ScalarIntersectInto(a, na, b, nb, out);
}

}  // namespace gal::simd
