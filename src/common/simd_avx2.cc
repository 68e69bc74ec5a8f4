// AVX2 kernels. This is the ONLY translation unit compiled with -mavx2
// (see src/CMakeLists.txt), and it is compiled without -mfma on
// purpose: _mm256_add_ps(_mm256_mul_ps(...)) keeps the separate
// multiply and add of the scalar reference, so vector and scalar
// results are bit-identical. Callers reach these through the runtime
// dispatch in simd.cc — never call them without checking
// simd::Enabled() first, or a non-AVX2 CPU faults.
#if GAL_SIMD_HAVE_AVX2

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace gal::simd::detail {

void AxpyF32Avx2(float* y, const float* x, float a, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_add_ps(vy, _mm256_mul_ps(va, vx));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

namespace {

/// y[offset, offset + 8 * kVecs) += w[t] * rows[t][same lanes] for
/// t = 0, 1, ..., count - 1, with those lanes of y held in kVecs
/// registers from the first term to the last.
template <int kVecs>
inline void AxpyRowsBlock(float* y, const float* w, const float* const* rows,
                          size_t count, size_t offset) {
  __m256 acc[kVecs];
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) acc[v] = _mm256_loadu_ps(y + offset + 8 * v);
  for (size_t t = 0; t < count; ++t) {
    const __m256 vw = _mm256_set1_ps(w[t]);
    const float* x = rows[t] + offset;
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(vw, _mm256_loadu_ps(x + 8 * v)));
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) _mm256_storeu_ps(y + offset + 8 * v, acc[v]);
}

/// The same over the last `lanes` < 8 lanes, through a lane mask:
/// masked-off lanes are neither read nor written.
inline void AxpyRowsTail(float* y, const float* w, const float* const* rows,
                         size_t count, size_t offset, size_t lanes) {
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc = _mm256_maskload_ps(y + offset, mask);
  for (size_t t = 0; t < count; ++t) {
    const __m256 vx = _mm256_maskload_ps(rows[t] + offset, mask);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(w[t]), vx));
  }
  _mm256_maskstore_ps(y + offset, mask, acc);
}

}  // namespace

void AxpyRowsF32Avx2(float* y, size_t n, const float* w,
                     const float* const* rows, size_t count) {
  size_t j = 0;
  for (; j + 64 <= n; j += 64) AxpyRowsBlock<8>(y, w, rows, count, j);
  if (j + 32 <= n) {
    AxpyRowsBlock<4>(y, w, rows, count, j);
    j += 32;
  }
  if (j + 16 <= n) {
    AxpyRowsBlock<2>(y, w, rows, count, j);
    j += 16;
  }
  if (j + 8 <= n) {
    AxpyRowsBlock<1>(y, w, rows, count, j);
    j += 8;
  }
  if (j < n) AxpyRowsTail(y, w, rows, count, j, n - j);
}

namespace {

/// All-pairs equality of one 8-lane block of `a` against one 8-lane
/// block of `b`: compare, rotate b by one lane, repeat 8 times. The
/// returned movemask has bit k set iff a[k] occurs anywhere in the b
/// block. Arrays are strictly ascending, so each a value matches at
/// most one b value globally and popcounting the mask never double
/// counts.
inline uint32_t BlockMatchMask(__m256i va, __m256i vb) {
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  __m256i match = _mm256_cmpeq_epi32(va, vb);
  __m256i vb_r = vb;
  for (int r = 1; r < 8; ++r) {
    vb_r = _mm256_permutevar8x32_epi32(vb_r, rot1);
    match = _mm256_or_si256(match, _mm256_cmpeq_epi32(va, vb_r));
  }
  return static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(match)));
}

}  // namespace

size_t IntersectCountU32Avx2(const uint32_t* a, size_t na, const uint32_t* b,
                             size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    count += static_cast<size_t>(__builtin_popcount(BlockMatchMask(va, vb)));
    // Advance whichever block's maximum is smaller (both on a tie):
    // every element of the retired block has been compared against all
    // candidates that could still equal it.
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  // Scalar merge over the tails.
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

size_t IntersectIntoU32Avx2(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, count = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    uint32_t mask = BlockMatchMask(va, vb);
    // Mask bits are in lane order == ascending value order within the
    // a block, and blocks advance in ascending order, so emitting per
    // set bit keeps the output sorted.
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[count++] = a[i + static_cast<size_t>(lane)];
      mask &= mask - 1;
    }
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
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

}  // namespace gal::simd::detail

#endif  // GAL_SIMD_HAVE_AVX2
