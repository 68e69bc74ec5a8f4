#include "tensor/matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/simd.h"
#include "tensor/kernel_context.h"

namespace gal {
namespace {

/// k-tile width. A B and A^T B walk k one tile at a time, so a tile of B
/// (kKTile rows) stays cached while a shard's C rows stream over it; A
/// B^T sums each tile's products from zero and adds that partial sum to
/// C.
constexpr uint32_t kKTile = 128;

/// Shard count for a GEMM parallelized over `out_rows` output rows doing
/// `work` scalar ops total. Each output row is produced by exactly one
/// shard, so results are bit-identical at any thread count.
size_t GemmShards(const KernelContext& ctx, uint32_t out_rows, uint64_t work) {
  return std::min<size_t>(std::max<uint32_t>(1, out_rows),
                          ctx.ShardCountFor(work));
}

/// First output row of shard `s` of `shards` over `rows` rows.
uint32_t ShardBegin(uint32_t rows, size_t s, size_t shards) {
  return static_cast<uint32_t>(uint64_t{rows} * s / shards);
}

/// C rows [r0, r1) of C = W B, where weight(i, k) reads W: c[i] +=
/// weight(i, k) * b[k] for k ascending, a term with a zero weight
/// skipped. The tile and shard bounds never change a row's order.
template <typename Weight>
void WeightedRowSums(const Weight& weight, const Matrix& b, uint32_t r0,
                     uint32_t r1, Matrix& c) {
  const uint32_t kdim = b.rows();
  std::vector<float> w(std::min(kdim, kKTile));
  std::vector<const float*> rows(w.size());
  for (uint32_t k0 = 0; k0 < kdim; k0 += kKTile) {
    const uint32_t k1 = std::min(kdim, k0 + kKTile);
    for (uint32_t i = r0; i < r1; ++i) {
      // Branch-free compaction of the tile's nonzero terms: a zero
      // weight's slot is overwritten by the next term.
      size_t count = 0;
      for (uint32_t k = k0; k < k1; ++k) {
        const float wik = weight(i, k);
        w[count] = wik;
        rows[count] = b.row(k);
        count += (wik != 0.0f);
      }
      simd::AxpyRowsF32(c.row(i), b.cols(), w.data(), rows.data(), count);
    }
  }
}

Matrix Transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (uint32_t i = 0; i < m.rows(); ++i) {
    const float* mi = m.row(i);
    for (uint32_t j = 0; j < m.cols(); ++j) t.at(j, i) = mi[j];
  }
  return t;
}

}  // namespace

Matrix Matrix::Xavier(uint32_t rows, uint32_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const float bound =
      std::sqrt(6.0f / (static_cast<float>(rows) + static_cast<float>(cols)));
  for (float& v : m.data_) {
    v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0) * bound;
  }
  return m;
}

void Matrix::AddScaled(const Matrix& other, float alpha) {
  GAL_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << ShapeString() << " += alpha * " << other.ShapeString();
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.elementwise_hist());
  ctx.ParallelFor1D(data_.size(), 2, [&](size_t begin, size_t end) {
    simd::AxpyF32(data_.data() + begin, other.data_.data() + begin, alpha,
                  end - begin);
  });
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

double Matrix::MeanAbsDiff(const Matrix& other) const {
  GAL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    s += std::abs(static_cast<double>(data_[i]) - other.data_[i]);
  }
  return s / static_cast<double>(data_.size());
}

std::string Matrix::ShapeString() const {
  std::ostringstream os;
  os << "[" << rows_ << "x" << cols_ << "]";
  return os.str();
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  GAL_CHECK(a.cols() == b.rows())
      << a.ShapeString() << " * " << b.ShapeString();
  Matrix c(a.rows(), b.cols());
  if (a.rows() == 0 || a.cols() == 0 || b.cols() == 0) return c;
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.gemm_hist());
  const uint64_t work = uint64_t{a.rows()} * a.cols() * b.cols();
  const size_t shards = GemmShards(ctx, a.rows(), work);
  ctx.RunShards(shards, [&](size_t s) {
    WeightedRowSums([&a](uint32_t i, uint32_t k) { return a.row(i)[k]; }, b,
                    ShardBegin(a.rows(), s, shards),
                    ShardBegin(a.rows(), s + 1, shards), c);
  });
  return c;
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  GAL_CHECK(a.rows() == b.rows())
      << a.ShapeString() << "^T * " << b.ShapeString();
  Matrix c(a.cols(), b.cols());
  if (a.rows() == 0 || a.cols() == 0 || b.cols() == 0) return c;
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.gemm_hist());
  const uint64_t work = uint64_t{a.rows()} * a.cols() * b.cols();
  const size_t shards = GemmShards(ctx, a.cols(), work);
  // Output rows of C = A^T B are indexed by A's columns. Within a k-tile
  // the column reads stay inside kKTile rows of A, which stay cached.
  ctx.RunShards(shards, [&](size_t s) {
    WeightedRowSums([&a](uint32_t i, uint32_t k) { return a.row(k)[i]; }, b,
                    ShardBegin(a.cols(), s, shards),
                    ShardBegin(a.cols(), s + 1, shards), c);
  });
  return c;
}

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  GAL_CHECK(a.cols() == b.cols())
      << a.ShapeString() << " * " << b.ShapeString() << "^T";
  Matrix c(a.rows(), b.rows());
  if (a.rows() == 0 || a.cols() == 0 || b.rows() == 0) return c;
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.gemm_hist());
  const uint64_t work = uint64_t{a.rows()} * a.cols() * b.rows();
  const size_t shards = GemmShards(ctx, a.rows(), work);
  const uint32_t kdim = a.cols();
  const uint32_t out_cols = b.rows();
  // Staged B^T: its row k is column k of B, so a k-tile's dot products
  // with every B row are one row-kernel call over contiguous rows.
  const Matrix bt = Transpose(b);
  std::vector<const float*> bt_rows(kdim);
  for (uint32_t k = 0; k < kdim; ++k) bt_rows[k] = bt.row(k);
  ctx.RunShards(shards, [&](size_t s) {
    std::vector<float> partial(out_cols);
    for (uint32_t i = ShardBegin(a.rows(), s, shards);
         i < ShardBegin(a.rows(), s + 1, shards); ++i) {
      const float* ai = a.row(i);
      float* ci = c.row(i);
      // Per k-tile partial sums from zero, each added to the C row.
      for (uint32_t k0 = 0; k0 < kdim; k0 += kKTile) {
        const uint32_t k1 = std::min(kdim, k0 + kKTile);
        std::fill(partial.begin(), partial.end(), 0.0f);
        simd::AxpyRowsF32(partial.data(), out_cols, ai + k0,
                          bt_rows.data() + k0, k1 - k0);
        for (uint32_t j = 0; j < out_cols; ++j) ci[j] += partial[j];
      }
    }
  });
  return c;
}

Matrix ReluForward(const Matrix& z, Matrix* mask) {
  Matrix h(z.rows(), z.cols());
  if (mask != nullptr) *mask = Matrix(z.rows(), z.cols());
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.elementwise_hist());
  float* hd = h.data().data();
  float* md = mask != nullptr ? mask->data().data() : nullptr;
  const float* zd = z.data().data();
  // A select, not a branch per element: `keep` is all ones where z > 0
  // and all zeros elsewhere (+0, -0, NaN, negatives), so h takes z's
  // bits or +0, and the mask 1.0f's bits or +0.
  constexpr uint32_t kOne = std::bit_cast<uint32_t>(1.0f);
  const auto keep = [zd](size_t i) {
    return 0u - static_cast<uint32_t>(zd[i] > 0.0f);
  };
  ctx.ParallelFor1D(h.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hd[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(zd[i]) & keep(i));
    }
    if (md == nullptr) return;
    for (size_t i = begin; i < end; ++i) {
      md[i] = std::bit_cast<float>(kOne & keep(i));
    }
  });
  return h;
}

Matrix ReluBackward(const Matrix& grad, const Matrix& mask) {
  GAL_CHECK(grad.rows() == mask.rows() && grad.cols() == mask.cols())
      << grad.ShapeString() << " vs mask " << mask.ShapeString();
  Matrix out = grad;
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.elementwise_hist());
  float* od = out.data().data();
  const float* md = mask.data().data();
  ctx.ParallelFor1D(out.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) od[i] *= md[i];
  });
  return out;
}

namespace {

/// Row-parallel softmax body shared by SoftmaxRows and the fused
/// cross-entropy (which must not double-record the elementwise span).
Matrix SoftmaxRowsImpl(const Matrix& z) {
  Matrix p(z.rows(), z.cols());
  if (z.rows() == 0 || z.cols() == 0) return p;
  KernelContext& ctx = KernelContext::Get();
  ctx.ParallelFor1D(z.rows(), 4 * uint64_t{z.cols()},
                    [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const float* zi = z.row(static_cast<uint32_t>(i));
      float* pi = p.row(static_cast<uint32_t>(i));
      float mx = zi[0];
      for (uint32_t j = 1; j < z.cols(); ++j) mx = std::max(mx, zi[j]);
      double sum = 0.0;
      for (uint32_t j = 0; j < z.cols(); ++j) {
        pi[j] = std::exp(zi[j] - mx);
        sum += pi[j];
      }
      for (uint32_t j = 0; j < z.cols(); ++j) {
        pi[j] = static_cast<float>(pi[j] / sum);
      }
    }
  });
  return p;
}

}  // namespace

Matrix SoftmaxRows(const Matrix& z) {
  ScopedSpan span(KernelContext::Get().elementwise_hist());
  return SoftmaxRowsImpl(z);
}

SoftmaxXentResult SoftmaxCrossEntropy(const Matrix& logits,
                                      const std::vector<int32_t>& labels,
                                      const std::vector<uint8_t>& mask) {
  GAL_CHECK(labels.size() == logits.rows());
  GAL_CHECK(mask.size() == logits.rows());
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.elementwise_hist());
  SoftmaxXentResult result;
  result.grad = Matrix(logits.rows(), logits.cols());
  Matrix probs = SoftmaxRowsImpl(logits);
  uint32_t selected = 0;
  for (uint32_t i = 0; i < logits.rows(); ++i) selected += (mask[i] != 0);
  result.total = selected;
  if (selected == 0) return result;

  // Per-row pass is embarrassingly parallel (grad rows are disjoint);
  // the loss/accuracy reduction runs serially afterwards in row order so
  // the sums are bit-identical at any thread count.
  std::vector<double> row_loss(logits.rows(), 0.0);
  std::vector<uint8_t> row_correct(logits.rows(), 0);
  ctx.ParallelFor1D(logits.rows(), 4 * uint64_t{logits.cols()},
                    [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      const uint32_t i = static_cast<uint32_t>(row);
      if (!mask[i]) continue;
      const int32_t y = labels[i];
      GAL_CHECK(y >= 0 && static_cast<uint32_t>(y) < logits.cols());
      const float p = std::max(probs.at(i, y), 1e-12f);
      row_loss[i] = -std::log(p);
      uint32_t argmax = 0;
      for (uint32_t j = 1; j < logits.cols(); ++j) {
        if (probs.at(i, j) > probs.at(i, argmax)) argmax = j;
      }
      row_correct[i] = (argmax == static_cast<uint32_t>(y));
      for (uint32_t j = 0; j < logits.cols(); ++j) {
        result.grad.at(i, j) =
            (probs.at(i, j) - (j == static_cast<uint32_t>(y) ? 1.0f : 0.0f)) /
            static_cast<float>(selected);
      }
    }
  });
  for (uint32_t i = 0; i < logits.rows(); ++i) {
    result.loss += row_loss[i];
    result.correct += row_correct[i];
  }
  result.loss /= selected;
  return result;
}

}  // namespace gal
