#ifndef GAL_TENSOR_MATRIX_H_
#define GAL_TENSOR_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace gal {

/// A dense row-major float matrix — the minimal tensor the GNN stack
/// needs (feature tables, layer weights, activations). Laptop-scale by
/// design; no BLAS dependency so the repository is self-contained.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(uint32_t rows, uint32_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0f) {}

  static Matrix Zeros(uint32_t rows, uint32_t cols) {
    return Matrix(rows, cols);
  }
  /// Xavier/Glorot uniform initialization (deterministic in `rng`).
  static Matrix Xavier(uint32_t rows, uint32_t cols, Rng& rng);

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  uint64_t bytes() const { return data_.size() * sizeof(float); }

  float& at(uint32_t r, uint32_t c) {
    GAL_DCHECK(r < rows_ && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(uint32_t r, uint32_t c) const {
    GAL_DCHECK(r < rows_ && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* row(uint32_t r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(uint32_t r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// this += alpha * other (same shape).
  void AddScaled(const Matrix& other, float alpha);
  /// Elementwise transform in place. Templated (not std::function) so
  /// activation/rounding lambdas inline into the loop.
  template <typename Fn>
  void Apply(Fn&& fn) {
    for (float& v : data_) v = fn(v);
  }
  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  double FrobeniusNorm() const;
  /// Mean absolute difference against another matrix of the same shape.
  double MeanAbsDiff(const Matrix& other) const;

  std::string ShapeString() const;

 private:
  uint32_t rows_;
  uint32_t cols_;
  std::vector<float> data_;
};

/// Each product below rounds every element the same way at any thread
/// count and ISA: one multiply and one add per term, in the order given.
/// C = A * B: c_ij sums a_ik * b_kj for k ascending from +0, skipping
/// terms with a_ik == 0.
Matrix Matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B: c_ij sums a_ki * b_kj the same way (k ascending from +0,
/// a_ki == 0 skipped).
Matrix MatmulTransposeA(const Matrix& a, const Matrix& b);
/// C = A * B^T: for each 128-wide k-tile, a partial sum of a_ik * b_jk
/// from +0 with k ascending, added to c_ij; no term is skipped.
Matrix MatmulTransposeB(const Matrix& a, const Matrix& b);

/// ReLU forward; `mask` (same shape) records active units for backward.
Matrix ReluForward(const Matrix& z, Matrix* mask);
/// Gradient gated by the forward mask: dZ = dH ⊙ mask.
Matrix ReluBackward(const Matrix& grad, const Matrix& mask);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& z);

/// Mean cross-entropy over the rows selected by `mask` (mask[i] != 0),
/// with integer class labels. Also emits dZ = (softmax - onehot) /
/// |selected| on the selected rows (zero elsewhere).
struct SoftmaxXentResult {
  double loss = 0.0;
  Matrix grad;            // dL/dZ
  uint32_t correct = 0;   // argmax == label among selected rows
  uint32_t total = 0;
};
SoftmaxXentResult SoftmaxCrossEntropy(const Matrix& logits,
                                      const std::vector<int32_t>& labels,
                                      const std::vector<uint8_t>& mask);

}  // namespace gal

#endif  // GAL_TENSOR_MATRIX_H_
