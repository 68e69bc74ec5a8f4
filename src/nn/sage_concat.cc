#include "nn/sage_concat.h"

#include "common/logging.h"
#include "tensor/kernel_context.h"

namespace gal {
namespace {

/// [A ; B] column-wise concatenation (same row count). Row-parallel on
/// the shared kernel pool — pure copies, so order-independent.
Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  GAL_CHECK(a.rows() == b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  KernelContext::Get().ParallelFor1D(
      a.rows(), out.cols(), [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          float* dst = out.row(static_cast<uint32_t>(r));
          const float* ar = a.row(static_cast<uint32_t>(r));
          const float* br = b.row(static_cast<uint32_t>(r));
          std::copy(ar, ar + a.cols(), dst);
          std::copy(br, br + b.cols(), dst + a.cols());
        }
      });
  return out;
}

/// Splits dC into the gradients of the two concatenated halves.
void SplitCols(const Matrix& dc, uint32_t left_cols, Matrix* dleft,
               Matrix* dright) {
  *dleft = Matrix(dc.rows(), left_cols);
  *dright = Matrix(dc.rows(), dc.cols() - left_cols);
  KernelContext::Get().ParallelFor1D(
      dc.rows(), dc.cols(), [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const float* src = dc.row(static_cast<uint32_t>(r));
          std::copy(src, src + left_cols,
                    dleft->row(static_cast<uint32_t>(r)));
          std::copy(src + left_cols, src + dc.cols(),
                    dright->row(static_cast<uint32_t>(r)));
        }
      });
}

}  // namespace

SageConcatModel::SageConcatModel(const GcnConfig& config) {
  GAL_CHECK(config.dims.size() >= 2);
  Rng rng(config.seed);
  for (size_t l = 0; l + 1 < config.dims.size(); ++l) {
    weights_.push_back(
        Matrix::Xavier(2 * config.dims[l], config.dims[l + 1], rng));
  }
}

std::vector<Matrix*> SageConcatModel::Parameters() {
  std::vector<Matrix*> params;
  for (Matrix& w : weights_) params.push_back(&w);
  return params;
}

Matrix SageConcatModel::Forward(const Matrix& features,
                                const AggregateFn& aggregate) {
  concat_inputs_.clear();
  relu_masks_.clear();
  Matrix h = features;
  for (uint32_t l = 0; l < num_layers(); ++l) {
    Matrix neighborhood = aggregate(h, l, /*backward=*/false);
    Matrix concat = ConcatCols(h, neighborhood);
    Matrix z = Matmul(concat, weights_[l]);
    concat_inputs_.push_back(std::move(concat));
    if (l + 1 < num_layers()) {
      Matrix mask;
      h = ReluForward(z, &mask);
      relu_masks_.push_back(std::move(mask));
    } else {
      h = std::move(z);
    }
  }
  return h;
}

std::vector<Matrix> SageConcatModel::Backward(const Matrix& grad_logits,
                                              const AggregateFn& aggregate) {
  GAL_CHECK(concat_inputs_.size() == num_layers()) << "Forward must run first";
  std::vector<Matrix> grads(num_layers());
  Matrix dz = grad_logits;
  for (uint32_t l = num_layers(); l-- > 0;) {
    grads[l] = MatmulTransposeA(concat_inputs_[l], dz);
    if (l == 0) break;
    Matrix dconcat = MatmulTransposeB(dz, weights_[l]);
    const uint32_t in_cols = concat_inputs_[l].cols() / 2;
    Matrix dh_self;
    Matrix dh_neigh;
    SplitCols(dconcat, in_cols, &dh_self, &dh_neigh);
    // dH_{l-1} = dSelf + Agg^T(dNeighborhood).
    Matrix dh = aggregate(dh_neigh, l, /*backward=*/true);
    dh.AddScaled(dh_self, 1.0f);
    dz = ReluBackward(dh, relu_masks_[l - 1]);
  }
  return grads;
}

}  // namespace gal
