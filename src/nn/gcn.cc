#include "nn/gcn.h"

#include <memory>

#include "common/logging.h"
#include "nn/optimizer.h"
#include "tensor/kernel_context.h"

namespace gal {

AggregateFn ExactAggregator(const SparseMatrix* adj) {
  return [adj](const Matrix& h, uint32_t /*layer*/, bool backward) {
    return backward ? adj->TransposeMultiply(h) : adj->Multiply(h);
  };
}

GcnModel::GcnModel(const GcnConfig& config) {
  GAL_CHECK(config.dims.size() >= 2);
  Rng rng(config.seed);
  for (size_t l = 0; l + 1 < config.dims.size(); ++l) {
    weights_.push_back(
        Matrix::Xavier(config.dims[l], config.dims[l + 1], rng));
  }
}

std::vector<Matrix*> GcnModel::Parameters() {
  std::vector<Matrix*> params;
  for (Matrix& w : weights_) params.push_back(&w);
  return params;
}

Matrix GcnModel::Forward(const Matrix& features, const AggregateFn& aggregate) {
  agg_inputs_.clear();
  relu_masks_.clear();
  Matrix h = features;
  for (uint32_t l = 0; l < num_layers(); ++l) {
    Matrix agg = aggregate(h, l, /*backward=*/false);
    Matrix z = Matmul(agg, weights_[l]);
    agg_inputs_.push_back(std::move(agg));
    if (l + 1 < num_layers()) {
      Matrix mask;
      h = ReluForward(z, &mask);
      relu_masks_.push_back(std::move(mask));
    } else {
      h = std::move(z);  // logits
    }
  }
  return h;
}

std::vector<Matrix> GcnModel::Backward(const Matrix& grad_logits,
                                       const AggregateFn& aggregate) {
  GAL_CHECK(agg_inputs_.size() == num_layers()) << "Forward must run first";
  std::vector<Matrix> grads(num_layers());
  Matrix dz = grad_logits;
  for (uint32_t l = num_layers(); l-- > 0;) {
    // Z_l = Agg(H_{l-1}) W_l.
    grads[l] = MatmulTransposeA(agg_inputs_[l], dz);
    if (l == 0) break;
    Matrix dagg = MatmulTransposeB(dz, weights_[l]);  // dL/dAgg(H_{l-1})
    Matrix dh = aggregate(dagg, l, /*backward=*/true);
    dz = ReluBackward(dh, relu_masks_[l - 1]);
  }
  return grads;
}

TrainReport TrainClassifier(const ClassifierModel& model,
                            const std::vector<int32_t>& labels,
                            const std::vector<uint8_t>& train_mask,
                            const std::vector<uint8_t>& test_mask,
                            const TrainConfig& config) {
  std::unique_ptr<Optimizer> opt;
  if (config.use_adam) {
    opt = std::make_unique<Adam>(config.lr);
  } else {
    opt = std::make_unique<Sgd>(config.lr);
  }
  opt->Attach(model.params);

  // Pre-warm the shared kernel pool so worker spawn cost lands before
  // the first epoch, not inside it (same policy as the pipeline benches).
  KernelContext::Get();

  auto accuracy = [](const SoftmaxXentResult& r) {
    return r.total ? static_cast<double>(r.correct) / r.total : 0.0;
  };
  TrainReport report;
  for (uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    Matrix logits = model.forward();
    SoftmaxXentResult train = SoftmaxCrossEntropy(logits, labels, train_mask);
    std::vector<Matrix> grads = model.backward(train.grad);
    if (config.weight_decay > 0.0f) {
      for (size_t i = 0; i < grads.size(); ++i) {
        grads[i].AddScaled(*model.params[i], config.weight_decay);
      }
    }
    opt->Step(grads);

    SoftmaxXentResult test = SoftmaxCrossEntropy(logits, labels, test_mask);
    report.epochs.push_back({train.loss, accuracy(train), accuracy(test)});
  }
  // Final evaluation with trained weights.
  const Matrix logits = model.forward();
  report.final_train_accuracy =
      accuracy(SoftmaxCrossEntropy(logits, labels, train_mask));
  report.final_test_accuracy =
      accuracy(SoftmaxCrossEntropy(logits, labels, test_mask));
  return report;
}

}  // namespace gal
