#ifndef GAL_NN_GCN_H_
#define GAL_NN_GCN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gal {

/// The neighborhood-aggregation hook of a GCN layer. `layer` is the
/// 0-based layer index; `backward` distinguishes the forward gather
/// (Â·H) from the gradient scatter (Â^T·G). The distributed simulator
/// substitutes implementations that account bytes, quantize payloads or
/// serve stale rows — exactly the "graph data communication" stage of
/// the survey's GNN-system anatomy.
using AggregateFn =
    std::function<Matrix(const Matrix& h, uint32_t layer, bool backward)>;

/// Exact in-memory aggregation with the given operator.
AggregateFn ExactAggregator(const SparseMatrix* adj);

struct GcnConfig {
  std::vector<uint32_t> dims;  // e.g. {in, hidden, classes}
  uint64_t seed = 1;
};

/// A multi-layer graph convolutional network with hand-derived
/// backpropagation (GraphSAGE-mean is the same network under the
/// row-mean operator; the survey's layer equations specialize to
/// Z_l = Agg(H_{l-1}) W_l, H_l = σ(Z_l)).
class GcnModel {
 public:
  explicit GcnModel(const GcnConfig& config);

  uint32_t num_layers() const { return static_cast<uint32_t>(weights_.size()); }
  std::vector<Matrix*> Parameters();
  const std::vector<Matrix>& weights() const { return weights_; }
  std::vector<Matrix>& mutable_weights() { return weights_; }

  /// Forward pass; returns logits (rows = vertices of `features`).
  /// Caches activations for Backward.
  Matrix Forward(const Matrix& features, const AggregateFn& aggregate);

  /// Backward from dL/dlogits; returns per-weight gradients (aligned
  /// with Parameters()). Must follow a Forward with the same aggregate.
  std::vector<Matrix> Backward(const Matrix& grad_logits,
                               const AggregateFn& aggregate);

 private:
  std::vector<Matrix> weights_;        // weights_[l]: dims[l] x dims[l+1]
  // Forward caches.
  std::vector<Matrix> agg_inputs_;     // Agg(H_{l-1}) per layer
  std::vector<Matrix> relu_masks_;     // per non-final layer
};

/// One full training run of the model on a node-classification task.
struct TrainConfig {
  uint32_t epochs = 50;
  float lr = 0.05f;
  bool use_adam = true;
  /// L2 regularization strength (0 = off); added to every weight
  /// gradient as weight_decay * W.
  float weight_decay = 0.0f;
};

struct EpochMetrics {
  double loss = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
};

struct TrainReport {
  std::vector<EpochMetrics> epochs;
  double final_train_accuracy = 0.0;
  double final_test_accuracy = 0.0;
};

/// What the node-classifier training loop needs of a model: its
/// parameters, a forward pass returning logits, and a backward pass
/// from dL/dlogits returning gradients aligned with `params`.
struct ClassifierModel {
  std::vector<Matrix*> params;
  std::function<Matrix()> forward;
  std::function<std::vector<Matrix>(const Matrix& grad_logits)> backward;
};

/// The one node-classifier training loop, which every model runs:
/// trains on rows with train_mask set, evaluates on test_mask rows each
/// epoch, then once more with the trained weights.
TrainReport TrainClassifier(const ClassifierModel& model,
                            const std::vector<int32_t>& labels,
                            const std::vector<uint8_t>& train_mask,
                            const std::vector<uint8_t>& test_mask,
                            const TrainConfig& config);

/// TrainClassifier over a model whose passes run under `aggregate`
/// (GcnModel, SageConcatModel).
template <typename Model>
TrainReport TrainNodeClassifier(Model& model, const Matrix& features,
                                const std::vector<int32_t>& labels,
                                const std::vector<uint8_t>& train_mask,
                                const std::vector<uint8_t>& test_mask,
                                const AggregateFn& aggregate,
                                const TrainConfig& config) {
  return TrainClassifier(
      {model.Parameters(),
       [&] { return model.Forward(features, aggregate); },
       [&](const Matrix& g) { return model.Backward(g, aggregate); }},
      labels, train_mask, test_mask, config);
}

}  // namespace gal

#endif  // GAL_NN_GCN_H_
