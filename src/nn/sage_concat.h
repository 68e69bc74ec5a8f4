#ifndef GAL_NN_SAGE_CONCAT_H_
#define GAL_NN_SAGE_CONCAT_H_

#include <vector>

#include "nn/gcn.h"
#include "tensor/matrix.h"

namespace gal {

/// The GraphSAGE layer exactly as the survey writes it:
///
///   h_N(v)^k = AGGREGATE_k({h_u^{k-1} : u in N(v)})
///   h_v^k    = sigma(W^k · CONCAT(h_v^{k-1}, h_N(v)^k))
///
/// Unlike the GCN/SAGE-mean network (which folds the self vertex into
/// the aggregation), the concatenation keeps the vertex's own
/// representation in a separate channel — which is what lets the model
/// survive heterophilous neighborhoods where averaged neighbors are
/// noise. Weights are (2·d_in) x d_out per layer; gradients are
/// hand-derived and covered by a finite-difference test.
class SageConcatModel {
 public:
  /// dims = {in, hidden..., out}; one weight of shape (2*dims[l],
  /// dims[l+1]) per layer.
  explicit SageConcatModel(const GcnConfig& config);

  uint32_t num_layers() const { return static_cast<uint32_t>(weights_.size()); }
  std::vector<Matrix*> Parameters();
  std::vector<Matrix>& mutable_weights() { return weights_; }

  /// `aggregate` supplies AGGREGATE_k (mean over neighbors, sampled or
  /// exact — same hook as GcnModel, so the distributed policies apply).
  Matrix Forward(const Matrix& features, const AggregateFn& aggregate);
  std::vector<Matrix> Backward(const Matrix& grad_logits,
                               const AggregateFn& aggregate);

 private:
  std::vector<Matrix> weights_;
  // Forward caches.
  std::vector<Matrix> concat_inputs_;  // [H_{l-1} ; Agg(H_{l-1})]
  std::vector<Matrix> relu_masks_;
};

}  // namespace gal

#endif  // GAL_NN_SAGE_CONCAT_H_
