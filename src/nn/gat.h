#ifndef GAL_NN_GAT_H_
#define GAL_NN_GAT_H_

#include <vector>

#include "graph/graph.h"
#include "nn/gcn.h"
#include "tensor/matrix.h"

namespace gal {

/// A single-head Graph Attention Network (the "GAT" the survey names
/// alongside GCN). Layer l computes
///
///   z_i = W h_i
///   e_ij = LeakyReLU(a_src · z_i + a_dst · z_j)   for j in N(i) ∪ {i}
///   α_ij = softmax_j(e_ij)
///   h'_i = σ(Σ_j α_ij z_j)
///
/// Parameters per layer: W (d_in x d_out), a_src and a_dst (1 x d_out).
/// The backward pass is hand-derived (softmax-over-neighbors included)
/// and validated by a finite-difference test. Attention needs edge
/// identities, so the model binds to a Graph rather than the generic
/// AggregateFn hook.
class GatModel {
 public:
  /// `graph` must outlive the model.
  GatModel(const Graph* graph, const GcnConfig& config);

  uint32_t num_layers() const { return static_cast<uint32_t>(weights_.size()); }
  /// Parameters in order: W_0, a_src_0, a_dst_0, W_1, ...
  std::vector<Matrix*> Parameters();
  std::vector<Matrix>& mutable_weights() { return weights_; }
  std::vector<Matrix>& mutable_attn_src() { return attn_src_; }
  std::vector<Matrix>& mutable_attn_dst() { return attn_dst_; }

  Matrix Forward(const Matrix& features);
  /// Returns gradients aligned with Parameters().
  std::vector<Matrix> Backward(const Matrix& grad_logits);

  /// Attention weights of layer l from the last Forward: row-aligned
  /// with AdjacencyOf(i) = {i} ∪ N(i) in (self, sorted-neighbor) order.
  const std::vector<std::vector<float>>& attention(uint32_t layer) const {
    return alpha_[layer];
  }

 private:
  /// Builds the transposed attention-slot index (lazily, once): for each
  /// destination vertex t, the list of (source i, slot j) pairs with
  /// target(i, j) == t, sorted by source. The backward pass gathers over
  /// it so each dz row is written by exactly one shard — the same
  /// transposed-CSR trick the SpMM backward uses.
  void EnsureInEdgeCache();

  const Graph* graph_;
  float leaky_slope_ = 0.2f;
  std::vector<Matrix> weights_;    // d_in x d_out
  std::vector<Matrix> attn_src_;   // 1 x d_out
  std::vector<Matrix> attn_dst_;   // 1 x d_out

  // Forward caches (per layer).
  std::vector<Matrix> inputs_;                       // H_{l-1}
  std::vector<Matrix> z_;                            // H_{l-1} W_l
  std::vector<std::vector<std::vector<float>>> alpha_;   // attention
  std::vector<std::vector<std::vector<float>>> e_raw_;   // pre-LeakyReLU
  std::vector<Matrix> relu_masks_;

  // Transposed attention-slot index (see EnsureInEdgeCache). Slot (i, j)
  // of the flattened per-source layout lives at slot_offsets_[i] + j.
  std::vector<uint64_t> slot_offsets_;    // n + 1
  std::vector<uint64_t> in_edge_offsets_; // n + 1, by destination
  std::vector<VertexId> in_edge_src_;     // source vertex i
  std::vector<uint32_t> in_edge_slot_;    // slot j within i's row
};

/// TrainClassifier over a GatModel.
TrainReport TrainGatClassifier(GatModel& model, const Matrix& features,
                               const std::vector<int32_t>& labels,
                               const std::vector<uint8_t>& train_mask,
                               const std::vector<uint8_t>& test_mask,
                               const TrainConfig& config);

}  // namespace gal

#endif  // GAL_NN_GAT_H_
