#ifndef GAL_GNN_DATASET_H_
#define GAL_GNN_DATASET_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace gal {

/// A node-classification task: graph topology, per-vertex features,
/// integer class labels, and train/test splits — the input shape of
/// every distributed-GNN experiment in the survey.
struct NodeClassificationDataset {
  Graph graph;
  Matrix features;              // |V| x dim
  std::vector<int32_t> labels;  // class per vertex
  std::vector<uint8_t> train_mask;
  std::vector<uint8_t> test_mask;

  uint32_t num_classes = 0;
  std::vector<VertexId> TrainVertices() const;
};

struct PlantedDatasetOptions {
  VertexId num_vertices = 600;
  uint32_t num_classes = 4;
  double p_in = 0.06;
  double p_out = 0.003;
  uint32_t feature_dim = 16;
  /// Features are class-signal + Gaussian noise; aggregation over a
  /// homophilous graph denoises them, so GNN accuracy responds to the
  /// fidelity of aggregation (sampling, staleness, quantization).
  double signal = 1.0;
  double noise = 2.0;
  uint64_t seed = 1;
};

/// Planted-partition dataset: community structure aligned with labels,
/// noisy class-coded features, and each vertex in the train split with
/// probability 1/2 (else the test split). The synthetic stand-in for the
/// ogbn/Reddit-style benchmarks the surveyed systems evaluate on.
NodeClassificationDataset MakePlantedDataset(
    const PlantedDatasetOptions& options = {});

/// Noisy class-coded features for any labeled vertex set: the first
/// num_classes columns carry `signal` at the label position, all
/// columns carry N(0, noise) jitter. Extra columns are pure noise.
Matrix SyntheticNodeFeatures(const std::vector<int32_t>& labels,
                             uint32_t num_classes, uint32_t dim,
                             double signal, double noise, uint64_t seed);

}  // namespace gal

#endif  // GAL_GNN_DATASET_H_
