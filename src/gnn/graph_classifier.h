#ifndef GAL_GNN_GRAPH_CLASSIFIER_H_
#define GAL_GNN_GRAPH_CLASSIFIER_H_

#include <cstdint>
#include <vector>

#include "graph/transaction_db.h"
#include "nn/gcn.h"
#include "tensor/sparse.h"

namespace gal {

/// Whole-graph classification: GCN vertex embeddings, mean-pool readout
/// per graph, linear head — trained over a TransactionDb batched as one
/// disjoint-union graph. This is the "graph classification" task of
/// Figure 1, and the substrate for the survey's Subgraph-GNN claim:
/// with `subgraph_features` enabled, each vertex's input is augmented
/// with its local subgraph statistics (triangle count, 4-cycle count,
/// clustering), which lifts the model past the 1-WL expressiveness
/// ceiling of plain message passing (Subgraph NNs / ESAN — §1's
/// "more expressive than regular GNNs").
struct GraphClassifierConfig {
  uint32_t hidden_dim = 16;
  uint32_t epochs = 120;
  float lr = 0.02f;
  float weight_decay = 0.002f;
  /// Augment vertex features with local subgraph counts.
  bool subgraph_features = false;
  uint64_t seed = 1;
};

struct GraphClassifierReport {
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  std::vector<double> epoch_loss;
  uint32_t feature_dim = 0;
};

/// Trains on the first 67% of the db's transactions and tests on the
/// rest, so callers shuffle or interleave the classes.
GraphClassifierReport TrainGraphClassifier(const TransactionDb& db,
                                           const GraphClassifierConfig& config);

/// Per-vertex local-subgraph descriptors of one graph: [1, degree,
/// triangle count, clustering coefficient, 4-cycles through the vertex].
Matrix LocalSubgraphFeatures(const Graph& g);

}  // namespace gal

#endif  // GAL_GNN_GRAPH_CLASSIFIER_H_
