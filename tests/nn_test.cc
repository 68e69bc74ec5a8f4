#include <cmath>

#include <gtest/gtest.h>

#include "gnn/dataset.h"
#include "graph/generators.h"
#include "nn/gcn.h"
#include "nn/optimizer.h"
#include "nn/sage_concat.h"
#include "tensor/sparse.h"

namespace gal {
namespace {

TEST(OptimizerTest, SgdMovesAgainstGradient) {
  Matrix w(1, 2);
  w.at(0, 0) = 1.0f;
  w.at(0, 1) = -1.0f;
  Sgd opt(0.1f);
  opt.Attach({&w});
  Matrix g(1, 2);
  g.at(0, 0) = 2.0f;
  g.at(0, 1) = -2.0f;
  opt.Step({g});
  EXPECT_FLOAT_EQ(w.at(0, 0), 0.8f);
  EXPECT_FLOAT_EQ(w.at(0, 1), -0.8f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize ||w - target||^2 by gradient steps.
  Matrix w(1, 3);
  Matrix target(1, 3);
  target.at(0, 0) = 1.0f;
  target.at(0, 1) = -2.0f;
  target.at(0, 2) = 0.5f;
  Adam opt(0.05f);
  opt.Attach({&w});
  for (int step = 0; step < 500; ++step) {
    Matrix g = w;
    g.AddScaled(target, -1.0f);  // grad = 2(w - t), constant dropped
    opt.Step({g});
  }
  EXPECT_LT(w.MeanAbsDiff(target), 0.02);
}

/// Numerical gradient check of the full GCN backward pass.
TEST(GcnModelTest, GradientsMatchFiniteDifferences) {
  Graph g = ErdosRenyi(12, 0.3, 5);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  AggregateFn agg = ExactAggregator(&adj);

  Rng rng(3);
  Matrix x = Matrix::Xavier(12, 4, rng);
  std::vector<int32_t> labels(12);
  for (int i = 0; i < 12; ++i) labels[i] = i % 3;
  std::vector<uint8_t> mask(12, 1);

  GcnConfig config;
  config.dims = {4, 5, 3};
  config.seed = 11;
  GcnModel model(config);

  Matrix logits = model.Forward(x, agg);
  SoftmaxXentResult loss = SoftmaxCrossEntropy(logits, labels, mask);
  std::vector<Matrix> grads = model.Backward(loss.grad, agg);
  ASSERT_EQ(grads.size(), 2u);

  auto loss_at = [&]() {
    Matrix l = model.Forward(x, agg);
    return SoftmaxCrossEntropy(l, labels, mask).loss;
  };
  const float eps = 1e-3f;
  for (uint32_t layer = 0; layer < 2; ++layer) {
    Matrix& w = model.mutable_weights()[layer];
    // Spot-check a handful of entries.
    for (uint32_t probe = 0; probe < 6; ++probe) {
      const uint32_t i = probe % w.rows();
      const uint32_t j = (probe * 7) % w.cols();
      const float orig = w.at(i, j);
      w.at(i, j) = orig + eps;
      const double lp = loss_at();
      w.at(i, j) = orig - eps;
      const double lm = loss_at();
      w.at(i, j) = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(numeric, grads[layer].at(i, j), 2e-3)
          << "layer " << layer << " (" << i << "," << j << ")";
    }
  }
}

TEST(GcnModelTest, TrainingLearnsPlantedCommunities) {
  PlantedDatasetOptions opt;
  opt.num_vertices = 400;
  opt.num_classes = 3;
  opt.feature_dim = 8;
  opt.noise = 1.5;
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kSymmetric);
  AggregateFn agg = ExactAggregator(&adj);

  GcnConfig config;
  config.dims = {ds.features.cols(), 16, ds.num_classes};
  GcnModel model(config);
  TrainConfig train;
  train.epochs = 60;
  TrainReport report = TrainNodeClassifier(model, ds.features, ds.labels,
                                           ds.train_mask, ds.test_mask, agg,
                                           train);
  EXPECT_GT(report.final_test_accuracy, 0.85);
  // Loss decreased substantially.
  EXPECT_LT(report.epochs.back().loss, report.epochs.front().loss * 0.5);
}

TEST(GcnModelTest, AggregationBeatsRawFeatures) {
  // Under heavy feature noise, the graph is what carries the signal:
  // a GCN must beat the identity-aggregation (MLP) baseline.
  PlantedDatasetOptions opt;
  opt.num_vertices = 400;
  opt.num_classes = 4;
  opt.noise = 3.0;
  opt.p_in = 0.08;
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kSymmetric);

  AggregateFn graph_agg = ExactAggregator(&adj);
  AggregateFn identity_agg = [](const Matrix& h, uint32_t, bool) {
    return h;
  };

  TrainConfig train;
  train.epochs = 60;
  GcnConfig config;
  config.dims = {ds.features.cols(), 16, ds.num_classes};

  GcnModel gcn(config);
  TrainReport with_graph = TrainNodeClassifier(
      gcn, ds.features, ds.labels, ds.train_mask, ds.test_mask, graph_agg,
      train);
  GcnModel mlp(config);
  TrainReport without_graph = TrainNodeClassifier(
      mlp, ds.features, ds.labels, ds.train_mask, ds.test_mask, identity_agg,
      train);
  EXPECT_GT(with_graph.final_test_accuracy,
            without_graph.final_test_accuracy + 0.1);
}

TEST(GcnModelTest, DeterministicForSeed) {
  NodeClassificationDataset ds = MakePlantedDataset({});
  SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kSymmetric);
  AggregateFn agg = ExactAggregator(&adj);
  TrainConfig train;
  train.epochs = 5;
  GcnConfig config;
  config.dims = {ds.features.cols(), 8, ds.num_classes};
  config.seed = 42;
  GcnModel a(config);
  GcnModel b(config);
  TrainReport ra = TrainNodeClassifier(a, ds.features, ds.labels,
                                       ds.train_mask, ds.test_mask, agg, train);
  TrainReport rb = TrainNodeClassifier(b, ds.features, ds.labels,
                                       ds.train_mask, ds.test_mask, agg, train);
  EXPECT_EQ(ra.final_test_accuracy, rb.final_test_accuracy);
  EXPECT_EQ(ra.epochs.back().loss, rb.epochs.back().loss);
}

// --- GraphSAGE concat model (the survey's layer equations) ----------------

TEST(SageConcatTest, GradientsMatchFiniteDifferences) {
  Graph g = ErdosRenyi(12, 0.3, 7);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kNeighborMean);
  AggregateFn agg = ExactAggregator(&adj);

  Rng rng(5);
  Matrix x = Matrix::Xavier(12, 4, rng);
  std::vector<int32_t> labels(12);
  for (int i = 0; i < 12; ++i) labels[i] = i % 3;
  std::vector<uint8_t> mask(12, 1);

  GcnConfig config;
  config.dims = {4, 5, 3};
  config.seed = 13;
  SageConcatModel model(config);

  Matrix logits = model.Forward(x, agg);
  SoftmaxXentResult loss = SoftmaxCrossEntropy(logits, labels, mask);
  std::vector<Matrix> grads = model.Backward(loss.grad, agg);
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_EQ(grads[0].rows(), 8u);  // 2 * in_dim

  auto loss_at = [&]() {
    Matrix l = model.Forward(x, agg);
    return SoftmaxCrossEntropy(l, labels, mask).loss;
  };
  const float eps = 1e-3f;
  for (uint32_t layer = 0; layer < 2; ++layer) {
    Matrix& w = model.mutable_weights()[layer];
    for (uint32_t probe = 0; probe < 8; ++probe) {
      const uint32_t i = (probe * 3) % w.rows();
      const uint32_t j = (probe * 5) % w.cols();
      const float orig = w.at(i, j);
      w.at(i, j) = orig + eps;
      const double lp = loss_at();
      w.at(i, j) = orig - eps;
      const double lm = loss_at();
      w.at(i, j) = orig;
      EXPECT_NEAR((lp - lm) / (2 * eps), grads[layer].at(i, j), 2e-3)
          << "layer " << layer << " (" << i << "," << j << ")";
    }
  }
}

TEST(SageConcatTest, LearnsHomophilousCommunities) {
  PlantedDatasetOptions opt;
  opt.num_vertices = 400;
  opt.num_classes = 3;
  opt.noise = 1.5;
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kNeighborMean);
  AggregateFn agg = ExactAggregator(&adj);
  GcnConfig config;
  config.dims = {ds.features.cols(), 16, ds.num_classes};
  SageConcatModel model(config);
  TrainConfig train;
  train.epochs = 60;
  TrainReport report = TrainNodeClassifier(
      model, ds.features, ds.labels, ds.train_mask, ds.test_mask, agg, train);
  EXPECT_GT(report.final_test_accuracy, 0.85);
}

TEST(SageConcatTest, ConcatChannelRescuesSelfSignalLostByPureAggregation) {
  // Same neighbor-only aggregator for both models. The vertex's own
  // features carry the label; neighborhoods are label-random (edges
  // ignore classes), so a network that only sees AGGREGATE(h_N) loses
  // the signal, while CONCAT(h_v, h_N) keeps the dedicated self channel
  // — the architectural point of the survey's GraphSAGE equations.
  PlantedDatasetOptions opt;
  opt.num_vertices = 400;
  opt.num_classes = 4;
  opt.p_in = 0.02;
  opt.p_out = 0.02;  // class-independent edges: neighbors carry no label
  opt.signal = 1.5;
  opt.noise = 0.4;
  NodeClassificationDataset ds = MakePlantedDataset(opt);

  TrainConfig train;
  train.epochs = 60;
  // The label-random neighbor channel is pure memorization fodder on
  // ~200 training rows; regularize so the comparison is about signal.
  train.weight_decay = 0.02f;
  GcnConfig config;
  config.dims = {ds.features.cols(), 16, ds.num_classes};

  SparseMatrix nbr_adj = NormalizedAdjacency(ds.graph, AdjNorm::kNeighborMean);
  AggregateFn nbr_agg = ExactAggregator(&nbr_adj);

  GcnModel agg_only_model(config);
  TrainReport agg_only =
      TrainNodeClassifier(agg_only_model, ds.features, ds.labels,
                          ds.train_mask, ds.test_mask, nbr_agg, train);

  SageConcatModel concat_model(config);
  TrainReport concat = TrainNodeClassifier(
      concat_model, ds.features, ds.labels, ds.train_mask, ds.test_mask,
      nbr_agg, train);

  EXPECT_GT(concat.final_test_accuracy, 0.85);
  EXPECT_GT(concat.final_test_accuracy,
            agg_only.final_test_accuracy + 0.15);
}

TEST(SparseTest, NeighborMeanHasNoSelfLoopAndZeroRowsForIsolated) {
  Graph g = std::move(Graph::FromEdges(4, {{0, 1}, {1, 2}}, {}).value());
  SparseMatrix a = NormalizedAdjacency(g, AdjNorm::kNeighborMean);
  // Vertex 3 is isolated: empty row.
  EXPECT_EQ(a.RowIndices(3).size(), 0u);
  // Vertex 1 averages vertices 0 and 2 with weight 1/2, no self.
  auto idx = a.RowIndices(1);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 2u);
  for (float w : a.RowValues(1)) EXPECT_FLOAT_EQ(w, 0.5f);
}

}  // namespace
}  // namespace gal
