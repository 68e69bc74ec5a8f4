// Ablation (survey §3 model landscape): the GNN architectures the paper
// names — GCN, GraphSAGE (the concat equations quoted in §3), and GAT —
// trained on identical node-classification tasks: a homophilous
// community graph, a label-random graph where only self features carry
// signal, and a noisy-feature graph where aggregation must denoise.
// The point is not a leaderboard but that architecture choice interacts
// with graph/feature regime — the reason systems must support a model
// zoo, not one hard-wired network.

#include "bench_util.h"
#include "gnn/dataset.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/sage_concat.h"
#include "tensor/sparse.h"

namespace {

using namespace gal;

struct Scores {
  double gcn;
  double sage;
  double gat;
  double mlp;
};

Scores RunAll(const NodeClassificationDataset& ds, uint32_t epochs) {
  TrainConfig train;
  train.epochs = epochs;
  train.weight_decay = 0.002f;
  GcnConfig config;
  config.dims = {ds.features.cols(), 16, ds.num_classes};

  Scores s{};
  {
    SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kSymmetric);
    AggregateFn agg = ExactAggregator(&adj);
    GcnModel model(config);
    s.gcn = TrainNodeClassifier(model, ds.features, ds.labels, ds.train_mask,
                                ds.test_mask, agg, train)
                .final_test_accuracy;
  }
  {
    SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kNeighborMean);
    AggregateFn agg = ExactAggregator(&adj);
    SageConcatModel model(config);
    s.sage = TrainNodeClassifier(model, ds.features, ds.labels,
                                 ds.train_mask, ds.test_mask, agg, train)
                 .final_test_accuracy;
  }
  {
    GatModel model(&ds.graph, config);
    TrainConfig gat_train = train;
    gat_train.lr = 0.01f;
    s.gat = TrainGatClassifier(model, ds.features, ds.labels, ds.train_mask,
                               ds.test_mask, gat_train)
                .final_test_accuracy;
  }
  {
    AggregateFn identity = [](const Matrix& h, uint32_t, bool) { return h; };
    GcnModel model(config);
    s.mlp = TrainNodeClassifier(model, ds.features, ds.labels, ds.train_mask,
                                ds.test_mask, identity, train)
                .final_test_accuracy;
  }
  return s;
}

}  // namespace

int main() {
  using namespace gal::bench;
  Banner("M1", "the survey's GNN model zoo on three graph/feature regimes");

  Table table({"regime", "MLP (no graph)", "GCN", "GraphSAGE (concat)",
               "GAT"});

  {
    PlantedDatasetOptions opt;  // homophily + moderate feature noise
    opt.num_vertices = 500;
    opt.num_classes = 4;
    opt.noise = 1.5;
    Scores s = RunAll(MakePlantedDataset(opt), 80);
    table.AddRow({"homophilous, noisy features", Fmt("%.3f", s.mlp),
                  Fmt("%.3f", s.gcn), Fmt("%.3f", s.sage),
                  Fmt("%.3f", s.gat)});
  }
  {
    PlantedDatasetOptions opt;  // heavy feature noise: graph is the signal
    opt.num_vertices = 500;
    opt.num_classes = 4;
    opt.p_in = 0.08;
    opt.noise = 3.5;
    Scores s = RunAll(MakePlantedDataset(opt), 80);
    table.AddRow({"homophilous, very noisy features", Fmt("%.3f", s.mlp),
                  Fmt("%.3f", s.gcn), Fmt("%.3f", s.sage),
                  Fmt("%.3f", s.gat)});
  }
  {
    PlantedDatasetOptions opt;  // label-random edges: self features only
    opt.num_vertices = 500;
    opt.num_classes = 4;
    opt.p_in = 0.02;
    opt.p_out = 0.02;
    opt.signal = 1.5;
    opt.noise = 0.4;
    Scores s = RunAll(MakePlantedDataset(opt), 80);
    table.AddRow({"label-random edges, clean features", Fmt("%.3f", s.mlp),
                  Fmt("%.3f", s.gcn), Fmt("%.3f", s.sage),
                  Fmt("%.3f", s.gat)});
  }
  table.Print();
  std::printf("\nShape check: with a homophilous graph the aggregating "
              "models beat the MLP decisively (more so as features get\n"
              "noisier); with label-random edges only GraphSAGE's dedicated "
              "CONCAT self-channel keeps the signal — mean aggregation\n"
              "(GCN) dilutes it and softmax attention (GAT) must *learn* to "
              "focus on the self vertex, which a hard-wired channel gets\n"
              "for free. No single architecture wins every regime — why "
              "GNN systems expose the model rather than hard-coding it.\n");
  return 0;
}
