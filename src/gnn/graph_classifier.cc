#include "gnn/graph_classifier.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "graph/intersect.h"
#include "tensor/kernel_context.h"

namespace gal {

Matrix LocalSubgraphFeatures(const Graph& g) {
  const VertexId n = g.NumVertices();
  Matrix x(n, 5);
  const float max_degree = std::max<uint32_t>(1, g.MaxDegree());

  // Each vertex fills only its own feature row (the co-neighbor map is
  // loop-local), so the structural sweep shards cleanly over vertices.
  const uint64_t avg_deg = 1 + g.NumAdjacencyEntries() / std::max<VertexId>(1, n);
  KernelContext::Get().ParallelFor1D(
      n, avg_deg * avg_deg, [&](size_t v_begin, size_t v_end) {
  // Chunk-local decode buffers: allocated once per shard, reused for
  // every vertex in it (steady-state zero-allocation under compression).
  NeighborScratch scratch;
  for (VertexId v = static_cast<VertexId>(v_begin);
       v < static_cast<VertexId>(v_end); ++v) {
    // Triangles through v: pairs of adjacent neighbors. One row decode
    // per neighbor i, then sorted membership probes for each j > i.
    uint64_t triangles = 0;
    const auto nv = g.NeighborsInto(v, scratch.a);
    for (size_t i = 0; i < nv.size(); ++i) {
      const auto ni = g.NeighborsInto(nv[i], scratch.b);
      for (size_t j = i + 1; j < nv.size(); ++j) {
        triangles += std::binary_search(ni.begin(), ni.end(), nv[j]);
      }
    }
    // 4-cycles through v: an opposite vertex w plus a pair of common
    // neighbors {a, b} of v and w.
    std::unordered_map<VertexId, uint32_t> co_neighbors;
    for (VertexId a : nv) {
      g.ForEachOutNeighbor(a, [&](VertexId w) {
        if (w != v) ++co_neighbors[w];
      });
    }
    uint64_t cycles = 0;
    for (const auto& [w, c] : co_neighbors) {
      cycles += static_cast<uint64_t>(c) * (c - 1) / 2;
    }
    const double d = g.Degree(v);
    x.at(v, 0) = 1.0f;
    x.at(v, 1) = static_cast<float>(d / max_degree);
    x.at(v, 2) = static_cast<float>(triangles);
    x.at(v, 3) = d >= 2 ? static_cast<float>(2.0 * triangles / (d * (d - 1)))
                        : 0.0f;
    x.at(v, 4) = static_cast<float>(cycles);
  }
  });
  return x;
}

GraphClassifierReport TrainGraphClassifier(
    const TransactionDb& db, const GraphClassifierConfig& config) {
  GAL_CHECK(db.size() >= 4);
  // --- batch the transactions as one disjoint-union graph --------------
  VertexId total = 0;
  int32_t num_classes = 0;
  std::vector<VertexId> offset(db.size());
  for (uint32_t t = 0; t < db.size(); ++t) {
    offset[t] = total;
    total += db[t].graph.NumVertices();
    GAL_CHECK(db[t].class_label >= 0);
    num_classes = std::max(num_classes, db[t].class_label + 1);
  }
  std::vector<Edge> union_edges;
  for (uint32_t t = 0; t < db.size(); ++t) {
    for (const Edge& e : db[t].graph.CollectEdges()) {
      union_edges.push_back({e.src + offset[t], e.dst + offset[t]});
    }
  }
  Result<Graph> union_graph =
      Graph::FromEdges(total, std::move(union_edges), GraphOptions{});
  GAL_CHECK(union_graph.ok()) << union_graph.status();

  // --- vertex features ---------------------------------------------------
  // Label alphabet across the db (atom types) -> one-hot columns.
  std::unordered_map<Label, uint32_t> label_column;
  for (uint32_t t = 0; t < db.size(); ++t) {
    if (!db[t].graph.IsLabeled()) continue;
    for (Label l : db[t].graph.labels()) {
      label_column.emplace(l, static_cast<uint32_t>(label_column.size()));
    }
  }
  const uint32_t base_dim = 2;  // [1, degree]
  const uint32_t label_dim = static_cast<uint32_t>(label_column.size());
  const uint32_t sub_dim = config.subgraph_features ? 3 : 0;
  uint32_t dim = base_dim + label_dim + sub_dim;
  Matrix x(total, dim);
  for (uint32_t t = 0; t < db.size(); ++t) {
    Matrix local = LocalSubgraphFeatures(db[t].graph);
    for (VertexId v = 0; v < db[t].graph.NumVertices(); ++v) {
      const VertexId row = offset[t] + v;
      x.at(row, 0) = local.at(v, 0);
      x.at(row, 1) = local.at(v, 1);
      if (db[t].graph.IsLabeled()) {
        x.at(row, base_dim + label_column[db[t].graph.LabelOf(v)]) = 1.0f;
      }
      if (config.subgraph_features) {
        x.at(row, base_dim + label_dim + 0) = local.at(v, 2);  // triangles
        x.at(row, base_dim + label_dim + 1) = local.at(v, 3);  // clustering
        x.at(row, base_dim + label_dim + 2) = local.at(v, 4);  // 4-cycles
      }
    }
  }

  // --- mean-pool readout operator ----------------------------------------
  std::vector<std::tuple<uint32_t, uint32_t, float>> pool_triplets;
  for (uint32_t t = 0; t < db.size(); ++t) {
    const float inv = 1.0f / db[t].graph.NumVertices();
    for (VertexId v = 0; v < db[t].graph.NumVertices(); ++v) {
      pool_triplets.emplace_back(t, offset[t] + v, inv);
    }
  }
  SparseMatrix pool = SparseMatrix::FromTriplets(
      static_cast<uint32_t>(db.size()), total, std::move(pool_triplets));

  // --- model ---------------------------------------------------------------
  SparseMatrix adj =
      NormalizedAdjacency(union_graph.value(), AdjNorm::kSymmetric);
  AggregateFn agg = ExactAggregator(&adj);
  GcnConfig gcn_config;
  gcn_config.dims = {dim, config.hidden_dim, config.hidden_dim};
  gcn_config.seed = config.seed;
  GcnModel gcn(gcn_config);
  Rng rng(config.seed + 7);
  Matrix head = Matrix::Xavier(config.hidden_dim,
                               static_cast<uint32_t>(num_classes), rng);

  std::vector<Matrix*> params = gcn.Parameters();
  params.push_back(&head);

  std::vector<int32_t> labels(db.size());
  std::vector<uint8_t> train_mask(db.size(), 0);
  std::vector<uint8_t> test_mask(db.size(), 0);
  const uint32_t train_count =
      static_cast<uint32_t>(config.train_fraction * db.size());
  for (uint32_t t = 0; t < db.size(); ++t) {
    labels[t] = db[t].class_label;
    (t < train_count ? train_mask : test_mask)[t] = 1;
  }

  Matrix pooled;  // graphs x hidden, from the last forward
  const ClassifierModel model{
      params,
      [&] {
        pooled = pool.Multiply(gcn.Forward(x, agg));
        return Matmul(pooled, head);  // graphs x classes
      },
      [&](const Matrix& grad_logits) {
        // Backward: head, then through the pool into the GCN.
        Matrix dhead = MatmulTransposeA(pooled, grad_logits);
        Matrix dpooled = MatmulTransposeB(grad_logits, head);
        std::vector<Matrix> grads =
            gcn.Backward(pool.TransposeMultiply(dpooled), agg);
        grads.push_back(std::move(dhead));
        return grads;
      }};
  TrainConfig train_config;
  train_config.epochs = config.epochs;
  train_config.lr = config.lr;
  train_config.weight_decay = config.weight_decay;
  const TrainReport trained =
      TrainClassifier(model, labels, train_mask, test_mask, train_config);

  GraphClassifierReport report;
  report.feature_dim = dim;
  for (const EpochMetrics& m : trained.epochs) {
    report.epoch_loss.push_back(m.loss);
  }
  report.train_accuracy = trained.final_train_accuracy;
  report.test_accuracy = trained.final_test_accuracy;
  return report;
}

}  // namespace gal
