#include "gnn/dataset.h"

#include "common/logging.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace gal {

std::vector<VertexId> NodeClassificationDataset::TrainVertices() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < train_mask.size(); ++v) {
    if (train_mask[v]) out.push_back(v);
  }
  return out;
}

Matrix SyntheticNodeFeatures(const std::vector<int32_t>& labels,
                             uint32_t num_classes, uint32_t dim,
                             double signal, double noise, uint64_t seed) {
  GAL_CHECK(dim >= num_classes);
  Rng rng(seed);
  Matrix x(static_cast<uint32_t>(labels.size()), dim);
  for (uint32_t v = 0; v < labels.size(); ++v) {
    for (uint32_t j = 0; j < dim; ++j) {
      x.at(v, j) = static_cast<float>(rng.NextGaussian() * noise);
    }
    GAL_CHECK(labels[v] >= 0 &&
              static_cast<uint32_t>(labels[v]) < num_classes);
    x.at(v, static_cast<uint32_t>(labels[v])) += static_cast<float>(signal);
  }
  return x;
}

NodeClassificationDataset MakePlantedDataset(
    const PlantedDatasetOptions& options) {
  NodeClassificationDataset ds;
  ds.graph = PlantedPartition(options.num_vertices, options.num_classes,
                              options.p_in, options.p_out, options.seed);
  ds.num_classes = options.num_classes;
  ds.labels.reserve(options.num_vertices);
  for (Label l : ds.graph.labels()) {
    ds.labels.push_back(static_cast<int32_t>(l));
  }
  ds.features =
      SyntheticNodeFeatures(ds.labels, options.num_classes,
                            options.feature_dim, options.signal,
                            options.noise, options.seed + 1);
  constexpr double kTrainFraction = 0.5;
  Rng rng(options.seed + 2);
  ds.train_mask.assign(options.num_vertices, 0);
  ds.test_mask.assign(options.num_vertices, 0);
  for (VertexId v = 0; v < options.num_vertices; ++v) {
    if (rng.Bernoulli(kTrainFraction)) {
      ds.train_mask[v] = 1;
    } else {
      ds.test_mask[v] = 1;
    }
  }
  return ds;
}

}  // namespace gal
