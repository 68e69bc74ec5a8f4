#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "gnn/dataset.h"
#include "gnn/deepwalk.h"
#include "gnn/features.h"
#include "gnn/sage.h"
#include "gnn/sampler.h"
#include "graph/generators.h"

namespace gal {
namespace {

// --- features ----------------------------------------------------------------

TEST(FeaturesTest, PerVertexTrianglesSumsToThreeTimesTotal) {
  Graph g = ErdosRenyi(100, 0.08, 3);
  std::vector<uint64_t> per_vertex = PerVertexTriangles(g);
  uint64_t sum = 0;
  for (uint64_t c : per_vertex) sum += c;
  // Each triangle credited at all three corners.
  uint64_t brute = 0;
  std::vector<VertexId> row;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto nv = g.NeighborsInto(v, row);
    for (VertexId u : nv) {
      if (u <= v) continue;
      for (VertexId w : nv) {
        if (w <= u) continue;
        brute += g.HasEdge(u, w);
      }
    }
  }
  EXPECT_EQ(sum, 3 * brute);
}

TEST(FeaturesTest, PerVertexTrianglesCountAMultigraphsDistinctTriangles) {
  // MatchSweepTest.ParallelEdges' multigraph: each edge of BA(60, 4, 3)
  // listed one to three times. Every corner is credited once per
  // distinct triangle, as in the deduplicated graph.
  std::vector<Edge> edges;
  const std::vector<Edge> simple = BarabasiAlbert(60, 4, 3).CollectEdges();
  for (size_t i = 0; i < simple.size(); ++i) {
    for (size_t copy = 0; copy <= i % 3; ++copy) edges.push_back(simple[i]);
  }
  const std::vector<uint64_t> want =
      PerVertexTriangles(Graph::FromEdges(60, edges).value());
  for (CompressionMode layout :
       {CompressionMode::kNone, CompressionMode::kDeltaVarint}) {
    GraphOptions multigraph;
    multigraph.dedup = false;
    multigraph.compression = layout;
    const Graph g = Graph::FromEdges(60, edges, multigraph).value();
    ASSERT_TRUE(g.HasRepeatedNeighbors());
    EXPECT_EQ(want, PerVertexTriangles(g));
  }
}

TEST(FeaturesTest, ClusteringCoefficientKnownValues) {
  // Triangle: every vertex cc = 1. Path: all 0.
  std::vector<double> tri = ClusteringCoefficients(Complete(3));
  for (double c : tri) EXPECT_DOUBLE_EQ(c, 1.0);
  std::vector<double> path = ClusteringCoefficients(Path(5));
  for (double c : path) EXPECT_DOUBLE_EQ(c, 0.0);
  // Diamond (K4 minus an edge): the two degree-3... vertices 0,1 have
  // degree 3 in K4-minus-{2,3}: cc(0) = 2 triangles / 3 pairs.
  Graph diamond = std::move(
      Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}, {})
          .value());
  std::vector<double> cc = ClusteringCoefficients(diamond);
  EXPECT_NEAR(cc[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cc[2], 1.0, 1e-9);  // degree-2 vertex in one triangle
}

TEST(FeaturesTest, StructuralFeatureMatrixShapeAndRanges) {
  Graph g = Rmat(8, 6, 5);
  Matrix x = StructuralFeatures(g);
  ASSERT_EQ(x.rows(), g.NumVertices());
  ASSERT_EQ(x.cols(), 6u);
  for (uint32_t v = 0; v < x.rows(); ++v) {
    EXPECT_FLOAT_EQ(x.at(v, 0), 1.0f);
    EXPECT_GE(x.at(v, 1), 0.0f);
    EXPECT_LE(x.at(v, 1), 1.0f);
    EXPECT_GE(x.at(v, 3), 0.0f);
    EXPECT_LE(x.at(v, 3), 1.0f);
    EXPECT_GE(x.at(v, 4), 0.0f);
    EXPECT_LE(x.at(v, 4), 1.0f + 1e-6f);
  }
}

// --- dataset -----------------------------------------------------------------

TEST(DatasetTest, PlantedDatasetConsistent) {
  PlantedDatasetOptions opt;
  opt.num_vertices = 200;
  opt.num_classes = 4;
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  EXPECT_EQ(ds.labels.size(), 200u);
  EXPECT_EQ(ds.features.rows(), 200u);
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_LT(ds.labels[v], 4);
    // Exactly one of train/test.
    EXPECT_EQ(ds.train_mask[v] + ds.test_mask[v], 1);
  }
  EXPECT_GT(ds.TrainVertices().size(), 50u);
}

TEST(DatasetTest, FeaturesCarryClassSignal) {
  std::vector<int32_t> labels = {0, 1, 2, 0, 1, 2};
  Matrix x = SyntheticNodeFeatures(labels, 3, 8, 5.0, 0.1, 7);
  for (uint32_t v = 0; v < 6; ++v) {
    uint32_t argmax = 0;
    for (uint32_t j = 1; j < 3; ++j) {
      if (x.at(v, j) > x.at(v, argmax)) argmax = j;
    }
    EXPECT_EQ(argmax, static_cast<uint32_t>(labels[v]));
  }
}

// --- sampler -----------------------------------------------------------------

TEST(SamplerTest, BlockShapesChainCorrectly) {
  Graph g = Rmat(8, 6, 3);
  std::vector<VertexId> seeds = {1, 5, 9, 13};
  MiniBatch batch = BuildMiniBatch(g, seeds, {5, 5}, 11);
  ASSERT_EQ(batch.blocks.size(), 2u);
  // Output of the last block = seeds.
  EXPECT_EQ(batch.blocks[1].output_vertices, seeds);
  // Chaining: inputs of block 1 are the outputs of block 0.
  EXPECT_EQ(batch.blocks[0].output_vertices, batch.blocks[1].input_vertices);
  EXPECT_EQ(batch.blocks[1].op.rows(), seeds.size());
  EXPECT_EQ(batch.blocks[1].op.cols(),
            batch.blocks[1].input_vertices.size());
  EXPECT_EQ(batch.input_rows, batch.blocks[0].input_vertices.size());
}

TEST(SamplerTest, FanoutBoundsSampledNeighbors) {
  Graph g = Star(100);  // hub has degree 99
  MiniBatch batch = BuildMiniBatch(g, {0}, {5}, 3);
  // Hub sampled at most 5 neighbors + itself.
  EXPECT_LE(batch.blocks[0].input_vertices.size(), 6u);
  EXPECT_EQ(batch.blocks[0].sampled_edges, 5u);
}

TEST(SamplerTest, ZeroFanoutKeepsAllNeighbors) {
  Graph g = Star(50);
  MiniBatch batch = BuildMiniBatch(g, {0}, {0}, 3);
  EXPECT_EQ(batch.blocks[0].input_vertices.size(), 50u);
}

TEST(SamplerTest, RowsAreMeanNormalized) {
  Graph g = Rmat(7, 5, 9);
  MiniBatch batch = BuildMiniBatch(g, {3, 8}, {4, 4}, 5);
  for (const SampledBlock& block : batch.blocks) {
    for (uint32_t r = 0; r < block.op.rows(); ++r) {
      float sum = 0;
      for (float v : block.op.RowValues(r)) sum += v;
      EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
  }
}

TEST(SamplerTest, DeterministicForSeed) {
  Graph g = Rmat(8, 6, 1);
  MiniBatch a = BuildMiniBatch(g, {2, 4, 6}, {3, 3}, 77);
  MiniBatch b = BuildMiniBatch(g, {2, 4, 6}, {3, 3}, 77);
  EXPECT_EQ(a.blocks[0].input_vertices, b.blocks[0].input_vertices);
  EXPECT_EQ(a.total_sampled_edges, b.total_sampled_edges);
}

TEST(SamplerTest, SmallerFanoutGathersFewerRows) {
  Graph g = Rmat(9, 8, 5);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 32; ++v) seeds.push_back(v * 3);
  MiniBatch full = BuildMiniBatch(g, seeds, {0, 0}, 1);
  MiniBatch sampled = BuildMiniBatch(g, seeds, {5, 5}, 1);
  EXPECT_LT(sampled.input_rows, full.input_rows);
}

TEST(SamplerTest, KHopMaterializationAccounting) {
  Graph g = Rmat(8, 8, 7);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 50; ++v) seeds.push_back(v);
  KHopMaterializationStats stats = MaterializeKHop(g, seeds, {10, 10}, 16, 3);
  EXPECT_GT(stats.total_stored_vertices, seeds.size());
  EXPECT_GT(stats.storage_bytes, 0u);
  EXPECT_GT(stats.blowup_vs_graph, 0.0);
}

// --- minibatch SAGE ------------------------------------------------------------

TEST(SageTest, LearnsPlantedCommunities) {
  PlantedDatasetOptions opt;
  opt.num_vertices = 400;
  opt.num_classes = 3;
  opt.noise = 1.5;
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  SageConfig config;
  config.epochs = 8;
  config.fanouts = {8, 8};
  SageReport report = TrainSageMinibatch(ds, config);
  EXPECT_GT(report.final_test_accuracy, 0.8);
  EXPECT_GT(report.feature_rows_gathered, 0u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
}

TEST(SageTest, SamplingReducesGatheredBytes) {
  PlantedDatasetOptions opt;
  opt.num_vertices = 500;
  opt.p_in = 0.1;
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  SageConfig full;
  full.epochs = 2;
  full.fanouts = {0, 0};
  SageConfig sampled;
  sampled.epochs = 2;
  sampled.fanouts = {5, 5};
  SageReport rf = TrainSageMinibatch(ds, full);
  SageReport rs = TrainSageMinibatch(ds, sampled);
  EXPECT_LT(rs.feature_bytes_gathered, rf.feature_bytes_gathered);
}

// --- DeepWalk / node2vec ----------------------------------------------------

TEST(DeepWalkTest, BiasedWalksFollowEdges) {
  // p = q = 1 is DeepWalk's first-order walk: each walk starts at its
  // seed vertex, follows edges, and ends after walk_length steps or at a
  // dead end.
  Graph g = Rmat(7, 5, 3);
  BiasedWalkResult r = Node2VecWalks(g, 2, 6, 1.0, 1.0, 9);
  ASSERT_EQ(r.corpus.size(), g.NumVertices() * 2u);
  for (uint32_t w = 0; w < r.corpus.size(); ++w) {
    const auto& walk = r.corpus[w];
    ASSERT_GE(walk.size(), 1u);
    ASSERT_LE(walk.size(), 7u);
    EXPECT_EQ(walk[0], w / 2);
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      ASSERT_TRUE(g.HasEdge(walk[i], walk[i + 1]));
    }
  }
  // A complete graph has no dead end, so every walk reaches full length.
  for (const auto& walk :
       Node2VecWalks(Complete(10), 2, 4, 1.0, 1.0, 9).corpus) {
    EXPECT_EQ(walk.size(), 5u);
  }
  // Vertex 2 is isolated: its walk is just the seed.
  const Graph dead_end = Graph::FromEdges(3, {{0, 1}}, {}).value();
  EXPECT_EQ(Node2VecWalks(dead_end, 1, 6, 1.0, 1.0, 9).corpus[2].size(), 1u);
}

TEST(DeepWalkTest, DeterministicAcrossWorkerCounts) {
  Graph g = Rmat(6, 4, 5);
  TlavConfig one;
  one.num_workers = 1;
  TlavConfig eight;
  eight.num_workers = 8;
  BiasedWalkResult a = Node2VecWalks(g, 2, 5, 0.5, 2.0, 7, one);
  BiasedWalkResult b = Node2VecWalks(g, 2, 5, 0.5, 2.0, 7, eight);
  EXPECT_EQ(a.corpus, b.corpus);
}

TEST(DeepWalkTest, HighReturnBiasRevisitsMore) {
  // p << 1 makes hopping back likely, so walks touch fewer distinct
  // vertices than outward-biased walks (q << 1).
  Graph g = Grid(20, 20);
  auto mean_distinct = [&](double p, double q) {
    BiasedWalkResult r = Node2VecWalks(g, 2, 10, p, q, 11);
    double total = 0.0;
    for (const auto& walk : r.corpus) {
      std::set<VertexId> distinct(walk.begin(), walk.end());
      total += static_cast<double>(distinct.size());
    }
    return total / static_cast<double>(r.corpus.size());
  };
  EXPECT_GT(mean_distinct(10.0, 0.25), mean_distinct(0.1, 4.0) + 1.0);
}

TEST(DeepWalkTest, EmbeddingsSeparateCommunities) {
  Graph g = PlantedPartition(200, 4, 0.2, 0.005, 13);
  DeepWalkOptions opt;
  opt.dim = 16;
  opt.walks_per_vertex = 6;
  opt.walk_length = 8;
  DeepWalkResult r = DeepWalkEmbeddings(g, opt);
  ASSERT_EQ(r.embeddings.rows(), 200u);
  EXPECT_GT(r.sgns_updates, 10000u);

  // Mean cosine similarity within communities must exceed across.
  auto cosine = [&](VertexId a, VertexId b) {
    const float* x = r.embeddings.row(a);
    const float* y = r.embeddings.row(b);
    double dot = 0, nx = 0, ny = 0;
    for (uint32_t d = 0; d < opt.dim; ++d) {
      dot += x[d] * y[d];
      nx += x[d] * x[d];
      ny += y[d] * y[d];
    }
    return dot / (std::sqrt(nx) * std::sqrt(ny) + 1e-12);
  };
  Rng rng(3);
  double intra = 0, inter = 0;
  int intra_n = 0, inter_n = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    VertexId a = static_cast<VertexId>(rng.Uniform(200));
    VertexId b = static_cast<VertexId>(rng.Uniform(200));
    if (a == b) continue;
    if (g.LabelOf(a) == g.LabelOf(b)) {
      intra += cosine(a, b);
      ++intra_n;
    } else {
      inter += cosine(a, b);
      ++inter_n;
    }
  }
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.2);
}

}  // namespace
}  // namespace gal
