// Parity suite for the cache-layout and SIMD pass: vertex reordering
// (GraphOptions::reorder), adjacency compression
// (GraphOptions::compression), and the vector kernels (common/simd.h)
// are pure performance knobs — every algorithm result must be
// bit-identical to the scalar run on the unordered, uncompressed
// layout, across thread counts and simulated-worker counts. The
// scalar/unordered path is the reference; these tests are what keeps
// the fast paths honest (they also run under TSan, once with
// GAL_SIMD=0, and once with GAL_GRAPH_COMPRESSION=1 via
// scripts/check.sh). MultigraphTest holds k-truss and clique mining on
// a graph that repeats edges to the deduplicated graph's answer.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/intersect.h"
#include "tensor/kernel_context.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"
#include "tlag/algos/cliques.h"
#include "tlag/algos/ktruss.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

const ReorderMode kAllModes[] = {ReorderMode::kNone, ReorderMode::kDegreeDesc,
                                 ReorderMode::kHubCluster};

const CompressionMode kAllCompression[] = {CompressionMode::kNone,
                                           CompressionMode::kDeltaVarint};

/// Scoped SIMD on/off switch; restores the previous setting on exit.
struct SimdGuard {
  explicit SimdGuard(bool on) : prev(simd::SetEnabled(on)) {}
  ~SimdGuard() { simd::SetEnabled(prev); }
  bool prev;
};

/// Restores default thread policies when a test exits.
struct ThreadGuard {
  ~ThreadGuard() {
    KernelContext::Get().SetNumThreads(0);
    unsetenv("GAL_TASK_THREADS");
  }
};

void SetHostThreads(uint32_t t) {
  setenv("GAL_TASK_THREADS", std::to_string(t).c_str(), 1);
}

/// Rebuilds `g`'s edge list under a reordering / compression mode. The
/// input graph is the caller's original-id ground truth.
Graph Rebuild(const Graph& g, ReorderMode mode,
              CompressionMode compression = CompressionMode::kNone) {
  GraphOptions options;
  options.directed = g.directed();
  options.reorder = mode;
  options.compression = compression;
  Result<Graph> r = Graph::FromEdges(g.NumVertices(), g.CollectEdges(), options);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r.value());
}

// --- graph-level invariants -------------------------------------------------

TEST(GraphReorderTest, PermutationIsABijectionPreservingAdjacency) {
  const Graph g = BarabasiAlbert(300, 3, 7);
  std::vector<VertexId> want_row;
  for (ReorderMode mode : {ReorderMode::kDegreeDesc, ReorderMode::kHubCluster}) {
    for (CompressionMode compression : kAllCompression) {
      const Graph r = Rebuild(g, mode, compression);
      ASSERT_TRUE(r.IsReordered());
      EXPECT_EQ(r.reorder_mode(), mode);
      EXPECT_EQ(r.NumVertices(), g.NumVertices());
      EXPECT_EQ(r.NumEdges(), g.NumEdges());
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(r.OriginalId(r.InternalId(v)), v);
        EXPECT_EQ(r.Degree(r.InternalId(v)), g.Degree(v));
        // The neighborhood, mapped back to original ids, must match.
        std::vector<VertexId> nbrs;
        r.ForEachOutNeighbor(r.InternalId(v), [&](VertexId u) {
          nbrs.push_back(r.OriginalId(u));
        });
        std::sort(nbrs.begin(), nbrs.end());
        const auto want = g.NeighborsInto(v, want_row);
        ASSERT_EQ(nbrs.size(), want.size()) << "vertex " << v;
        EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), want.begin()));
      }
    }
  }
}

TEST(GraphReorderTest, DegreeDescPlacesHubsFirst) {
  const Graph r = Rebuild(BarabasiAlbert(200, 4, 3), ReorderMode::kDegreeDesc);
  for (VertexId v = 0; v + 1 < r.NumVertices(); ++v) {
    EXPECT_GE(r.Degree(v), r.Degree(v + 1)) << "internal id " << v;
  }
}

TEST(GraphReorderTest, LabelsStayInOriginalSpaceAndViewsShareMaps) {
  Graph g = PlantedPartition(120, 3, 0.2, 0.02, 11);
  const std::vector<Label> labels = g.labels();
  ASSERT_FALSE(labels.empty());
  Graph r = Rebuild(g, ReorderMode::kHubCluster);
  ASSERT_TRUE(r.SetLabels(labels).ok());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(r.LabelOf(r.InternalId(v)), labels[v]);
  }
  // MapToOriginal inverts the layout permutation.
  std::vector<uint32_t> per_internal(r.NumVertices());
  for (VertexId v = 0; v < r.NumVertices(); ++v) {
    per_internal[v] = r.OriginalId(v) * 10;
  }
  const std::vector<uint32_t> mapped = r.MapToOriginal(per_internal);
  for (VertexId v = 0; v < r.NumVertices(); ++v) {
    EXPECT_EQ(mapped[v], v * 10);
  }
  // Derived views live in the same internal id space.
  const Graph rev = r.Reversed();
  EXPECT_TRUE(rev.IsReordered());
  EXPECT_EQ(rev.InternalId(5), r.InternalId(5));
  EXPECT_TRUE(r.UndirectedView().IsReordered());
}

TEST(GraphReorderTest, EdgeCasesEmptyOneVertexHubStar) {
  for (ReorderMode mode : kAllModes) {
    for (CompressionMode compression : kAllCompression) {
      GraphOptions options;
      options.reorder = mode;
      options.compression = compression;
      const Graph empty = Graph::FromEdges(0, {}, options).value();
      EXPECT_EQ(empty.NumVertices(), 0u);
      const Graph one = Graph::FromEdges(1, {}, options).value();
      EXPECT_EQ(one.NumVertices(), 1u);
      EXPECT_EQ(one.OriginalId(one.InternalId(0)), 0u);

      // Hub-star: vertex 0 has degree 63, everything else degree 1 — the
      // extreme case both orderings exist for.
      const Graph star = Rebuild(Star(64), mode, compression);
      EXPECT_EQ(star.NumEdges(), 63u);
      EXPECT_EQ(star.Degree(star.InternalId(0)), 63u);
      if (mode != ReorderMode::kNone) {
        EXPECT_EQ(star.InternalId(0), 0u) << "hub must be placed first";
      }
      const BfsResult bfs = TlavBfs(star, 5);
      ASSERT_TRUE(bfs.status.ok());
      EXPECT_EQ(bfs.distance[5], 0u);
      EXPECT_EQ(bfs.distance[0], 1u);
      EXPECT_EQ(bfs.distance[63], 2u);
    }
  }
}

// --- algorithm parity across layouts, SIMD modes, threads, workers ----------

TEST(ReorderSimdParityTest, TraversalAndPageRankBitIdentical) {
  ThreadGuard guard;
  Graph g = Rmat(9, 8, 5);  // power-law, ~512 vertices
  const VertexId source = 3;

  // Reference: unordered layout, scalar kernels, one worker, one thread.
  SetHostThreads(1);
  std::vector<uint32_t> ref_bfs;
  std::vector<uint64_t> ref_sssp;
  std::vector<VertexId> ref_wcc;
  std::vector<double> ref_pr;
  {
    SimdGuard simd_off(false);
    TlavConfig config;
    config.num_workers = 1;
    ref_bfs = TlavBfs(g, source, config).distance;
    ref_sssp = TlavSssp(g, source, config).distance;
    ref_wcc = Wcc(g, config).component;
    PageRankOptions pr;
    pr.engine = config;
    ref_pr = PageRank(g, pr).ranks;
  }

  for (ReorderMode mode : kAllModes) {
    for (CompressionMode compression : kAllCompression) {
      const Graph r = Rebuild(g, mode, compression);
      for (bool simd_on : {false, true}) {
        SimdGuard simd_guard(simd_on);
        for (uint32_t workers : {1u, 4u}) {
          for (uint32_t threads : {1u, 8u}) {
            SetHostThreads(threads);
            TlavConfig config;
            config.num_workers = workers;
            const std::string what =
                "mode=" + std::to_string(static_cast<int>(mode)) +
                " compression=" +
                std::to_string(static_cast<int>(compression)) +
                " simd=" + std::to_string(simd_on) +
                " workers=" + std::to_string(workers) +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(ref_bfs, TlavBfs(r, source, config).distance) << what;
            EXPECT_EQ(ref_sssp, TlavSssp(r, source, config).distance) << what;
            EXPECT_EQ(ref_wcc, Wcc(r, config).component) << what;
            PageRankOptions pr;
            pr.engine = config;
            const std::vector<double> ranks = PageRank(r, pr).ranks;
            ASSERT_EQ(ranks.size(), ref_pr.size()) << what;
            for (size_t v = 0; v < ranks.size(); ++v) {
              // Exact: fixed-point messages make the reduction integer.
              ASSERT_EQ(ranks[v], ref_pr[v]) << what << " vertex " << v;
            }
          }
        }
      }
    }
  }
}

TEST(ReorderSimdParityTest, SubgraphAlgorithmsBitIdentical) {
  ThreadGuard guard;
  Graph g = WattsStrogatz(256, 8, 0.1, 17);  // high clustering: triangles

  MaximalCliqueOptions mc_options;
  TriangleCountResult ref_tri;
  MaximalCliqueResult ref_cliques;
  MaximumCliqueResult ref_max;
  KTrussResult ref_truss;
  {
    SimdGuard simd_off(false);
    ref_tri = SerialTriangleCount(g);
    ref_cliques = MaximalCliques(g, mc_options, true);
    ref_max = MaximumClique(g, {});
    ref_truss = KTrussDecomposition(g);
  }

  for (ReorderMode mode : kAllModes) {
    for (CompressionMode compression : kAllCompression) {
    const Graph r = Rebuild(g, mode, compression);
    for (bool simd_on : {false, true}) {
      SimdGuard simd_guard(simd_on);
      const std::string what =
          "mode=" + std::to_string(static_cast<int>(mode)) +
          " compression=" + std::to_string(static_cast<int>(compression)) +
          " simd=" + std::to_string(simd_on);

      const TriangleCountResult serial = SerialTriangleCount(r);
      EXPECT_EQ(serial.triangles, ref_tri.triangles) << what;
      for (uint32_t threads : {1u, 8u}) {
        TaskEngineConfig config;
        config.num_threads = threads;
        const TriangleCountResult task = TaskTriangleCount(r, config);
        EXPECT_EQ(task.triangles, ref_tri.triangles) << what;
        // Same layout + same SIMD mode -> serial and task runs do the
        // exact same intersections, so the ops ledger folds identically.
        EXPECT_EQ(task.intersection_ops, serial.intersection_ops) << what;
      }

      MaximalCliqueResult cliques = MaximalCliques(r, mc_options, true);
      EXPECT_EQ(cliques.count, ref_cliques.count) << what;
      EXPECT_EQ(cliques.largest, ref_cliques.largest) << what;
      // Collected cliques arrive in task order; compare as sorted sets
      // of original-id cliques.
      std::vector<std::vector<VertexId>> got = std::move(cliques.cliques);
      std::vector<std::vector<VertexId>> want = ref_cliques.cliques;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << what;

      EXPECT_EQ(MaximumClique(r, {}).size, ref_max.size) << what;

      KTrussResult truss = KTrussDecomposition(r);
      EXPECT_EQ(truss.max_trussness, ref_truss.max_trussness) << what;
      // Edges come back in original-id space; pair them with their
      // trussness and compare order-independently.
      auto keyed = [](const KTrussResult& t) {
        std::vector<std::tuple<VertexId, VertexId, uint32_t>> k;
        for (size_t e = 0; e < t.edges.size(); ++e) {
          k.emplace_back(t.edges[e].src, t.edges[e].dst, t.trussness[e]);
        }
        std::sort(k.begin(), k.end());
        return k;
      };
      EXPECT_EQ(keyed(truss), keyed(ref_truss)) << what;
    }
    }
  }
}

// --- multigraphs ---------------------------------------------------------------
//
// A graph built with dedup = false can list a neighbor twice, and the
// intersection kernels take strictly ascending rows. k-truss and clique
// mining must see each distinct edge once, so the multigraph gives the
// deduplicated graph's answer on every layout and SIMD setting.

/// MatchSweepTest.ParallelEdges' shape: BA(60, 4, 3) with base edge i
/// listed (i % 3) + 1 times.
std::vector<Edge> ParallelEdgeList() {
  std::vector<Edge> edges;
  const std::vector<Edge> base = BarabasiAlbert(60, 4, 3).CollectEdges();
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t copy = 0; copy <= i % 3; ++copy) edges.push_back(base[i]);
  }
  return edges;
}

Graph BuildMultigraph(const std::vector<Edge>& edges, bool dedup,
                      CompressionMode layout) {
  GraphOptions options;
  options.dedup = dedup;
  options.compression = layout;
  Result<Graph> g = Graph::FromEdges(60, edges, options);
  GAL_CHECK_OK(g.status());
  return std::move(*g);
}

TEST(MultigraphTest, KTrussEqualsDeduplicatedGraph) {
  const std::vector<Edge> edges = ParallelEdgeList();
  for (CompressionMode layout : kAllCompression) {
    const Graph multi = BuildMultigraph(edges, /*dedup=*/false, layout);
    const Graph simple = BuildMultigraph(edges, /*dedup=*/true, layout);
    ASSERT_TRUE(multi.HasRepeatedNeighbors());
    for (bool simd_on : {false, true}) {
      SimdGuard guard(simd_on);
      const std::string what = "layout=" +
                               std::to_string(static_cast<int>(layout)) +
                               " simd=" + std::to_string(simd_on);
      const KTrussResult want = KTrussDecomposition(simple);
      const KTrussResult got = KTrussDecomposition(multi);
      EXPECT_EQ(want.max_trussness, 5u) << what;
      EXPECT_EQ(got.edges, want.edges) << what;
      EXPECT_EQ(got.trussness, want.trussness) << what;
      EXPECT_EQ(got.max_trussness, want.max_trussness) << what;
    }
  }
}

TEST(MultigraphTest, CliquesEqualDeduplicatedGraph) {
  const std::vector<Edge> edges = ParallelEdgeList();
  auto sorted = [](std::vector<std::vector<VertexId>> cliques) {
    std::sort(cliques.begin(), cliques.end());
    return cliques;
  };
  for (CompressionMode layout : kAllCompression) {
    const Graph multi = BuildMultigraph(edges, /*dedup=*/false, layout);
    const Graph simple = BuildMultigraph(edges, /*dedup=*/true, layout);
    for (bool simd_on : {false, true}) {
      SimdGuard guard(simd_on);
      const std::string what = "layout=" +
                               std::to_string(static_cast<int>(layout)) +
                               " simd=" + std::to_string(simd_on);
      const MaximalCliqueResult want = MaximalCliques(simple, {}, true);
      const MaximalCliqueResult got = MaximalCliques(multi, {}, true);
      EXPECT_EQ(want.count, 148u) << what;
      EXPECT_EQ(want.largest, 5u) << what;
      EXPECT_EQ(got.count, want.count) << what;
      EXPECT_EQ(got.largest, want.largest) << what;
      EXPECT_EQ(sorted(got.cliques), sorted(want.cliques)) << what;
      EXPECT_EQ(MaximumClique(multi).size, MaximumClique(simple).size)
          << what;
    }
  }
}

TEST(ReorderSimdParityTest, GemmAndSpmmBitIdenticalAcrossSimdAndThreads) {
  ThreadGuard guard;
  KernelContext& ctx = KernelContext::Get();
  Rng rng(31);
  Matrix a = Matrix::Xavier(193, 157, rng);
  Matrix b = Matrix::Xavier(157, 141, rng);
  Graph g = Rmat(9, 8, 3);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  Matrix h = Matrix::Xavier(g.NumVertices(), 13, rng);

  ctx.SetNumThreads(1);
  Matrix ref_mm, ref_spmm, ref_spmm_t;
  {
    SimdGuard simd_off(false);
    ref_mm = Matmul(a, b);
    ref_spmm = adj.Multiply(h);
    ref_spmm_t = adj.TransposeMultiply(h);
  }

  auto expect_same = [](const Matrix& want, const Matrix& got,
                        const std::string& what) {
    ASSERT_EQ(want.rows(), got.rows()) << what;
    ASSERT_EQ(want.cols(), got.cols()) << what;
    for (uint32_t i = 0; i < want.rows(); ++i) {
      for (uint32_t j = 0; j < want.cols(); ++j) {
        ASSERT_EQ(want.at(i, j), got.at(i, j)) << what << " at (" << i << ","
                                               << j << ")";
      }
    }
  };

  for (bool simd_on : {false, true}) {
    SimdGuard simd_guard(simd_on);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ctx.SetNumThreads(threads);
      const std::string what = "simd=" + std::to_string(simd_on) +
                               " threads=" + std::to_string(threads);
      expect_same(ref_mm, Matmul(a, b), "Matmul " + what);
      expect_same(ref_spmm, adj.Multiply(h), "SpMM " + what);
      expect_same(ref_spmm_t, adj.TransposeMultiply(h), "SpMM^T " + what);
      // The SpMM operator gathers rows through the graph; building it
      // from a compressed layout must produce the bit-identical
      // operator. (Reorder is deliberately not swept here: the operator
      // is layout-space by design, so a permuted build changes float
      // accumulation order — callers remap at the boundary instead.)
      for (CompressionMode compression : kAllCompression) {
        const Graph r = Rebuild(g, ReorderMode::kNone, compression);
        SparseMatrix adj_r = NormalizedAdjacency(r, AdjNorm::kSymmetric);
        const std::string layout =
            what +
            " compression=" + std::to_string(static_cast<int>(compression));
        expect_same(ref_spmm, adj_r.Multiply(h), "SpMM layout " + layout);
        expect_same(ref_spmm_t, adj_r.TransposeMultiply(h),
                    "SpMM^T layout " + layout);
      }
    }
  }
}

// --- intersection kernel unit tests -----------------------------------------

std::vector<VertexId> NaiveIntersect(const std::vector<VertexId>& a,
                                     const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<VertexId> RandomSortedIds(Rng& rng, size_t n, uint32_t universe) {
  std::vector<VertexId> v;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<VertexId>(rng.Uniform(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(IntersectTest, AllPathsMatchTheNaiveReference) {
  Rng rng(43);
  // Size pairs spanning the strategy space: tiny (scalar tails), block
  // multiples of 8 (pure AVX2), odd sizes (vector + tail), and skewed
  // ratios past 32x (galloping).
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0},  {0, 9},  {5, 5},   {8, 8},    {16, 64},  {31, 33},
      {64, 64}, {7, 300}, {3, 500}, {200, 11}, {257, 259}};
  for (const auto& [na, nb] : shapes) {
    const std::vector<VertexId> a = RandomSortedIds(rng, na, 700);
    const std::vector<VertexId> b = RandomSortedIds(rng, nb, 700);
    const std::vector<VertexId> want = NaiveIntersect(a, b);
    for (bool simd_on : {false, true}) {
      SimdGuard guard(simd_on);
      EXPECT_EQ(IntersectCount(a, b), want.size())
          << "na=" << a.size() << " nb=" << b.size() << " simd=" << simd_on;
      EXPECT_EQ(Intersect(a, b), want)
          << "na=" << a.size() << " nb=" << b.size() << " simd=" << simd_on;
      // Symmetric.
      EXPECT_EQ(IntersectCount(b, a), want.size());
      EXPECT_EQ(Intersect(b, a), want);
    }
  }
}

TEST(IntersectTest, ScalarOpsCountMatchesLegacyMergeSemantics) {
  SimdGuard guard(false);
  // Legacy IntersectCount counted one op per merge-loop iteration; for
  // disjoint equal-length runs that is exactly 2n - 1... depends on
  // arrangement, so pin a hand-computed case: a={1,3,5}, b={2,3,6}.
  // Iterations: (1,2)(3,2)(3,3)(5,6) -> 4 ops, 1 match.
  const std::vector<VertexId> a = {1, 3, 5};
  const std::vector<VertexId> b = {2, 3, 6};
  uint64_t ops = 0;
  EXPECT_EQ(IntersectCount(a, b, &ops), 1u);
  EXPECT_EQ(ops, 4u);
}

TEST(SimdTest, KillSwitchAndIsaReporting) {
  const bool prev = simd::Enabled();
  EXPECT_LE(simd::Enabled(), simd::Available());
  simd::SetEnabled(false);
  EXPECT_FALSE(simd::Enabled());
  EXPECT_STREQ(simd::ActiveIsa(), "scalar");
  simd::SetEnabled(true);
  EXPECT_EQ(simd::Enabled(), simd::Available());  // capped by Available
  if (simd::Available()) {
    EXPECT_STREQ(simd::ActiveIsa(), "avx2");
  }
  simd::SetEnabled(prev);
}

// GAL_SIMD is read once per process, so its parser is tested on strings
// through the knob table's pure entry point. A value off the fixed list
// keeps SIMD on (after one warning) instead of being read by its first
// character.
TEST(SimdTest, EnvValueIsParsedWhole) {
  // Whether vector kernels stay allowed when the variable reads `text`.
  auto allows = [](const char* text) {
    const Result<std::optional<env::Value>> value =
        env::Parse(env::Knob::kSimd, text);
    return !value.ok() || !value->has_value() || (*value)->on;
  };
  for (const char* on : {"1", "on", "true", "yes"}) {
    EXPECT_TRUE(allows(on)) << on;
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    EXPECT_FALSE(allows(off)) << off;
  }
  EXPECT_TRUE(allows(nullptr));
  EXPECT_TRUE(allows(""));
  for (const char* bad : {"of", "00", "0x", "1 ", "OFF", "disable"}) {
    EXPECT_TRUE(allows(bad)) << bad;
    EXPECT_FALSE(env::Parse(env::Knob::kSimd, bad).ok()) << bad;
  }
}

TEST(SimdTest, AxpyBitIdenticalToScalarLoop) {
  Rng rng(47);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{64}, size_t{1003}}) {
    std::vector<float> x(n), y_scalar(n), y_simd(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
      y_scalar[i] = y_simd[i] =
          static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
    const float alpha = 0.37f;
    {
      SimdGuard off(false);
      simd::AxpyF32(y_scalar.data(), x.data(), alpha, n);
    }
    {
      SimdGuard on(true);
      simd::AxpyF32(y_simd.data(), x.data(), alpha, n);
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(y_scalar[i], y_simd[i]) << "n=" << n << " i=" << i;
    }
  }
}

// The row kernel under every GEMM and SpMM is `count` successive axpys
// bit for bit, on every path: the 64/32/16/8-lane register blocks, the
// masked tail, and the scalar fallback.
TEST(SimdTest, AxpyRowsEqualsSuccessiveAxpys) {
  Rng rng(67);
  auto uniform = [&rng] {
    return static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{31}, size_t{32}, size_t{33}, size_t{63}, size_t{64},
                   size_t{65}, size_t{1003}}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{17}}) {
      std::vector<std::vector<float>> rows(count, std::vector<float>(n));
      std::vector<const float*> row_ptrs;
      std::vector<float> w(count);
      for (size_t t = 0; t < count; ++t) {
        for (float& x : rows[t]) x = uniform();
        row_ptrs.push_back(rows[t].data());
        w[t] = uniform();
      }
      std::vector<float> y0(n);
      for (float& y : y0) y = uniform();
      for (bool simd_on : {false, true}) {
        SimdGuard guard(simd_on);
        std::vector<float> want = y0;
        for (size_t t = 0; t < count; ++t) {
          simd::AxpyF32(want.data(), rows[t].data(), w[t], n);
        }
        std::vector<float> got = y0;
        simd::AxpyRowsF32(got.data(), n, w.data(), row_ptrs.data(), count);
        ASSERT_TRUE(n == 0 || std::memcmp(want.data(), got.data(),
                                           n * sizeof(float)) == 0)
            << "n=" << n << " count=" << count << " simd=" << simd_on;
      }
    }
  }
}

// Wall-clock check behind the acceptance criterion: >=1.3x on a hot
// kernel from the SIMD path. Tagged `timing` in ctest; skipped (not
// failed) on hosts without 4 cores or without AVX2.
TEST(ReorderSimdScalingTest, SimdGemmSpeedup) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  if (!simd::Available()) GTEST_SKIP() << "AVX2 not available";
  ThreadGuard guard;
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(1);  // isolate the SIMD effect from threading
  Rng rng(53);
  const uint32_t n = 384;
  Matrix a = Matrix::Xavier(n, n, rng);
  Matrix b = Matrix::Xavier(n, n, rng);
  auto best_of = [&](bool simd_on) {
    SimdGuard g(simd_on);
    Matmul(a, b);  // warm caches
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      Matrix c = Matmul(a, b);
      best = std::min(best, t.ElapsedSeconds());
      EXPECT_EQ(c.rows(), n);
    }
    return best;
  };
  const double scalar = best_of(false);
  const double vector = best_of(true);
  EXPECT_GT(scalar / vector, 1.3)
      << "scalar=" << scalar << "s avx2=" << vector << "s";
}

}  // namespace
}  // namespace gal
