// Cross-cutting property sweeps (TEST_P): the invariants that must hold
// for every engine regardless of graph shape, worker count, or policy.

#include <atomic>
#include <numeric>

#include <gtest/gtest.h>

#include "dist/quantization.h"
#include "graph/generators.h"
#include "match/executor.h"
#include "match/pattern.h"
#include "serial_reference.h"
#include "tlag/algos/subgraph_enum.h"
#include "tlag/algos/triangles.h"
#include "tlag/bfs_engine.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

Graph MakeGraph(int kind) {
  switch (kind) {
    case 0: return Rmat(8, 6, 13);
    case 1: return ErdosRenyi(300, 0.02, 13);
    case 2: return Grid(16, 16);
    case 3: return BarabasiAlbert(300, 3, 13);
    default: return Path(200);
  }
}

const char* GraphName(int kind) {
  switch (kind) {
    case 0: return "rmat";
    case 1: return "er";
    case 2: return "grid";
    case 3: return "ba";
    default: return "path";
  }
}

// --- TLAV results are invariant to the worker count and match serial ----------

class TlavInvarianceTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(TlavInvarianceTest, WccAndBfsMatchSerialReferences) {
  const auto [kind, workers] = GetParam();
  Graph g = MakeGraph(kind);
  TlavConfig config;
  config.num_workers = workers;
  EXPECT_EQ(Wcc(g, config).component, SerialComponents(g)) << GraphName(kind);
  EXPECT_EQ(TlavBfs(g, 0, config).distance, SerialBfs(g, 0))
      << GraphName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TlavInvarianceTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 3u, 8u)));

// --- Triangle counting agrees across all four implementations ------------------

class TriangleAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(TriangleAgreementTest, AllEnginesAgree) {
  Graph g = MakeGraph(GetParam());
  const uint64_t serial = SerialTriangleCount(g).triangles;
  EXPECT_EQ(TaskTriangleCount(g).triangles, serial);
  MatchOptions sym;
  sym.symmetry_breaking = true;
  EXPECT_EQ(SubgraphMatch(g, TrianglePattern(), sym).stats.matches, serial);
  // ESU census of size-3 cliques.
  SubgraphEnumOptions options;
  options.max_size = 3;
  std::atomic<uint64_t> census{0};
  EnumerateConnectedSubgraphs(
      g, options, [&g, &census](const std::vector<VertexId>& s) {
        if (s.size() == 3 && g.HasEdge(s[0], s[1]) && g.HasEdge(s[1], s[2]) &&
            g.HasEdge(s[0], s[2])) {
          census.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      });
  EXPECT_EQ(census.load(), serial);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriangleAgreementTest,
                         ::testing::Values(0, 1, 2, 3));

// --- BFS-extension and DFS enumeration produce identical clique counts ---------

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

TEST_P(EngineEquivalenceTest, CliqueCountsEqualAcrossEngines) {
  const auto [p, k] = GetParam();
  Graph g = ErdosRenyi(120, p, 31);
  // BFS extension.
  BfsExtensionEngine bfs(BfsEngineConfig{});
  std::vector<VertexId> roots(g.NumVertices());
  std::iota(roots.begin(), roots.end(), 0);
  std::atomic<uint64_t> bfs_count{0};
  bfs.Run(
      roots, k,
      [&g](const Embedding& e, std::vector<VertexId>& out) {
        g.ForEachOutNeighbor(e.back(), [&](VertexId u) {
          if (u <= e.back()) return;
          bool ok = true;
          for (size_t i = 0; i + 1 < e.size(); ++i) {
            if (!g.HasEdge(e[i], u)) {
              ok = false;
              break;
            }
          }
          if (ok) out.push_back(u);
        });
      },
      [&bfs_count](const Embedding&) { bfs_count++; });
  // Matching with symmetry breaking.
  MatchOptions sym;
  sym.symmetry_breaking = true;
  const uint64_t matched =
      SubgraphMatch(g, CliquePattern(k), sym).stats.matches;
  EXPECT_EQ(bfs_count.load(), matched) << "p=" << p << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.2),
                       ::testing::Values(3u, 4u)));

// --- quantization error is monotone in precision --------------------------------

class QuantizationMonotoneTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(QuantizationMonotoneTest, MoreBitsNeverWorse) {
  const auto [rows, cols] = GetParam();
  Rng rng(rows * 31 + cols);
  Matrix m = Matrix::Xavier(rows, cols, rng);
  const double e16 = m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kFp16));
  const double e8 = m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kInt8));
  const double e4 = m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kInt4));
  EXPECT_LE(e16, e8);
  EXPECT_LE(e8, e4);
  EXPECT_LT(WireBytes(Quantization::kInt4, rows, cols),
            WireBytes(Quantization::kInt8, rows, cols));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantizationMonotoneTest,
    ::testing::Combine(::testing::Values(8u, 64u), ::testing::Values(4u, 32u)));

// --- matching invariants across patterns and thread counts ----------------------

class MatchInvarianceTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(MatchInvarianceTest, CountsStableAndSymmetryExact) {
  const auto [pattern_kind, threads] = GetParam();
  Graph g = ErdosRenyi(100, 0.08, 7);
  Graph q = pattern_kind == 0   ? TrianglePattern()
            : pattern_kind == 1 ? CyclePattern(4)
            : pattern_kind == 2 ? DiamondPattern()
                                : TailedTrianglePattern();
  MatchOptions plain;
  plain.engine.num_threads = threads;
  MatchOptions sym = plain;
  sym.symmetry_breaking = true;
  const uint64_t all = SubgraphMatch(g, q, plain).stats.matches;
  const uint64_t distinct = SubgraphMatch(g, q, sym).stats.matches;
  EXPECT_EQ(all, distinct * Automorphisms(q).size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchInvarianceTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 4u)));

}  // namespace
}  // namespace gal
