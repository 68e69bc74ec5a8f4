// Both matchers against SerialMatchCount (tests/serial_reference.h), a
// brute-force count over std::set adjacency that shares no code with
// src/match/, on awkward inputs: empty, one vertex, self-loops, parallel
// edges, disconnected, hub-star, long path, small BA/ER graphs. Every
// shape runs on {raw, delta-varint} x {non-induced, induced} x {DFS at
// 1 and 4 threads, BFS executor unbounded and under each memory
// policy}, with and without symmetry breaking.
// The serial and task-engine triangle counters must count a sixth of
// the reference's triangle embeddings on every shape.
// MatchSearchTreeTest pins the exact search tree (search_nodes and
// matches) of the C4 bench graph, so a join that visits other vertices
// or visits them twice fails here even when its counts stay right.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "match/bfs_executor.h"
#include "match/executor.h"
#include "match/pattern.h"
#include "serial_reference.h"
#include "tlag/algos/triangles.h"

namespace gal {
namespace {

struct NamedPattern {
  const char* name;
  Graph graph;
};

std::vector<NamedPattern> SweepPatterns() {
  return {{"1-vertex", CliquePattern(1)},
          {"triangle", TrianglePattern()},
          {"3-path", PathPattern(3)},
          {"3-star", StarPattern(3)},
          {"4-cycle", CyclePattern(4)},
          {"diamond", DiamondPattern()},
          {"tailed-triangle", TailedTrianglePattern()},
          {"4-clique", CliquePattern(4)}};
}

Graph Build(VertexId n, std::vector<Edge> edges, GraphOptions options,
            CompressionMode layout) {
  options.compression = layout;
  Result<Graph> g = Graph::FromEdges(n, std::move(edges), options);
  GAL_CHECK_OK(g.status());
  return std::move(*g);
}

/// The embedding count of every executor configuration; symmetry-broken
/// counts are scaled by |Aut(q)| so all of them must equal `want`.
void ExpectEveryExecutorCounts(const Graph& data, const Graph& q,
                               bool induced, uint64_t want,
                               const std::string& where) {
  const uint64_t aut = SerialMatchCount(q, q, /*induced=*/false);
  for (bool sym : {false, true}) {
    const uint64_t scale = sym ? aut : 1;
    MatchOptions opt;
    opt.induced = induced;
    opt.symmetry_breaking = sym;
    for (uint32_t threads : {1u, 4u}) {
      opt.engine.num_threads = threads;
      EXPECT_EQ(SubgraphMatch(data, q, opt).stats.matches * scale, want)
          << where << " dfs threads=" << threads << " sym=" << sym;
    }
    BfsMatchOptions bfs;
    bfs.match = opt;
    const BfsMatchResult unbounded = BfsSubgraphMatch(data, q, bfs);
    EXPECT_EQ(unbounded.stats.matches * scale, want)
        << where << " bfs sym=" << sym;
    // Every memory policy walks the unbounded run's search tree: spill
    // and hybrid at a 1-byte budget, where every non-root partial
    // overflows, and strict at the unbounded run's own peak.
    const std::pair<MemoryPolicy, uint64_t> budgets[] = {
        {MemoryPolicy::kSpill, 1},
        {MemoryPolicy::kHybridDfs, 1},
        {MemoryPolicy::kStrict, unbounded.bfs.peak_bytes}};
    for (const auto& [policy, budget] : budgets) {
      bfs.bfs.policy = policy;
      bfs.bfs.memory_budget_bytes = budget;
      const BfsMatchResult r = BfsSubgraphMatch(data, q, bfs);
      const std::string config = where + " bfs policy=" +
                                 std::to_string(static_cast<int>(policy)) +
                                 " sym=" + std::to_string(sym);
      EXPECT_FALSE(r.bfs.budget_exceeded) << config;
      EXPECT_EQ(r.stats.matches * scale, want) << config;
      EXPECT_EQ(r.stats.search_nodes, unbounded.stats.search_nodes) << config;
    }
  }
}

/// Triangle counters count distinct triangles: six embeddings of the
/// triangle pattern each, however often a multigraph lists its edges.
void ExpectTriangleCountersAgree(const Graph& data, uint64_t want,
                                 const std::string& where) {
  EXPECT_EQ(SerialTriangleCount(data).triangles, want) << where << " serial";
  for (uint32_t threads : {1u, 4u}) {
    TaskEngineConfig config;
    config.num_threads = threads;
    EXPECT_EQ(TaskTriangleCount(data, config).triangles, want)
        << where << " task threads=" << threads;
  }
}

/// Sweeps the pattern set over one data shape. With `labels`, data and
/// patterns are labeled (patterns alternate labels 0/1), so candidate
/// bitmaps drop real vertices.
void ExpectAgreesWithReference(VertexId n, const std::vector<Edge>& edges,
                               GraphOptions options,
                               const std::vector<Label>& labels = {}) {
  Graph raw = Build(n, edges, options, CompressionMode::kNone);
  Graph packed = Build(n, edges, options, CompressionMode::kDeltaVarint);
  if (!labels.empty()) {
    GAL_CHECK_OK(raw.SetLabels(std::vector<Label>(labels)));
    GAL_CHECK_OK(packed.SetLabels(std::vector<Label>(labels)));
  }
  const uint64_t triangles = SerialMatchCount(raw, TrianglePattern(), false);
  ASSERT_EQ(triangles % 6, 0u);
  ExpectTriangleCountersAgree(raw, triangles / 6, "raw");
  ExpectTriangleCountersAgree(packed, triangles / 6, "delta-varint");
  for (NamedPattern& p : SweepPatterns()) {
    if (!labels.empty()) {
      std::vector<Label> qlabels(p.graph.NumVertices());
      for (VertexId u = 0; u < qlabels.size(); ++u) qlabels[u] = u % 2;
      GAL_CHECK_OK(p.graph.SetLabels(std::move(qlabels)));
    }
    for (bool induced : {false, true}) {
      const uint64_t want = SerialMatchCount(raw, p.graph, induced);
      for (const Graph* data : {&raw, &packed}) {
        const std::string where =
            std::string(p.name) + (induced ? " induced" : "") +
            (data->IsCompressed() ? " delta-varint" : " raw");
        ExpectEveryExecutorCounts(*data, p.graph, induced, want, where);
      }
    }
  }
}

GraphOptions Multigraph() {
  GraphOptions options;
  options.dedup = false;
  return options;
}

TEST(MatchSweepTest, Empty) {
  ExpectAgreesWithReference(0, {}, {});
  ExpectAgreesWithReference(5, {}, {});  // vertices, no edges
}

TEST(MatchSweepTest, OneVertex) { ExpectAgreesWithReference(1, {}, {}); }

TEST(MatchSweepTest, SelfLoops) {
  std::vector<Edge> edges = ErdosRenyi(40, 0.2, 5).CollectEdges();
  for (VertexId v = 0; v < 40; v += 3) edges.push_back({v, v});
  GraphOptions options;
  options.remove_self_loops = false;
  ExpectAgreesWithReference(40, edges, options);
}

// With dedup = false a row can repeat a vertex; a join that drops the
// repeat only because some other input is strictly ascending would
// emit that vertex twice. Repeats reach 3 copies on rows longer than
// one 8-lane block, so the vector and galloping paths see them too.
TEST(MatchSweepTest, ParallelEdges) {
  std::vector<Edge> edges;
  const std::vector<Edge> base = BarabasiAlbert(60, 4, 3).CollectEdges();
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t copy = 0; copy <= i % 3; ++copy) edges.push_back(base[i]);
  }
  ExpectAgreesWithReference(60, edges, Multigraph());
}

// The smallest graph on which a naive bitmap or row-to-row join double
// counts: edge 0-1 is listed twice. Counts are embeddings.
TEST(MatchSweepTest, RepeatedEdgeCountsOnce) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {1, 2}, {0, 2}, {2, 3}};
  for (CompressionMode layout :
       {CompressionMode::kNone, CompressionMode::kDeltaVarint}) {
    const Graph data = Build(4, edges, Multigraph(), layout);
    ASSERT_EQ(data.Degree(0), 3u);  // the repeat is really stored
    ExpectEveryExecutorCounts(data, TrianglePattern(), false, 6, "triangle");
    ExpectEveryExecutorCounts(data, PathPattern(3), false, 10, "3-path");
  }
  ExpectAgreesWithReference(4, edges, Multigraph());
}

TEST(MatchSweepTest, Disconnected) {
  // K5, a 6-cycle, a 4-path, two isolated vertices, an ER blob.
  std::vector<Edge> edges;
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) edges.push_back({a, b});
  }
  for (VertexId i = 0; i < 6; ++i) edges.push_back({5 + i, 5 + (i + 1) % 6});
  for (VertexId i = 0; i < 3; ++i) edges.push_back({11 + i, 12 + i});
  for (const Edge& e : ErdosRenyi(20, 0.3, 7).CollectEdges()) {
    edges.push_back({e.src + 17, e.dst + 17});
  }
  ExpectAgreesWithReference(37, edges, {});
}

TEST(MatchSweepTest, HubStar) {
  // A 60-leaf star with every other pair of leaves joined: the hub row
  // dwarfs the rest, and every triangle runs through the hub.
  std::vector<Edge> edges = Star(61).CollectEdges();
  for (VertexId leaf = 1; leaf + 1 < 61; leaf += 2) {
    edges.push_back({leaf, leaf + 1});
  }
  ExpectAgreesWithReference(61, edges, {});
}

TEST(MatchSweepTest, LongPath) {
  ExpectAgreesWithReference(300, Path(300).CollectEdges(), {});
}

TEST(MatchSweepTest, SmallBarabasiAlbert) {
  ExpectAgreesWithReference(120, BarabasiAlbert(120, 3, 17).CollectEdges(),
                            {});
}

TEST(MatchSweepTest, SmallErdosRenyi) {
  ExpectAgreesWithReference(60, ErdosRenyi(60, 0.15, 23).CollectEdges(), {});
}

TEST(MatchSweepTest, LabeledBarabasiAlbert) {
  std::vector<Label> labels(100);
  for (VertexId v = 0; v < 100; ++v) labels[v] = (v * 7 + v / 3) % 2;
  ExpectAgreesWithReference(100, BarabasiAlbert(100, 4, 31).CollectEdges(),
                            {}, labels);
}

// --- the search tree of the C4 bench graph --------------------------------

struct TreePin {
  OrderStrategy order;
  bool symmetry_breaking;
  uint64_t matches;
  uint64_t search_nodes;
};

/// Every executor configuration visits exactly `pin`'s search tree:
/// DFS at 1 and 8 threads and the BFS executor, on both layouts.
void ExpectSearchTree(const Graph& pattern, const std::vector<TreePin>& pins) {
  const Graph base = BarabasiAlbert(3000, 4, 11);
  for (CompressionMode layout :
       {CompressionMode::kNone, CompressionMode::kDeltaVarint}) {
    const Graph data =
        Build(base.NumVertices(), base.CollectEdges(), {}, layout);
    for (const TreePin& pin : pins) {
      MatchOptions opt;
      opt.order = pin.order;
      opt.symmetry_breaking = pin.symmetry_breaking;
      const std::string where =
          "order " + std::to_string(static_cast<int>(pin.order)) +
          " sym " + std::to_string(pin.symmetry_breaking) +
          (data.IsCompressed() ? " delta-varint" : " raw");
      for (uint32_t threads : {1u, 8u}) {
        opt.engine.num_threads = threads;
        const MatchStats dfs = SubgraphMatch(data, pattern, opt).stats;
        EXPECT_EQ(dfs.matches, pin.matches) << where << " dfs " << threads;
        EXPECT_EQ(dfs.search_nodes, pin.search_nodes)
            << where << " dfs " << threads;
      }
      BfsMatchOptions bfs_opt;
      bfs_opt.match = opt;
      const MatchStats bfs = BfsSubgraphMatch(data, pattern, bfs_opt).stats;
      EXPECT_EQ(bfs.matches, pin.matches) << where << " bfs";
      EXPECT_EQ(bfs.search_nodes, pin.search_nodes) << where << " bfs";
    }
  }
}

constexpr OrderStrategy kById = OrderStrategy::kById;
constexpr OrderStrategy kWorst = OrderStrategy::kWorst;
constexpr OrderStrategy kGreedy = OrderStrategy::kGreedyCost;

TEST(MatchSearchTreeTest, TailedTriangle) {
  ExpectSearchTree(TailedTrianglePattern(), {{kById, false, 275024, 315918},
                                             {kWorst, false, 275024, 790086},
                                             {kGreedy, false, 275024, 315918},
                                             {kGreedy, true, 137512, 173768}});
}

TEST(MatchSearchTreeTest, Diamond) {
  ExpectSearchTree(DiamondPattern(), {{kById, false, 8512, 44768},
                                      {kWorst, false, 8512, 44768},
                                      {kGreedy, false, 8512, 44768},
                                      {kGreedy, true, 2128, 35874}});
}

TEST(MatchSearchTreeTest, FourCycle) {
  ExpectSearchTree(CyclePattern(4), {{kById, false, 78784, 1048672},
                                     {kWorst, false, 78784, 1048672},
                                     {kGreedy, false, 78784, 1048672},
                                     {kGreedy, true, 9848, 212777}});
}

TEST(MatchSearchTreeTest, FourClique) {
  ExpectSearchTree(CliquePattern(4), {{kById, false, 912, 32530},
                                      {kWorst, false, 912, 32530},
                                      {kGreedy, false, 912, 32530},
                                      {kGreedy, true, 38, 29451}});
}

}  // namespace
}  // namespace gal
