#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/kcore.h"
#include "graph/transaction_db.h"

namespace gal {
namespace {

Graph MustBuild(VertexId n, std::vector<Edge> edges, GraphOptions opt = {}) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges), opt);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g.value());
}

// ---------------------------------------------------------------------------
// CSR construction

TEST(GraphTest, EmptyGraph) {
  Graph g = MustBuild(0, {});
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, UndirectedStoresBothDirections) {
  Graph g = MustBuild(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.NumAdjacencyEntries(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphTest, DirectedKeepsDirection) {
  GraphOptions opt;
  opt.directed = true;
  Graph g = MustBuild(3, {{0, 1}, {1, 2}}, opt);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(GraphTest, SelfLoopsRemovedByDefault) {
  Graph g = MustBuild(3, {{0, 0}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, DuplicatesCollapsedByDefault) {
  Graph g = MustBuild(2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, RepeatedNeighborsAreFlagged) {
  GraphOptions multi;
  multi.dedup = false;
  const std::vector<Edge> repeated = {{0, 1}, {1, 2}, {0, 1}};
  EXPECT_TRUE(Graph::FromEdges(3, repeated, multi)->HasRepeatedNeighbors());
  EXPECT_FALSE(Graph::FromEdges(3, repeated)->HasRepeatedNeighbors());
  EXPECT_FALSE(
      Graph::FromEdges(3, {{0, 1}, {1, 2}}, multi)->HasRepeatedNeighbors());
  // An undirected self-loop is stored once per direction.
  multi.remove_self_loops = false;
  EXPECT_TRUE(Graph::FromEdges(2, {{1, 1}}, multi)->HasRepeatedNeighbors());
  multi.remove_self_loops = true;
  multi.compression = CompressionMode::kDeltaVarint;
  multi.reorder = ReorderMode::kDegreeDesc;
  EXPECT_TRUE(Graph::FromEdges(3, repeated, multi)->HasRepeatedNeighbors());
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g = MustBuild(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  std::vector<VertexId> row;
  const auto nbrs = g.NeighborsInto(2, row);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphTest, OutOfRangeEndpointRejected) {
  Result<Graph> g = Graph::FromEdges(2, {{0, 5}}, GraphOptions{});
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, LabelsRoundTrip) {
  Graph g = MustBuild(3, {{0, 1}});
  EXPECT_FALSE(g.IsLabeled());
  EXPECT_TRUE(g.SetLabels({5, 6, 7}).ok());
  EXPECT_TRUE(g.IsLabeled());
  EXPECT_EQ(g.LabelOf(1), 6u);
  EXPECT_FALSE(g.SetLabels({1}).ok());
}

TEST(GraphTest, ReversedFlipsDirectedEdges) {
  GraphOptions opt;
  opt.directed = true;
  Graph g = MustBuild(3, {{0, 1}, {0, 2}}, opt);
  Graph r = g.Reversed();
  EXPECT_TRUE(r.HasEdge(1, 0));
  EXPECT_TRUE(r.HasEdge(2, 0));
  EXPECT_FALSE(r.HasEdge(0, 1));
  EXPECT_EQ(r.NumEdges(), 2u);
}

TEST(GraphTest, ReversedOfUndirectedIsIdentical) {
  Graph g = MustBuild(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph r = g.Reversed();
  EXPECT_EQ(r.NumEdges(), g.NumEdges());
  std::vector<VertexId> row_a, row_b;
  for (VertexId v = 0; v < 4; ++v) {
    const auto a = g.NeighborsInto(v, row_a);
    const auto b = r.NeighborsInto(v, row_b);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(GraphTest, InducedSubgraphKeepsInternalEdges) {
  // Triangle 0-1-2 plus pendant 3.
  Graph g = MustBuild(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  std::vector<VertexId> vs = {0, 1, 2};
  Result<Graph> sub = g.InducedSubgraph(vs);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->NumVertices(), 3u);
  EXPECT_EQ(sub->NumEdges(), 3u);
}

TEST(GraphTest, InducedSubgraphRemapsAndCarriesLabels) {
  Graph g = MustBuild(4, {{1, 3}});
  ASSERT_TRUE(g.SetLabels({10, 11, 12, 13}).ok());
  std::vector<VertexId> vs = {3, 1};
  Result<Graph> sub = g.InducedSubgraph(vs);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->HasEdge(0, 1));
  EXPECT_EQ(sub->LabelOf(0), 13u);
  EXPECT_EQ(sub->LabelOf(1), 11u);
}

TEST(GraphTest, InducedSubgraphRejectsDuplicates) {
  Graph g = MustBuild(3, {{0, 1}});
  std::vector<VertexId> vs = {0, 0};
  EXPECT_FALSE(g.InducedSubgraph(vs).ok());
}

TEST(GraphTest, CollectEdgesRoundTripsUndirected) {
  std::vector<Edge> in = {{0, 1}, {1, 2}, {0, 3}};
  Graph g = MustBuild(4, in);
  std::vector<Edge> out = g.CollectEdges();
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(in, out);
}

// ---------------------------------------------------------------------------
// Generators

TEST(GeneratorsTest, PathHasNMinusOneEdges) {
  Graph g = Path(10);
  EXPECT_EQ(g.NumEdges(), 9u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(5), 2u);
}

TEST(GeneratorsTest, CompleteGraphDegrees) {
  Graph g = Complete(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
}

TEST(GeneratorsTest, StarHubDegree) {
  Graph g = Star(8);
  EXPECT_EQ(g.Degree(0), 7u);
  EXPECT_EQ(g.NumEdges(), 7u);
}

TEST(GeneratorsTest, CycleAllDegreeTwo) {
  Graph g = Cycle(5);
  EXPECT_EQ(g.NumEdges(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 2u);
}

TEST(GeneratorsTest, GridEdgeCount) {
  Graph g = Grid(3, 4);
  // 3 rows x 4 cols: horizontal 3*3, vertical 2*4.
  EXPECT_EQ(g.NumVertices(), 12u);
  EXPECT_EQ(g.NumEdges(), 17u);
}

TEST(GeneratorsTest, ErdosRenyiDeterministicAndPlausibleDensity) {
  Graph a = ErdosRenyi(500, 0.02, 42);
  Graph b = ErdosRenyi(500, 0.02, 42);
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  const double expected = 0.02 * 500 * 499 / 2;
  EXPECT_NEAR(static_cast<double>(a.NumEdges()), expected, expected * 0.25);
}

TEST(GeneratorsTest, ErdosRenyiExtremes) {
  EXPECT_EQ(ErdosRenyi(100, 0.0, 1).NumEdges(), 0u);
  EXPECT_EQ(ErdosRenyi(10, 1.0, 1).NumEdges(), 45u);
}

TEST(GeneratorsTest, RmatProducesSkewedDegrees) {
  Graph g = Rmat(10, 8, 7);
  EXPECT_EQ(g.NumVertices(), 1024u);
  EXPECT_GT(g.NumEdges(), 1000u);
  // Power-law-ish: max degree far above average.
  const double avg = 2.0 * g.NumEdges() / g.NumVertices();
  EXPECT_GT(g.MaxDegree(), 4 * avg);
}

TEST(GeneratorsTest, BarabasiAlbertEdgeCount) {
  const VertexId n = 300;
  const uint32_t m = 3;
  Graph g = BarabasiAlbert(n, m, 5);
  // Seed clique edges + m per subsequent vertex (dedup may drop a few).
  const uint64_t expected = 6 + static_cast<uint64_t>(n - m - 1) * m;
  EXPECT_LE(g.NumEdges(), expected);
  EXPECT_GT(g.NumEdges(), expected * 9 / 10);
}

TEST(GeneratorsTest, PlantedPartitionLabelsAndAssortativity) {
  Graph g = PlantedPartition(200, 4, 0.2, 0.01, 3);
  ASSERT_TRUE(g.IsLabeled());
  uint64_t intra = 0;
  uint64_t inter = 0;
  for (const Edge& e : g.CollectEdges()) {
    (g.LabelOf(e.src) == g.LabelOf(e.dst) ? intra : inter) += 1;
  }
  EXPECT_GT(intra, inter);
}

TEST(GeneratorsTest, WattsStrogatzLatticeAndRewiring) {
  // beta = 0: exact ring lattice with n*k/2 edges and high clustering.
  Graph lattice = WattsStrogatz(100, 4, 0.0, 3);
  EXPECT_EQ(lattice.NumEdges(), 200u);
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(lattice.Degree(v), 4u);
  EXPECT_TRUE(lattice.HasEdge(0, 1));
  EXPECT_TRUE(lattice.HasEdge(0, 2));
  EXPECT_FALSE(lattice.HasEdge(0, 3));
  // beta = 1: mostly random, loses lattice structure but keeps ~|E|.
  Graph random = WattsStrogatz(100, 4, 1.0, 3);
  EXPECT_GT(random.NumEdges(), 150u);
  // Determinism.
  Graph again = WattsStrogatz(100, 4, 0.3, 7);
  Graph again2 = WattsStrogatz(100, 4, 0.3, 7);
  EXPECT_EQ(again.CollectEdges(), again2.CollectEdges());
}

TEST(GeneratorsTest, WattsStrogatzClusteringDropsWithBeta) {
  // The small-world signature: rewiring destroys triangles.
  auto triangles = [](const Graph& g) {
    uint64_t count = 0;
    std::vector<VertexId> row;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const auto nv = g.NeighborsInto(v, row);
      for (VertexId u : nv) {
        if (u <= v) continue;
        for (VertexId w : nv) {
          if (w <= u) continue;
          count += g.HasEdge(u, w);
        }
      }
    }
    return count;
  };
  Graph ordered = WattsStrogatz(300, 6, 0.0, 5);
  Graph rewired = WattsStrogatz(300, 6, 0.8, 5);
  EXPECT_GT(triangles(ordered), 2 * triangles(rewired));
}

TEST(GeneratorsTest, WithRandomLabelsCoversAlphabet) {
  Graph g = WithRandomLabels(Complete(100), 5, 11);
  std::set<Label> seen(g.labels().begin(), g.labels().end());
  EXPECT_EQ(seen.size(), 5u);
}

// ---------------------------------------------------------------------------
// IO

TEST(IoTest, ParseEdgeListWithCommentsAndRemap) {
  Result<Graph> g = ParseEdgeList("# comment\n10 20\n20 30\n% other\n10 30\n");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->NumEdges(), 3u);
}

TEST(IoTest, ParseRejectsMalformedLine) {
  Result<Graph> g = ParseEdgeList("1 2\nbogus\n");
  EXPECT_FALSE(g.ok());
}

TEST(IoTest, SaveLoadRoundTrip) {
  Graph g = ErdosRenyi(50, 0.1, 9);
  const std::string path =
      (std::filesystem::temp_directory_path() / "gal_io_test.txt").string();
  ASSERT_TRUE(SaveEdgeListFile(g, path).ok());
  Result<Graph> loaded = LoadEdgeListFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  std::filesystem::remove(path);
}

TEST(IoTest, LoadMissingFileIsIOError) {
  Result<Graph> g = LoadEdgeListFile("/nonexistent/gal/file.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST(IoTest, LoadStreamsCommentsBlanksAndMissingTrailingNewline) {
  // The streaming loader must keep ParseEdgeList's exact semantics:
  // '#'/'%' comments and blank lines skipped (but still counted for
  // line numbers), and a final line without '\n' still parsed.
  const std::string path =
      (std::filesystem::temp_directory_path() / "gal_io_stream_test.txt")
          .string();
  {
    std::ofstream out(path);
    out << "# header comment\n\n10 20\n% matrix-market style\n\n20 30\n10 30";
  }
  Result<Graph> g = LoadEdgeListFile(path);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->NumEdges(), 3u);
  std::filesystem::remove(path);
}

TEST(IoTest, LoadReportsMalformedLineWithItsNumber) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gal_io_malformed_test.txt")
          .string();
  {
    std::ofstream out(path);
    out << "# comment\n1 2\nbogus line\n3 4\n";
  }
  Result<Graph> g = LoadEdgeListFile(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("line 3"), std::string::npos)
      << g.status();
  EXPECT_NE(g.status().message().find("bogus line"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// k-core / degeneracy / densest subgraph

TEST(KCoreTest, TriangleWithPendantCoreNumbers) {
  // Triangle 0-1-2, pendant 3 on 2.
  Graph g = MustBuild(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  std::vector<uint32_t> core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
}

TEST(KCoreTest, CompleteGraphCoreIsNMinusOne) {
  Graph g = Complete(7);
  for (uint32_t c : CoreNumbers(g)) EXPECT_EQ(c, 6u);
  EXPECT_EQ(DegeneracyOrder(g).degeneracy, 6u);
}

TEST(KCoreTest, PathDegeneracyIsOne) {
  EXPECT_EQ(DegeneracyOrder(Path(50)).degeneracy, 1u);
}

TEST(KCoreTest, KCoreExtractsDensePart) {
  // Complete(5) with a path of 5 attached to vertex 0.
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) edges.push_back({u, v});
  for (VertexId v = 5; v < 9; ++v) edges.push_back({v, static_cast<VertexId>(v - 5)});
  Graph g = MustBuild(9, edges);
  std::vector<VertexId> core3 = KCore(g, 3);
  EXPECT_EQ(core3.size(), 5u);
  for (VertexId v : core3) EXPECT_LT(v, 5u);
}

TEST(KCoreTest, DegeneracyOrderPropertyHolds) {
  // Property: in the peeling order, each vertex has <= degeneracy
  // neighbors appearing later.
  Graph g = Rmat(8, 8, 21);
  DegeneracyResult res = DegeneracyOrder(g);
  std::vector<uint32_t> pos(g.NumVertices());
  for (uint32_t i = 0; i < res.order.size(); ++i) pos[res.order[i]] = i;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t later = 0;
    g.ForEachOutNeighbor(v, [&](VertexId u) { later += (pos[u] > pos[v]); });
    EXPECT_LE(later, res.degeneracy);
  }
}

TEST(KCoreTest, DensestSubgraphFindsPlantedClique) {
  // Sparse background + planted K6 on vertices 0..5.
  Graph bg = ErdosRenyi(100, 0.01, 4);
  std::vector<Edge> edges = bg.CollectEdges();
  for (VertexId u = 0; u < 6; ++u)
    for (VertexId v = u + 1; v < 6; ++v) edges.push_back({u, v});
  Graph g = MustBuild(100, edges);
  DensestSubgraphResult res = DensestSubgraphPeel(g);
  EXPECT_GE(res.density, 2.0);
  int clique_members = 0;
  for (VertexId v : res.vertices) clique_members += (v < 6);
  EXPECT_EQ(clique_members, 6);
}

// ---------------------------------------------------------------------------
// Transaction DB

TEST(TransactionDbTest, SyntheticMoleculeDbShape) {
  MoleculeDbOptions opt;
  opt.num_transactions = 50;
  TransactionDb db = SyntheticMoleculeDb(opt, 123);
  ASSERT_EQ(db.size(), 50u);
  int class0 = 0;
  for (const auto& t : db.transactions()) {
    EXPECT_EQ(t.graph.NumVertices(), opt.vertices_per_graph);
    EXPECT_TRUE(t.graph.IsLabeled());
    EXPECT_GE(t.class_label, 0);
    class0 += (t.class_label == 0);
  }
  EXPECT_EQ(class0, 25);
}

TEST(TransactionDbTest, Deterministic) {
  MoleculeDbOptions opt;
  opt.num_transactions = 10;
  TransactionDb a = SyntheticMoleculeDb(opt, 7);
  TransactionDb b = SyntheticMoleculeDb(opt, 7);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].graph.NumEdges(), b[i].graph.NumEdges());
    EXPECT_EQ(a[i].graph.labels(), b[i].graph.labels());
  }
}

}  // namespace
}  // namespace gal
