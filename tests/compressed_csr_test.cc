// Units for the delta-varint adjacency codec (graph/compressed_csr.h)
// and for the Graph surface that rides on it: streaming cursors, decode
// scratch, HasEdge probes, the GAL_GRAPH_COMPRESSION env override, and
// the original-id contract of InducedSubgraph under reordering.

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/rng.h"
#include "graph/compressed_csr.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace gal {
namespace {

/// Restores GAL_GRAPH_COMPRESSION on exit so later tests see the
/// environment they started with.
struct EnvGuard {
  EnvGuard() {
    const char* v = std::getenv("GAL_GRAPH_COMPRESSION");
    had = v != nullptr;
    if (had) saved = v;
  }
  ~EnvGuard() {
    if (had) {
      setenv("GAL_GRAPH_COMPRESSION", saved.c_str(), 1);
    } else {
      unsetenv("GAL_GRAPH_COMPRESSION");
    }
  }
  bool had = false;
  std::string saved;
};

std::vector<uint32_t> DecodeRow(const CompressedCsr& c,
                                const std::vector<uint64_t>& offsets,
                                VertexId v) {
  const uint32_t degree = static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
  std::vector<uint32_t> out(degree);
  DecodeAdjacencyBlock(c.bytes.data() + c.row_offsets[v], degree,
                       c.delta_bias, out.data());
  return out;
}

Graph Build(VertexId n, std::vector<Edge> edges, GraphOptions options) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges), options);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g.value());
}

GraphOptions Compressed() {
  GraphOptions options;
  options.compression = CompressionMode::kDeltaVarint;
  return options;
}

// --- varint primitives -------------------------------------------------------

TEST(CompressedCsrTest, VarintRoundTripsBoundaryValues) {
  for (uint32_t value :
       {0u, 1u, 127u, 128u, 16383u, 16384u, 2097151u, 268435455u,
        268435456u, std::numeric_limits<uint32_t>::max()}) {
    std::vector<uint8_t> bytes;
    AppendVarint(bytes, value);
    EXPECT_LE(bytes.size(), 5u) << value;
    const uint8_t* p = bytes.data();
    EXPECT_EQ(ReadVarint(p), value);
    EXPECT_EQ(p, bytes.data() + bytes.size()) << "cursor must consume all";
  }
}

TEST(CompressedCsrTest, EncodeHandlesEmptyAndSingleRows) {
  // Vertex 0: empty. Vertex 1: one neighbor. Vertex 2: empty.
  const std::vector<uint64_t> offsets = {0, 0, 1, 1};
  const std::vector<uint32_t> targets = {7};
  const CompressedCsr c = EncodeDeltaVarint(offsets, targets, true);
  EXPECT_EQ(c.delta_bias, 1u);
  EXPECT_TRUE(DecodeRow(c, offsets, 0).empty());
  EXPECT_EQ(DecodeRow(c, offsets, 1), std::vector<uint32_t>{7});
  EXPECT_TRUE(DecodeRow(c, offsets, 2).empty());
}

TEST(CompressedCsrTest, EncodeHandlesMaxDeltaRow) {
  // One row spanning the full id range: gaps force 5-byte varints.
  const uint32_t lo = 0;
  const uint32_t hi = std::numeric_limits<uint32_t>::max();
  const std::vector<uint64_t> offsets = {0, 2};
  const std::vector<uint32_t> targets = {lo, hi};
  const CompressedCsr c = EncodeDeltaVarint(offsets, targets, true);
  const std::vector<uint32_t> row = DecodeRow(c, offsets, 0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], lo);
  EXPECT_EQ(row[1], hi);
}

TEST(CompressedCsrTest, EncodeWithoutDedupKeepsEqualNeighbors) {
  // bias 0: repeated targets (parallel edges kept) must survive.
  const std::vector<uint64_t> offsets = {0, 3};
  const std::vector<uint32_t> targets = {4, 4, 9};
  const CompressedCsr c = EncodeDeltaVarint(offsets, targets, false);
  EXPECT_EQ(c.delta_bias, 0u);
  EXPECT_EQ(DecodeRow(c, offsets, 0), (std::vector<uint32_t>{4, 4, 9}));
}

TEST(CompressedCsrTest, RandomGraphsRoundTripExactly) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(400));
    std::vector<uint64_t> offsets = {0};
    std::vector<uint32_t> targets;
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t degree = static_cast<uint32_t>(rng.Uniform(30));
      std::vector<uint32_t> row;
      for (uint32_t i = 0; i < degree; ++i) {
        row.push_back(static_cast<uint32_t>(rng.Uniform(n)));
      }
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      targets.insert(targets.end(), row.begin(), row.end());
      offsets.push_back(targets.size());
    }
    const CompressedCsr c = EncodeDeltaVarint(offsets, targets, true);
    std::vector<uint32_t> decoded;
    for (uint32_t v = 0; v < n; ++v) {
      const std::vector<uint32_t> row = DecodeRow(c, offsets, v);
      decoded.insert(decoded.end(), row.begin(), row.end());
    }
    EXPECT_EQ(decoded, targets) << "trial " << trial;
  }
}

// --- Graph-level access paths ------------------------------------------------

TEST(CompressedCsrTest, CursorForEachAndScratchAgreeOnHubStar) {
  const Graph star = Build(64, Star(64).CollectEdges(), Compressed());
  ASSERT_TRUE(star.IsCompressed());
  EXPECT_EQ(star.compression_mode(), CompressionMode::kDeltaVarint);
  EXPECT_EQ(star.Degree(0), 63u);

  // All three access forms agree on the hub row and a leaf row.
  std::vector<VertexId> scratch;
  for (VertexId v : {VertexId{0}, VertexId{17}}) {
    std::vector<VertexId> from_foreach;
    star.ForEachOutNeighbor(
        v, [&](VertexId u) { from_foreach.push_back(u); });
    std::vector<VertexId> from_cursor;
    for (Graph::NeighborCursor cur = star.OutNeighbors(v); cur.Valid();
         cur.Next()) {
      from_cursor.push_back(cur.Get());
    }
    const auto from_scratch = star.NeighborsInto(v, scratch);
    EXPECT_EQ(from_foreach, from_cursor);
    ASSERT_EQ(from_foreach.size(), from_scratch.size());
    EXPECT_TRUE(std::equal(from_foreach.begin(), from_foreach.end(),
                           from_scratch.begin()));
    EXPECT_TRUE(std::is_sorted(from_foreach.begin(), from_foreach.end()));
  }
  EXPECT_TRUE(star.HasEdge(0, 63));
  EXPECT_TRUE(star.HasEdge(29, 0));
  EXPECT_FALSE(star.HasEdge(29, 30));
}

TEST(CompressedCsrTest, CompressedMatchesRawOnRandomGraph) {
  // This test contrasts the two layouts, so it must control the knob
  // even when the suite runs under GAL_GRAPH_COMPRESSION=1.
  EnvGuard guard;
  unsetenv("GAL_GRAPH_COMPRESSION");
  const Graph raw = Rmat(10, 8, 11);
  const Graph packed = Build(raw.NumVertices(), raw.CollectEdges(),
                             Compressed());
  ASSERT_TRUE(packed.IsCompressed());
  EXPECT_EQ(packed.NumEdges(), raw.NumEdges());
  std::vector<VertexId> scratch;
  for (VertexId v = 0; v < raw.NumVertices(); ++v) {
    const auto want = raw.Neighbors(v);
    const auto got = packed.NeighborsInto(v, scratch);
    ASSERT_EQ(want.size(), got.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
        << "vertex " << v;
  }
  // The varint stream must be strictly smaller than 4 bytes/entry here.
  EXPECT_LT(packed.AdjacencyBytes(), raw.AdjacencyBytes());
}

TEST(CompressedCsrTest, ViewsInheritCompression) {
  GraphOptions options = Compressed();
  options.directed = true;
  const Graph g = Build(6, {{0, 1}, {0, 2}, {3, 0}, {4, 5}}, options);
  ASSERT_TRUE(g.IsCompressed());
  const Graph rev = g.Reversed();
  EXPECT_TRUE(rev.IsCompressed());
  EXPECT_TRUE(rev.HasEdge(1, 0));
  EXPECT_TRUE(rev.HasEdge(0, 3));
  const Graph undirected = g.UndirectedView();
  EXPECT_TRUE(undirected.IsCompressed());
  EXPECT_TRUE(undirected.HasEdge(0, 3));
  EXPECT_TRUE(undirected.HasEdge(3, 0));
}

TEST(CompressedCsrTest, EnvOverrideForcesAndDisablesCompression) {
  EnvGuard guard;
  setenv("GAL_GRAPH_COMPRESSION", "1", 1);
  const Graph forced = Build(5, {{0, 1}, {2, 3}}, GraphOptions{});
  EXPECT_TRUE(forced.IsCompressed());

  setenv("GAL_GRAPH_COMPRESSION", "0", 1);
  const Graph disabled = Build(5, {{0, 1}, {2, 3}}, Compressed());
  EXPECT_FALSE(disabled.IsCompressed());

  setenv("GAL_GRAPH_COMPRESSION", "none", 1);
  const Graph named_off = Build(5, {{0, 1}, {2, 3}}, Compressed());
  EXPECT_FALSE(named_off.IsCompressed());

  unsetenv("GAL_GRAPH_COMPRESSION");
  const Graph unforced = Build(5, {{0, 1}, {2, 3}}, Compressed());
  EXPECT_TRUE(unforced.IsCompressed());
}

// The override's parser on strings, through the knob table's pure
// entry point: the whole value must be a listed spelling; a typo such
// as "of" keeps the build option (after one warning) instead of forcing
// compression on.
TEST(CompressedCsrTest, EnvOverrideIsParsedWhole) {
  constexpr CompressionMode kRaw = CompressionMode::kNone;
  constexpr CompressionMode kPacked = CompressionMode::kDeltaVarint;
  // The mode a build resolves when the variable reads `text`.
  auto resolve = [](CompressionMode requested, const char* text) {
    const Result<std::optional<env::Value>> value =
        env::Parse(env::Knob::kGraphCompression, text);
    if (!value.ok() || !value->has_value()) return requested;
    return (*value)->on ? kPacked : kRaw;
  };
  for (const char* on : {"1", "on", "true", "yes", "delta-varint"}) {
    EXPECT_EQ(resolve(kRaw, on), kPacked) << on;
  }
  for (const char* off : {"0", "off", "false", "no", "none"}) {
    EXPECT_EQ(resolve(kPacked, off), kRaw) << off;
  }
  for (CompressionMode requested : {kRaw, kPacked}) {
    EXPECT_EQ(resolve(requested, nullptr), requested);
    EXPECT_EQ(resolve(requested, ""), requested);
    for (const char* bad : {"of", "nonee", "2", "delta", "ON", "1 "}) {
      EXPECT_EQ(resolve(requested, bad), requested) << bad;
      EXPECT_FALSE(env::Parse(env::Knob::kGraphCompression, bad).ok()) << bad;
    }
  }
}

// --- InducedSubgraph contract under reordering -------------------------------

TEST(CompressedCsrTest, InducedSubgraphTakesOriginalIdsOnReorderedParent) {
  // Regression: InducedSubgraph used to read its inputs as internal
  // layout ids on reordered parents (and indexed labels with them),
  // silently selecting the wrong vertices. The contract is original ids
  // in, fresh unreordered id space out.
  Graph plain = WithRandomLabels(BarabasiAlbert(120, 3, 29), 5, 13);
  GraphOptions options;
  options.reorder = ReorderMode::kHubCluster;
  options.compression = CompressionMode::kDeltaVarint;
  Graph reordered = Build(plain.NumVertices(), plain.CollectEdges(), options);
  ASSERT_TRUE(reordered.SetLabels(plain.labels()).ok());
  ASSERT_TRUE(reordered.IsReordered());

  const std::vector<VertexId> vertices = {3, 17, 40, 41, 90, 119};
  Result<Graph> want = plain.InducedSubgraph(vertices);
  Result<Graph> got = reordered.InducedSubgraph(vertices);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());

  EXPECT_FALSE(got->IsReordered());
  EXPECT_TRUE(got->IsCompressed()) << "compression is inherited";
  EXPECT_EQ(got->NumVertices(), vertices.size());
  EXPECT_EQ(got->NumEdges(), want->NumEdges());
  std::vector<Edge> want_edges = want->CollectEdges();
  std::vector<Edge> got_edges = got->CollectEdges();
  EXPECT_EQ(got_edges, want_edges);
  // Labels follow the selected original vertices, in selection order.
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    EXPECT_EQ(got->LabelOf(i), plain.LabelOf(vertices[i])) << "slot " << i;
  }
}

}  // namespace
}  // namespace gal
