// Units for the out-of-core shard substrate (src/ooc/): writer/reader
// roundtrips across shard sizes and layouts, corrupt/truncated-file
// Status behavior, ShardCache LRU determinism / budget enforcement /
// pin safety, and bit-identity of the out-of-core engines against their
// in-memory counterparts across budgets and thread counts.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "ooc/ooc_algos.h"
#include "ooc/shard_format.h"
#include "ooc/sharded_graph.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

std::string TempBase(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A fixture's shard files, one set per test case: ctest runs the cases
/// of one fixture as concurrent processes, which must not share files.
std::string FixtureBase(const std::string& name) {
  return TempBase(
      name + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

/// Clears the OOC env knobs for the duration of a test that asserts
/// exact shard/cache behavior, restoring whatever was set on exit.
/// Parity tests deliberately do NOT use this: they must keep passing
/// under the forced-tiny-budget run scripts/check.sh does.
struct OocEnvGuard {
  OocEnvGuard() {
    Save("GAL_OOC_BUDGET_BYTES", &had_budget, &budget);
    Save("GAL_OOC_SHARD_BYTES", &had_shard, &shard);
    unsetenv("GAL_OOC_BUDGET_BYTES");
    unsetenv("GAL_OOC_SHARD_BYTES");
  }
  ~OocEnvGuard() {
    Restore("GAL_OOC_BUDGET_BYTES", had_budget, budget);
    Restore("GAL_OOC_SHARD_BYTES", had_shard, shard);
  }
  static void Save(const char* name, bool* had, std::string* value) {
    const char* v = std::getenv(name);
    *had = v != nullptr;
    if (*had) *value = v;
  }
  static void Restore(const char* name, bool had, const std::string& value) {
    if (had) {
      setenv(name, value.c_str(), 1);
    } else {
      unsetenv(name);
    }
  }
  bool had_budget = false, had_shard = false;
  std::string budget, shard;
};

std::vector<VertexId> Neighbors(const Graph& g, VertexId v) {
  std::vector<VertexId> out;
  g.ForEachOutNeighbor(v, [&](VertexId u) { out.push_back(u); });
  return out;
}

/// Exercises all three access forms of the sharded store against the
/// in-memory graph, vertex by vertex.
void ExpectSameAdjacency(const Graph& g, const ShardedGraph& sg) {
  ASSERT_EQ(g.NumVertices(), sg.NumVertices());
  EXPECT_EQ(g.NumEdges(), sg.NumEdges());
  EXPECT_EQ(g.NumAdjacencyEntries(), sg.NumAdjacencyEntries());
  EXPECT_EQ(g.directed(), sg.directed());
  std::vector<VertexId> scratch;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(g.Degree(v), sg.Degree(v)) << "vertex " << v;
    const std::vector<VertexId> want = Neighbors(g, v);
    // Form 1: streaming visitor.
    std::vector<VertexId> got;
    sg.ForEachOutNeighbor(v, [&](VertexId u) { got.push_back(u); });
    ASSERT_EQ(want, got) << "ForEachOutNeighbor, vertex " << v;
    // Form 2: owning cursor.
    got.clear();
    for (auto cur = sg.OutNeighbors(v); cur.Valid(); cur.Next()) {
      got.push_back(cur.Get());
    }
    ASSERT_EQ(want, got) << "OutNeighbors cursor, vertex " << v;
    // Form 3: decode into scratch.
    const auto span = sg.NeighborsInto(v, scratch);
    ASSERT_EQ(want, std::vector<VertexId>(span.begin(), span.end()))
        << "NeighborsInto, vertex " << v;
  }
}

class ShardedGraphTest : public ::testing::Test {
 protected:
  OocEnvGuard guard_;
};

TEST_F(ShardedGraphTest, RoundtripMatchesInMemory) {
  const Graph g = ErdosRenyi(300, 0.02, 7);
  const std::string base = TempBase("gal_ooc_roundtrip");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 256;
  auto summary = WriteShardedGraph(g, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GT(summary.value().num_shards, 1u);

  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const ShardedGraph& sg = opened.value();
  EXPECT_EQ(summary.value().num_shards, sg.NumShards());
  EXPECT_EQ(summary.value().total_adj_bytes, sg.TotalAdjacencyBytes());
  EXPECT_EQ(g.MaxDegree(), sg.MaxDegree());
  ExpectSameAdjacency(g, sg);
  RemoveShardedGraphFiles(base);
}

TEST_F(ShardedGraphTest, TinyShardsStillRoundtrip) {
  const Graph g = ErdosRenyi(120, 0.05, 3);
  const std::string base = TempBase("gal_ooc_tiny");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 1;  // every non-empty row becomes its own shard
  auto summary = WriteShardedGraph(g, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GT(summary.value().num_shards, 50u);
  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ExpectSameAdjacency(g, opened.value());
  RemoveShardedGraphFiles(base);
}

TEST_F(ShardedGraphTest, ShardRangesPartitionTheVertexSpace) {
  const Graph g = ErdosRenyi(200, 0.03, 5);
  const std::string base = TempBase("gal_ooc_ranges");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 512;
  ASSERT_TRUE(WriteShardedGraph(g, base, wopt).ok());
  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const ShardedGraph& sg = opened.value();
  VertexId expect = 0;
  for (uint32_t s = 0; s < sg.NumShards(); ++s) {
    EXPECT_EQ(expect, sg.shard(s).begin);
    expect = sg.shard(s).end;
    for (VertexId v = sg.shard(s).begin; v < sg.shard(s).end; ++v) {
      EXPECT_EQ(s, sg.ShardOf(v));
    }
  }
  EXPECT_EQ(g.NumVertices(), expect);
  RemoveShardedGraphFiles(base);
}

TEST_F(ShardedGraphTest, EmptyAndEdgelessGraphs) {
  const std::string base = TempBase("gal_ooc_empty");
  const Graph empty = Graph::FromEdges(0, {}).value();
  ASSERT_TRUE(WriteShardedGraph(empty, base).ok());
  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(0u, opened.value().NumVertices());
  EXPECT_EQ(0u, opened.value().NumShards());
  RemoveShardedGraphFiles(base);

  const Graph isolated = Graph::FromEdges(5, {}).value();
  ASSERT_TRUE(WriteShardedGraph(isolated, base).ok());
  auto opened2 = ShardedGraph::Open(base);
  ASSERT_TRUE(opened2.ok()) << opened2.status();
  ExpectSameAdjacency(isolated, opened2.value());
  RemoveShardedGraphFiles(base);
}

TEST_F(ShardedGraphTest, DirectedGraphRoundtrip) {
  GraphOptions options;
  options.directed = true;
  const Graph g =
      Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}, {5, 0}},
                       options)
          .value();
  const std::string base = TempBase("gal_ooc_directed");
  ASSERT_TRUE(WriteShardedGraph(g, base).ok());
  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened.value().directed());
  ExpectSameAdjacency(g, opened.value());
  RemoveShardedGraphFiles(base);
}

TEST_F(ShardedGraphTest, ReorderedStoreMapsBackToOriginalIds) {
  const Graph base_g = ErdosRenyi(150, 0.04, 9);
  GraphOptions options;
  options.reorder = ReorderMode::kHubCluster;
  options.compression = CompressionMode::kDeltaVarint;
  const Graph g =
      Graph::FromEdges(base_g.NumVertices(), base_g.CollectEdges(), options)
          .value();
  ASSERT_TRUE(g.IsReordered());

  const std::string base = TempBase("gal_ooc_reordered");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 1024;
  ASSERT_TRUE(WriteShardedGraph(g, base, wopt).ok());
  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const ShardedGraph& sg = opened.value();
  ASSERT_TRUE(sg.IsReordered());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(g.OriginalId(v), sg.OriginalId(v));
    EXPECT_EQ(g.InternalId(v), sg.InternalId(v));
  }
  std::vector<VertexId> identity(g.NumVertices());
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(g.MapToOriginal(identity), sg.MapToOriginal(identity));
  ExpectSameAdjacency(g, sg);
  RemoveShardedGraphFiles(base);
}

TEST_F(ShardedGraphTest, RawAndCompressedInputsWriteIdenticalFiles) {
  const Graph raw = ErdosRenyi(100, 0.05, 13);
  GraphOptions options;
  options.compression = CompressionMode::kDeltaVarint;
  const Graph compressed =
      Graph::FromEdges(raw.NumVertices(), raw.CollectEdges(), options).value();
  ASSERT_TRUE(compressed.IsCompressed());

  const std::string base_a = TempBase("gal_ooc_from_raw");
  const std::string base_b = TempBase("gal_ooc_from_compressed");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 512;
  auto sa = WriteShardedGraph(raw, base_a, wopt);
  auto sb = WriteShardedGraph(compressed, base_b, wopt);
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa.value().num_shards, sb.value().num_shards);

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(slurp(ManifestFileName(base_a)), slurp(ManifestFileName(base_b)));
  for (uint32_t s = 0; s < sa.value().num_shards; ++s) {
    EXPECT_EQ(slurp(ShardFileName(base_a, s)), slurp(ShardFileName(base_b, s)))
        << "shard " << s;
  }
  RemoveShardedGraphFiles(base_a);
  RemoveShardedGraphFiles(base_b);
}

// ---------------------------------------------------------------------------

class OocBadFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = FixtureBase("gal_ooc_badfile");
    g_ = ErdosRenyi(80, 0.06, 21);
    ShardWriterOptions wopt;
    wopt.target_shard_bytes = 128;
    auto summary = WriteShardedGraph(g_, base_, wopt);
    ASSERT_TRUE(summary.ok()) << summary.status();
    ASSERT_GT(summary.value().num_shards, 1u);
  }
  void TearDown() override { RemoveShardedGraphFiles(base_); }

  static void FlipByte(const std::string& path, int64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    if (offset < 0) {
      f.seekg(0, std::ios::end);
      offset += static_cast<int64_t>(f.tellg());
    }
    f.seekg(offset);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x5a;
    f.seekp(offset);
    f.write(&c, 1);
  }
  static void Truncate(const std::string& path, int64_t remove_bytes) {
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path,
                                 size - static_cast<uintmax_t>(remove_bytes));
  }

  OocEnvGuard guard_;
  std::string base_;
  Graph g_;
};

TEST_F(OocBadFileTest, MissingManifestIsAnError) {
  std::filesystem::remove(ManifestFileName(base_));
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(OocBadFileTest, TruncatedManifestIsAnError) {
  Truncate(ManifestFileName(base_), 5);
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(OocBadFileTest, CorruptManifestIsAnError) {
  FlipByte(ManifestFileName(base_), 24);  // inside the header fields
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(OocBadFileTest, MissingShardFileIsAnError) {
  std::filesystem::remove(ShardFileName(base_, 1));
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(OocBadFileTest, TruncatedShardFileIsAnError) {
  Truncate(ShardFileName(base_, 0), 1);
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(OocBadFileTest, CorruptShardPayloadIsAnError) {
  FlipByte(ShardFileName(base_, 1), 0);  // first varint byte
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(std::string::npos, opened.status().message().find("checksum"));
}

TEST_F(OocBadFileTest, CorruptShardFooterMagicIsAnError) {
  FlipByte(ShardFileName(base_, 0), -static_cast<int64_t>(kOocShardFooterBytes));
  auto opened = ShardedGraph::Open(base_);
  EXPECT_FALSE(opened.ok());
}

TEST_F(OocBadFileTest, ExplicitlyTooSmallBudgetIsInvalidArgument) {
  OocOptions options;
  options.memory_budget_bytes = 1;
  auto opened = ShardedGraph::Open(base_, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, opened.status().code());
}

TEST_F(OocBadFileTest, EnvForcedTinyBudgetClampsUpAndOpens) {
  setenv("GAL_OOC_BUDGET_BYTES", "1", 1);
  auto opened = ShardedGraph::Open(base_);
  unsetenv("GAL_OOC_BUDGET_BYTES");
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value().MaxShardResidentBytes(),
            opened.value().cache().budget_bytes());
  ExpectSameAdjacency(g_, opened.value());
}

// ---------------------------------------------------------------------------

/// Cycle(12) has uniformly 2-byte rows (ids < 128, so every varint is
/// one byte), making shard resident sizes equal — the fixture for exact
/// LRU/budget arithmetic. target 6 B -> 4 shards of 3 vertices each.
class ShardCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = FixtureBase("gal_ooc_cache");
    g_ = Cycle(12);
    ShardWriterOptions wopt;
    wopt.target_shard_bytes = 6;
    auto summary = WriteShardedGraph(g_, base_, wopt);
    ASSERT_TRUE(summary.ok()) << summary.status();
    ASSERT_EQ(4u, summary.value().num_shards);
    shard_bytes_ = summary.value().max_shard_resident_bytes;
  }
  void TearDown() override { RemoveShardedGraphFiles(base_); }

  ShardedGraph OpenWithBudget(uint64_t budget) {
    OocOptions options;
    options.memory_budget_bytes = budget;
    auto opened = ShardedGraph::Open(base_, options);
    EXPECT_TRUE(opened.ok()) << opened.status();
    return std::move(opened.value());
  }

  OocEnvGuard guard_;
  std::string base_;
  Graph g_;
  uint64_t shard_bytes_ = 0;
};

TEST_F(ShardCacheTest, EvictionOrderIsStrictLru) {
  ShardedGraph sg = OpenWithBudget(2 * shard_bytes_);
  { PinnedShard p = sg.Pin(0); }
  { PinnedShard p = sg.Pin(1); }
  { PinnedShard p = sg.Pin(2); }  // evicts 0 (least recently used)
  EXPECT_EQ((std::vector<uint32_t>{1, 2}), sg.cache().ResidentShards());
  { PinnedShard p = sg.Pin(1); }  // hit; 2 becomes LRU
  { PinnedShard p = sg.Pin(3); }  // evicts 2, not 1
  EXPECT_EQ((std::vector<uint32_t>{1, 3}), sg.cache().ResidentShards());

  const ShardCacheStats stats = sg.cache().Stats();
  EXPECT_EQ(4u, stats.loads);
  EXPECT_EQ(1u, stats.hits);
  EXPECT_EQ(2u, stats.evictions);
  EXPECT_EQ(4u * shard_bytes_, stats.bytes_loaded);
}

TEST_F(ShardCacheTest, BudgetIsNeverExceeded) {
  ShardedGraph sg = OpenWithBudget(2 * shard_bytes_);
  // A pseudo-random but fixed access trace.
  const uint32_t trace[] = {0, 3, 1, 1, 2, 0, 3, 2, 1, 0, 2, 3, 3, 0, 1};
  for (uint32_t s : trace) {
    PinnedShard p = sg.Pin(s);
    EXPECT_LE(sg.cache().Stats().resident_bytes, sg.cache().budget_bytes());
  }
  EXPECT_LE(sg.cache().Stats().peak_resident_bytes, sg.cache().budget_bytes());
}

TEST_F(ShardCacheTest, UnlimitedBudgetNeverEvicts) {
  ShardedGraph sg = OpenWithBudget(0);
  for (uint32_t pass = 0; pass < 3; ++pass) {
    for (uint32_t s = 0; s < sg.NumShards(); ++s) {
      PinnedShard p = sg.Pin(s);
    }
  }
  const ShardCacheStats stats = sg.cache().Stats();
  EXPECT_EQ(4u, stats.loads);
  EXPECT_EQ(8u, stats.hits);
  EXPECT_EQ(0u, stats.evictions);
  EXPECT_EQ(4u * shard_bytes_, stats.resident_bytes);
}

TEST_F(ShardCacheTest, PinnedShardSurvivesEvictionPressure) {
  ShardedGraph sg = OpenWithBudget(2 * shard_bytes_);
  PinnedShard held = sg.Pin(0);
  auto cursor = held.OutNeighbors(0);
  // Cycle through every other shard repeatedly; each load must evict,
  // and the only legal victims are the unpinned shards.
  for (uint32_t pass = 0; pass < 3; ++pass) {
    for (uint32_t s = 1; s < sg.NumShards(); ++s) {
      PinnedShard p = sg.Pin(s);
      const std::vector<uint32_t> resident = sg.cache().ResidentShards();
      EXPECT_TRUE(std::find(resident.begin(), resident.end(), 0u) !=
                  resident.end())
          << "pinned shard 0 was evicted";
    }
  }
  // The held cursor still walks valid bytes: vertex 0's neighbors in
  // Cycle(12) are {1, 11}.
  std::vector<VertexId> got;
  for (; cursor.Valid(); cursor.Next()) got.push_back(cursor.Get());
  EXPECT_EQ((std::vector<VertexId>{1, 11}), got);
  EXPECT_LE(sg.cache().Stats().peak_resident_bytes, sg.cache().budget_bytes());
}

TEST_F(ShardCacheTest, OneShardBudgetIsSafeAcrossThreads) {
  ShardedGraph sg = OpenWithBudget(shard_bytes_);
  // Two threads hammer disjoint and overlapping shards; the blocking
  // Acquire plus the one-pin-per-thread discipline must neither
  // deadlock nor overshoot the budget.
  auto worker = [&](uint32_t salt) {
    std::vector<VertexId> scratch;
    for (uint32_t i = 0; i < 200; ++i) {
      const VertexId v = (i * 7 + salt) % sg.NumVertices();
      const auto span = sg.NeighborsInto(v, scratch);
      ASSERT_EQ(2u, span.size());  // every Cycle vertex has degree 2
    }
  };
  std::thread a(worker, 0), b(worker, 5);
  a.join();
  b.join();
  EXPECT_LE(sg.cache().Stats().peak_resident_bytes, sg.cache().budget_bytes());
}

// ---------------------------------------------------------------------------

struct ParityCase {
  uint64_t budget;  // option value; env may override (check.sh does)
  uint32_t threads;
};

class OocParityTest : public ::testing::Test {
 protected:
  static std::vector<ParityCase> Cases(const ShardWriteSummary& summary) {
    const uint64_t one_shard = summary.max_shard_resident_bytes;
    const uint64_t half =
        std::max(one_shard, summary.total_adj_bytes / 2);
    std::vector<ParityCase> cases;
    for (uint64_t budget : {one_shard, half, uint64_t{0}}) {
      for (uint32_t threads : {1u, 8u}) cases.push_back({budget, threads});
    }
    return cases;
  }
};

TEST_F(OocParityTest, PageRankBitIdenticalAcrossBudgetsAndThreads) {
  const Graph g = ErdosRenyi(250, 0.03, 11);
  const std::string base = TempBase("gal_ooc_parity_pr");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 1024;
  auto summary = WriteShardedGraph(g, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();

  const PageRankResult want = PageRank(g);
  for (const ParityCase& c : Cases(summary.value())) {
    OocOptions options;
    options.memory_budget_bytes = c.budget;
    auto opened = ShardedGraph::Open(base, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    OocPageRankOptions propt;
    propt.num_threads = c.threads;
    const OocPageRankResult got = OocPageRank(opened.value(), propt);
    ASSERT_EQ(want.ranks, got.ranks)
        << "budget " << c.budget << ", threads " << c.threads;
    if (got.stats.budget_bytes > 0) {
      EXPECT_LE(got.stats.peak_resident_bytes, got.stats.budget_bytes);
    }
    EXPECT_EQ(20u, got.stats.supersteps);
    EXPECT_GT(got.stats.shard_loads, 0u);
  }
  RemoveShardedGraphFiles(base);
}

TEST_F(OocParityTest, WccBitIdenticalAcrossBudgetsAndThreads) {
  const Graph g = ErdosRenyi(250, 0.008, 17);  // sparse -> many components
  const std::string base = TempBase("gal_ooc_parity_wcc");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 512;
  auto summary = WriteShardedGraph(g, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();

  const WccResult want = Wcc(g);
  for (const ParityCase& c : Cases(summary.value())) {
    OocOptions options;
    options.memory_budget_bytes = c.budget;
    auto opened = ShardedGraph::Open(base, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    OocWccOptions wopt2;
    wopt2.num_threads = c.threads;
    const OocWccResult got = OocWcc(opened.value(), wopt2);
    ASSERT_EQ(want.component, got.component)
        << "budget " << c.budget << ", threads " << c.threads;
    EXPECT_EQ(want.num_components, got.num_components);
    if (got.stats.budget_bytes > 0) {
      EXPECT_LE(got.stats.peak_resident_bytes, got.stats.budget_bytes);
    }
  }
  RemoveShardedGraphFiles(base);
}

TEST_F(OocParityTest, TrianglesAndOpsMatchTaskEngineAcrossBudgets) {
  const Graph g = ErdosRenyi(200, 0.06, 23);
  const std::string base = TempBase("gal_ooc_parity_tri");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 1024;
  auto summary = WriteShardedGraph(g, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();

  const TriangleCountResult want = TaskTriangleCount(g, {});
  EXPECT_GT(want.triangles, 0u);
  for (const ParityCase& c : Cases(summary.value())) {
    OocOptions options;
    options.memory_budget_bytes = c.budget;
    auto opened = ShardedGraph::Open(base, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    OocTriangleOptions topt;
    topt.engine.num_threads = c.threads;
    const OocTriangleResult got = OocTriangleCount(opened.value(), topt);
    EXPECT_EQ(want.triangles, got.triangles)
        << "budget " << c.budget << ", threads " << c.threads;
    EXPECT_EQ(want.intersection_ops, got.intersection_ops)
        << "budget " << c.budget << ", threads " << c.threads;
    if (got.stats.budget_bytes > 0) {
      EXPECT_LE(got.stats.peak_resident_bytes, got.stats.budget_bytes);
    }
  }
  RemoveShardedGraphFiles(base);
}

TEST_F(OocParityTest, ReorderedCompressedStoreMatchesPlainResults) {
  const Graph plain = ErdosRenyi(220, 0.03, 29);
  GraphOptions options;
  options.reorder = ReorderMode::kHubCluster;
  options.compression = CompressionMode::kDeltaVarint;
  const Graph fancy =
      Graph::FromEdges(plain.NumVertices(), plain.CollectEdges(), options)
          .value();
  const std::string base = TempBase("gal_ooc_parity_reordered");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 1024;
  auto summary = WriteShardedGraph(fancy, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();

  OocOptions oopt;
  oopt.memory_budget_bytes = summary.value().max_shard_resident_bytes;
  auto opened = ShardedGraph::Open(base, oopt);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const ShardedGraph& sg = opened.value();

  // Results come back in original-id space, so the plain in-memory run
  // is the reference — the same contract the reorder substrate has.
  EXPECT_EQ(PageRank(plain).ranks, OocPageRank(sg).ranks);
  const WccResult want_wcc = Wcc(plain);
  const OocWccResult got_wcc = OocWcc(sg);
  EXPECT_EQ(want_wcc.component, got_wcc.component);
  EXPECT_EQ(want_wcc.num_components, got_wcc.num_components);
  // intersection_ops is layout-dependent by design, so the ops
  // reference is the in-memory run on the SAME layout.
  const TriangleCountResult want_tri = TaskTriangleCount(fancy, {});
  const OocTriangleResult got_tri = OocTriangleCount(sg);
  EXPECT_EQ(TaskTriangleCount(plain, {}).triangles, got_tri.triangles);
  EXPECT_EQ(want_tri.triangles, got_tri.triangles);
  EXPECT_EQ(want_tri.intersection_ops, got_tri.intersection_ops);
  RemoveShardedGraphFiles(base);
}

TEST_F(OocParityTest, WccSkipsShardsOnceTheirRangeConverges) {
  // Component A (a triangle over vertices 0..2) converges in a couple
  // of supersteps; component B (a long cycle over 3..66) needs ~32.
  // With 3-vertex-range shards, A's shard must be skipped in the long
  // tail — the frontier-aware scheduling observable. The observable
  // depends on shard geometry, so this one parity test pins the env
  // knobs (the others deliberately honor them).
  OocEnvGuard guard;
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  for (VertexId v = 3; v < 66; ++v) edges.push_back({v, v + 1});
  edges.push_back({66, 3});
  const Graph g = Graph::FromEdges(67, std::move(edges)).value();
  const std::string base = TempBase("gal_ooc_skip");
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = 8;
  auto summary = WriteShardedGraph(g, base, wopt);
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_GT(summary.value().num_shards, 4u);

  auto opened = ShardedGraph::Open(base);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const OocWccResult got = OocWcc(opened.value());
  const WccResult want = Wcc(g);
  EXPECT_EQ(want.component, got.component);
  EXPECT_EQ(2u, got.num_components);
  EXPECT_GT(got.stats.shards_skipped, 0u);
  EXPECT_GT(got.stats.supersteps, 10u);
  RemoveShardedGraphFiles(base);
}

}  // namespace
}  // namespace gal
