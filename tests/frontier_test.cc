// The direction-optimizing frontier substrate: representation
// exactness, the Beamer switch heuristics and their env knobs, and
// bit-identical traversal results (through TlavBfs / Wcc / TlavSssp, the
// substrate's entry points) across directions, worker counts, and host
// thread counts.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "frontier/direction.h"
#include "frontier/frontier.h"
#include "graph/generators.h"
#include "serial_reference.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

// --- Representations ----------------------------------------------------------

TEST(FrontierBitmapTest, SetTestClearRoundTrip) {
  FrontierBitmap bits(200);
  EXPECT_TRUE(bits.Empty());
  for (size_t i = 0; i < 200; i += 7) bits.Set(i);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(bits.Test(i), i % 7 == 0) << i;
  }
  EXPECT_EQ(bits.Count(), (200 + 6) / 7);
  bits.Clear(0);
  EXPECT_FALSE(bits.Test(0));
  bits.Reset();
  EXPECT_TRUE(bits.Empty());
}

TEST(FrontierBitmapTest, AppendSetBitsMatchesTestExactly) {
  // Word boundaries (63, 64, 65) and a sparse tail.
  FrontierBitmap bits(300);
  const std::vector<VertexId> want = {0, 1, 63, 64, 65, 127, 128, 255, 299};
  for (VertexId v : want) bits.Set(v);
  std::vector<VertexId> got;
  bits.AppendSetBits(got);
  EXPECT_EQ(got, want);  // ascending, exact
  EXPECT_EQ(bits.Count(), want.size());
}

TEST(SlidingQueueTest, SlideExposesExactlyWhatWasPushed) {
  SlidingQueue<int> q;
  q.Push(3);
  q.Push(1);
  EXPECT_TRUE(q.WindowEmpty());
  EXPECT_EQ(q.PendingSize(), 2u);
  q.Slide();
  ASSERT_EQ(q.WindowSize(), 2u);
  EXPECT_EQ(q.At(0), 3);
  EXPECT_EQ(q.At(1), 1);
  // Push while consuming: lands in the next window, not the current one.
  for (size_t i = 0; i < q.WindowSize(); ++i) q.Push(q.At(i) * 10);
  EXPECT_EQ(q.WindowSize(), 2u);
  q.Slide();
  ASSERT_EQ(q.WindowSize(), 2u);
  EXPECT_EQ(q.At(0), 30);
  EXPECT_EQ(q.At(1), 10);
  q.Slide();
  EXPECT_TRUE(q.WindowEmpty());
}

TEST(VertexFrontierTest, SparseAndDenseViewsAgree) {
  Graph g = Star(50);
  VertexFrontier f(g.NumVertices());
  uint64_t edges = 0;
  for (VertexId v : {VertexId{0}, VertexId{7}, VertexId{49}}) {
    f.Add(v, g.Degree(v));
    edges += g.Degree(v);
  }
  EXPECT_EQ(f.VertexCount(), 3u);
  EXPECT_EQ(f.EdgeCount(), edges);  // scout count = sum of degrees
  const FrontierBitmap& bits = f.Bitmap();
  EXPECT_EQ(bits.Count(), 3u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(bits.Test(v), v == 0 || v == 7 || v == 49) << v;
  }
  // Dense -> sparse round trip is exact.
  VertexFrontier back(g.NumVertices());
  back.AssignFromBitmap(bits, g);
  EXPECT_EQ(std::vector<VertexId>(back.Vertices().begin(),
                                  back.Vertices().end()),
            (std::vector<VertexId>{0, 7, 49}));
  EXPECT_EQ(back.EdgeCount(), edges);
}

// --- Direction heuristics -----------------------------------------------------

TEST(DirectionControllerTest, SwitchesAtBeamerThresholdsWithHysteresis) {
  DirectionConfig config;  // alpha = 15, beta = 18
  DirectionController c(config, /*num_vertices=*/1800);
  // Sparse frontier: m_f well under m_u / alpha stays push.
  EXPECT_EQ(c.Next(/*m_f=*/10, /*n_f=*/5, /*m_u=*/15000), Direction::kPush);
  // m_f crosses m_u / alpha = 1000: flip to pull.
  EXPECT_EQ(c.Next(1001, 500, 15000), Direction::kPull);
  // Hysteresis: a pull step with the same m_f stays pull while the
  // frontier is at least |V| / beta = 100 vertices.
  EXPECT_EQ(c.Next(1001, 100, 15000), Direction::kPull);
  // Frontier thins below |V| / beta: back to push.
  EXPECT_EQ(c.Next(50, 99, 15000), Direction::kPush);
  EXPECT_EQ(c.switches(), 2u);
}

TEST(DirectionControllerTest, ForcedModesNeverSwitch) {
  DirectionController push(DirectionConfig{DirectionMode::kPushOnly, 15, 18},
                           100);
  EXPECT_EQ(push.Next(1000000, 100, 1), Direction::kPush);
  DirectionController pull(DirectionConfig{DirectionMode::kPullOnly, 15, 18},
                           100);
  EXPECT_EQ(pull.Next(0, 1, 1000000), Direction::kPull);
  EXPECT_EQ(push.switches(), 0u);
  EXPECT_EQ(pull.switches(), 0u);
}

class DirectionConfigTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("GAL_FRONTIER_MODE");
    unsetenv("GAL_FRONTIER_ALPHA");
    unsetenv("GAL_FRONTIER_BETA");
  }
};

TEST_F(DirectionConfigTest, EnvOverridesKnobs) {
  ASSERT_EQ(setenv("GAL_FRONTIER_MODE", "pull", 1), 0);
  ASSERT_EQ(setenv("GAL_FRONTIER_ALPHA", "3.5", 1), 0);
  ASSERT_EQ(setenv("GAL_FRONTIER_BETA", "7", 1), 0);
  DirectionConfig config = DirectionConfig::FromEnv();
  EXPECT_EQ(config.mode, DirectionMode::kPullOnly);
  EXPECT_DOUBLE_EQ(config.alpha, 3.5);
  EXPECT_DOUBLE_EQ(config.beta, 7.0);
  ASSERT_EQ(setenv("GAL_FRONTIER_MODE", "push", 1), 0);
  EXPECT_EQ(DirectionConfig::FromEnv().mode, DirectionMode::kPushOnly);
  ASSERT_EQ(setenv("GAL_FRONTIER_MODE", "auto", 1), 0);
  EXPECT_EQ(DirectionConfig::FromEnv().mode, DirectionMode::kAuto);
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST_F(DirectionConfigTest, MalformedValuesWarnOnceAndKeepDefaults) {
  // Full-string parses: a prefix ("pul"), a number with trailing junk
  // ("3.5x"), a non-number, a non-positive value and an empty string are
  // all malformed. Each keeps its default and warns once per process, no
  // matter how often the knobs are resolved.
  const std::pair<const char*, const char*> cases[] = {
      {"GAL_FRONTIER_MODE", "pul"},      {"GAL_FRONTIER_MODE", "sideways"},
      {"GAL_FRONTIER_ALPHA", "3.5x"},    {"GAL_FRONTIER_ALPHA", "abc"},
      {"GAL_FRONTIER_BETA", "-2"},       {"GAL_FRONTIER_BETA", ""},
  };
  testing::internal::CaptureStderr();
  for (const auto& [var, value] : cases) {
    ASSERT_EQ(setenv(var, value, 1), 0);
    for (int repeat = 0; repeat < 2; ++repeat) {
      const DirectionConfig config = DirectionConfig::FromEnv();
      EXPECT_EQ(config.mode, DirectionMode::kAuto) << var << "=" << value;
      EXPECT_DOUBLE_EQ(config.alpha, 15.0) << var << "=" << value;
      EXPECT_DOUBLE_EQ(config.beta, 18.0) << var << "=" << value;
    }
    ASSERT_EQ(unsetenv(var), 0);
  }
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Count(log, "GAL_FRONTIER_MODE=\"pul\""), 1u) << log;
  EXPECT_EQ(Count(log, "GAL_FRONTIER_ALPHA=\"3.5x\""), 1u) << log;
  EXPECT_EQ(Count(log, "GAL_FRONTIER_BETA=\"-2\""), 1u) << log;
  for (const char* var :
       {"GAL_FRONTIER_MODE", "GAL_FRONTIER_ALPHA", "GAL_FRONTIER_BETA"}) {
    EXPECT_EQ(Count(log, var), 1u) << log;  // once per variable
  }
}

// --- Traversal parity ---------------------------------------------------------

template <typename Options>
Options ModeOptions(DirectionMode mode, uint32_t workers) {
  Options options;
  options.direction.mode = mode;
  options.engine.num_workers = workers;
  return options;
}
constexpr auto TraversalMode = ModeOptions<TraversalOptions>;
constexpr auto WccMode = ModeOptions<WccOptions>;

class FrontierParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FrontierParityTest, BfsIdenticalAcrossDirectionsAndWorkers) {
  const uint32_t workers = GetParam();
  for (int kind = 0; kind < 3; ++kind) {
    Graph g = kind == 0   ? Rmat(8, 8, 21)
              : kind == 1 ? Grid(13, 17)
                          : Star(160);
    const std::vector<uint32_t> ref = SerialBfs(g, 0);
    BfsResult push =
        TlavBfs(g, 0, TraversalMode(DirectionMode::kPushOnly, workers));
    BfsResult pull =
        TlavBfs(g, 0, TraversalMode(DirectionMode::kPullOnly, workers));
    BfsResult hybrid =
        TlavBfs(g, 0, TraversalMode(DirectionMode::kAuto, workers));
    ASSERT_TRUE(push.status.ok());
    EXPECT_EQ(push.distance, ref) << "kind=" << kind;
    EXPECT_EQ(pull.distance, ref) << "kind=" << kind;
    EXPECT_EQ(hybrid.distance, ref) << "kind=" << kind;
    EXPECT_EQ(push.stats.pull_supersteps, 0u);
    EXPECT_EQ(pull.stats.pull_supersteps, pull.stats.supersteps);
  }
}

TEST_P(FrontierParityTest, WccIdenticalAcrossDirectionsAndWorkers) {
  const uint32_t workers = GetParam();
  for (int kind = 0; kind < 3; ++kind) {
    Graph g = kind == 0   ? ErdosRenyi(300, 0.004, 9)  // fragmented
              : kind == 1 ? Rmat(8, 6, 33)
                          : Path(150);
    WccResult push = Wcc(g, WccMode(DirectionMode::kPushOnly, workers));
    WccResult pull = Wcc(g, WccMode(DirectionMode::kPullOnly, workers));
    WccResult hybrid = Wcc(g, WccMode(DirectionMode::kAuto, workers));
    EXPECT_EQ(pull.component, push.component) << "kind=" << kind;
    EXPECT_EQ(hybrid.component, push.component) << "kind=" << kind;
    EXPECT_EQ(pull.num_components, push.num_components);
    EXPECT_EQ(hybrid.num_components, push.num_components);
    // Every edge joins one component; labels are component minima.
    for (const Edge& e : g.CollectEdges()) {
      EXPECT_EQ(push.component[e.src], push.component[e.dst]);
      EXPECT_LE(push.component[e.src], e.src);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, FrontierParityTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(FrontierTraversalTest, ResultsInvariantToHostThreads) {
  Graph g = Rmat(8, 8, 5);
  const TraversalOptions bfs = TraversalMode(DirectionMode::kAuto, 4);
  const WccOptions wcc = WccMode(DirectionMode::kAuto, 4);
  ASSERT_EQ(setenv("GAL_TASK_THREADS", "1", 1), 0);
  BfsResult bfs1 = TlavBfs(g, 0, bfs);
  WccResult wcc1 = Wcc(g, wcc);
  ASSERT_EQ(setenv("GAL_TASK_THREADS", "8", 1), 0);
  BfsResult bfs8 = TlavBfs(g, 0, bfs);
  WccResult wcc8 = Wcc(g, wcc);
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
  EXPECT_EQ(bfs1.distance, bfs8.distance);
  EXPECT_EQ(wcc1.component, wcc8.component);
  // Simulated work is an engine property, not a host-thread property.
  EXPECT_EQ(bfs1.stats.edge_scans, bfs8.stats.edge_scans);
  EXPECT_EQ(bfs1.stats.cross_worker_messages, bfs8.stats.cross_worker_messages);
  EXPECT_EQ(wcc1.stats.total_messages, wcc8.stats.total_messages);
}

TEST(FrontierTraversalTest, DenseFrontierPullsThenSparseTailPushes) {
  // A star forces the flip: one step saturates the frontier. Pull scans
  // fewer edges than the push fan-out (no echo scans back at the hub).
  Graph g = Star(300);
  BfsResult r = TlavBfs(g, 0, TraversalMode(DirectionMode::kAuto, 4));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.pull_supersteps, 0u);
  BfsResult push = TlavBfs(g, 0, TraversalMode(DirectionMode::kPushOnly, 4));
  EXPECT_LT(r.stats.edge_scans, push.stats.edge_scans);

  // On a dense power-law graph the wire volume flips too: push sends a
  // duplicate claim per frontier in-edge of every unvisited vertex,
  // pull stops probing at the first frontier hit. Step traffic is
  // compared net of checkpoint/restore bytes, which a forced fault
  // schedule adds to both runs.
  auto step_wire = [](const TlavStats& s) {
    return s.cross_worker_bytes - s.checkpoint_bytes - s.restored_bytes;
  };
  Graph pl = BarabasiAlbert(500, 8, 3);
  BfsResult pl_auto = TlavBfs(pl, 0, TraversalMode(DirectionMode::kAuto, 4));
  BfsResult pl_push =
      TlavBfs(pl, 0, TraversalMode(DirectionMode::kPushOnly, 4));
  ASSERT_GT(pl_auto.stats.pull_supersteps, 0u);
  EXPECT_EQ(pl_auto.distance, pl_push.distance);
  EXPECT_LT(pl_auto.stats.edge_scans, pl_push.stats.edge_scans);
  EXPECT_LT(step_wire(pl_auto.stats), step_wire(pl_push.stats));
}

TEST(FrontierTraversalTest, PullOnDirectedGraphUsesInNeighbors) {
  // Directed path 0->1->2->...: pull must gather over in-edges to see
  // the frontier at all.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1});
  GraphOptions go;
  go.directed = true;
  Graph g = std::move(Graph::FromEdges(64, std::move(edges), go).value());
  const std::vector<uint32_t> ref = SerialBfs(g, 0);
  BfsResult pull = TlavBfs(g, 0, TraversalMode(DirectionMode::kPullOnly, 2));
  EXPECT_EQ(pull.distance, ref);
  EXPECT_EQ(pull.stats.pull_supersteps, pull.stats.supersteps);
}

TEST(FrontierTraversalTest, SsspMatchesSerialDijkstra) {
  Graph g = Rmat(7, 8, 11);
  for (uint32_t workers : {1u, 4u}) {
    SsspResult r = TlavSssp(g, 3, TraversalMode(DirectionMode::kAuto, workers));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.distance, SerialDijkstra(g, 3)) << "workers=" << workers;
    EXPECT_EQ(r.stats.pull_supersteps, 0u);  // weighted steps always scatter
  }
}

TEST(FrontierTraversalTest, BfsRejectsOutOfRangeSource) {
  Graph g = Path(10);
  BfsResult r = TlavBfs(g, 10);
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.distance.empty());
  SsspResult s = TlavSssp(g, 1000);
  EXPECT_FALSE(s.status.ok());
  EXPECT_TRUE(s.distance.empty());
}

TEST(FrontierTraversalTest, MessageBytesArePayloadOnly) {
  // Like every TLAV run, total_message_bytes counts logical payload
  // (sizeof the value a step sends); the wire envelope shows up only in
  // the ledger-backed cross_worker_bytes.
  Graph g = Rmat(8, 8, 17);
  for (DirectionMode mode : {DirectionMode::kPushOnly, DirectionMode::kAuto}) {
    BfsResult bfs = TlavBfs(g, 0, TraversalMode(mode, 4));
    WccResult wcc = Wcc(g, WccMode(mode, 4));
    SsspResult sssp = TlavSssp(g, 0, TraversalMode(mode, 4));
    ASSERT_GT(bfs.stats.total_messages, 0u);
    EXPECT_EQ(bfs.stats.total_message_bytes,
              bfs.stats.total_messages * sizeof(uint32_t));
    EXPECT_EQ(wcc.stats.total_message_bytes,
              wcc.stats.total_messages * sizeof(VertexId));
    EXPECT_EQ(sssp.stats.total_message_bytes,
              sssp.stats.total_messages * sizeof(uint64_t));
  }
}

}  // namespace
}  // namespace gal
