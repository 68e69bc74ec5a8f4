#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "serial_reference.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/triangle_tlav.h"
#include "tlav/algos/wcc.h"
#include "tlav/algos/batched_queries.h"
#include "tlav/algos/wcc_sv.h"
#include "tlav/engine.h"

namespace gal {
namespace {

// --- serial references -----------------------------------------------------

uint64_t SerialTriangles(const Graph& g) {
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
}

// --- engine mechanics --------------------------------------------------------

struct CountdownProgram : public VertexProgram<int, int> {
  void Compute(VertexHandle<int, int>& v, std::span<const int>) override {
    if (v.superstep() < 3) {
      v.SendTo(v.id(), 0);  // self-message keeps the vertex alive
    } else {
      v.value() = static_cast<int>(v.superstep());
      v.VoteToHalt();
    }
  }
};

TEST(TlavEngineTest, TerminatesWhenAllHaltAndTracksSupersteps) {
  Graph g = Path(10);
  TlavEngine<int, int> engine(&g, TlavConfig{.num_workers = 2});
  CountdownProgram program;
  TlavStats stats = engine.Run(program);
  EXPECT_EQ(stats.supersteps, 4u);  // steps 0..3
  for (int v : engine.values()) EXPECT_EQ(v, 3);
}

struct EchoProgram : public VertexProgram<int, int> {
  void Compute(VertexHandle<int, int>& v, std::span<const int> msgs) override {
    if (v.superstep() == 0) {
      v.SendToAllNeighbors(1);
    } else {
      v.value() = static_cast<int>(msgs.size());
    }
    v.VoteToHalt();
  }
};

TEST(TlavEngineTest, MessageCountsMatchDegrees) {
  Graph g = Star(6);
  TlavEngine<int, int> engine(&g, TlavConfig{.num_workers = 3});
  EchoProgram program;
  TlavStats stats = engine.Run(program);
  EXPECT_EQ(engine.values()[0], 5);  // hub hears from all leaves
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(engine.values()[v], 1);
  EXPECT_EQ(stats.total_messages, 10u);  // 2 * |E|
}

TEST(TlavEngineTest, CrossWorkerTrafficDependsOnPartition) {
  Graph g = Path(64);
  // Range partition of a path keeps almost all edges internal.
  TlavEngine<int, int> range_engine(&g, TlavConfig{.num_workers = 4},
                                    RangePartition(g, 4));
  EchoProgram p1;
  TlavStats range_stats = range_engine.Run(p1);
  TlavEngine<int, int> hash_engine(&g, TlavConfig{.num_workers = 4});
  EchoProgram p2;
  TlavStats hash_stats = hash_engine.Run(p2);
  EXPECT_EQ(range_stats.total_messages, hash_stats.total_messages);
  EXPECT_LT(range_stats.cross_worker_messages,
            hash_stats.cross_worker_messages / 2);
}

struct AggregatorProgram : public VertexProgram<double, int> {
  explicit AggregatorProgram(AggregatorId degsum) : degsum(degsum) {}
  void Compute(VertexHandle<double, int>& v, std::span<const int>) override {
    if (v.superstep() == 0) {
      v.Aggregate(degsum, v.Degree());
      v.SendTo(v.id(), 0);
    } else {
      v.value() = v.GetAggregate(degsum);
      v.VoteToHalt();
    }
  }
  AggregatorId degsum;
};

TEST(TlavEngineTest, AggregatorVisibleNextSuperstep) {
  Graph g = Complete(5);
  TlavEngine<double, int> engine(&g, TlavConfig{.num_workers = 2});
  AggregatorProgram program(engine.RegisterAggregator(AggregateOp::kSum));
  engine.Run(program);
  for (double v : engine.values()) EXPECT_DOUBLE_EQ(v, 20.0);  // 2|E|
}

/// What InexactSumProgram leaves at each vertex: the aggregate and the
/// combined message it read in its last superstep.
struct InexactSums {
  double aggregate = 0.0;
  float received = 0.0f;
};

/// Sums no double or float holds exactly, so each result depends on the
/// order its terms fold in: 0.1 * (v mod 7) into a double kSum
/// aggregator, and 0.1f * (v mod 5 + 1) messages to every neighbor,
/// folded by a float-sum combiner.
struct InexactSumProgram : public VertexProgram<InexactSums, float> {
  explicit InexactSumProgram(AggregatorId sum) : sum(sum) {}
  void Compute(VertexHandle<InexactSums, float>& v,
               std::span<const float> messages) override {
    if (v.superstep() > 0) {
      v.value().aggregate = v.GetAggregate(sum);
      v.value().received = messages.empty() ? 0.0f : messages[0];
    }
    if (v.superstep() < 3) {
      v.Aggregate(sum, 0.1 * (v.id() % 7));
      v.SendToAllNeighbors(0.1f * static_cast<float>(v.id() % 5 + 1));
    } else {
      v.VoteToHalt();
    }
  }
  bool has_combiner() const override { return true; }
  float Combine(const float& a, const float& b) const override {
    return a + b;
  }
  AggregatorId sum;
};

std::vector<InexactSums> RunInexactSums(const Graph& g, uint32_t workers,
                                        const char* threads) {
  EXPECT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
  TlavEngine<InexactSums, float> engine(&g,
                                        TlavConfig{.num_workers = workers});
  InexactSumProgram program(engine.RegisterAggregator(AggregateOp::kSum));
  engine.Run(program);
  EXPECT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
  return engine.values();
}

TEST(TlavEngineTest, InexactAggregatesAndCombinesAreThreadCountInvariant) {
  // Each worker folds its own vertices' contributions, and the barrier
  // folds the workers' partials in ascending order; the combiner folds
  // in send order per source worker, sources ascending. Neither order
  // depends on which host thread ran which worker, so at a fixed worker
  // count every bit agrees across thread counts and repeated runs.
  const Graph g = Rmat(12, 8, 3);
  for (const uint32_t workers : {1u, 4u}) {
    const std::vector<InexactSums> want = RunInexactSums(g, workers, "1");
    for (int repeat = 0; repeat < 5; ++repeat) {
      const std::vector<InexactSums> got = RunInexactSums(g, workers, "8");
      ASSERT_EQ(got.size(), want.size());
      for (size_t v = 0; v < got.size(); ++v) {
        EXPECT_EQ(got[v].aggregate, want[v].aggregate)
            << "workers=" << workers << " vertex " << v;
        EXPECT_EQ(got[v].received, want[v].received)
            << "workers=" << workers << " vertex " << v;
      }
    }
  }
}

/// The kSum, kMin and kMax aggregates a vertex read at superstep 1.
using AggregateReads = std::array<double, 3>;

/// Contributes 1, v + 1 and -(v + 1) at superstep 0 to a kSum, kMin and
/// kMax aggregator; reads all three back at superstep 1.
struct InitialValueProgram : public VertexProgram<AggregateReads, int> {
  explicit InitialValueProgram(std::array<AggregatorId, 3> ids) : ids(ids) {}
  void Compute(VertexHandle<AggregateReads, int>& v,
               std::span<const int>) override {
    const double rank = static_cast<double>(v.id()) + 1.0;
    if (v.superstep() == 0) {
      v.Aggregate(ids[0], 1.0);
      v.Aggregate(ids[1], rank);
      v.Aggregate(ids[2], -rank);
      v.SendTo(v.id(), 0);
      return;
    }
    for (size_t i = 0; i < 3; ++i) v.value()[i] = v.GetAggregate(ids[i]);
    v.VoteToHalt();
  }
  std::array<AggregatorId, 3> ids;
};

TEST(TlavEngineTest, AggregatorFoldsItsInitialValueOnce) {
  // Per-worker partials start at the op's identity, not at `initial`:
  // four workers read initial + Σ, not 4 * initial + Σ. The min and max
  // start beyond every contribution, so they read the contributions'
  // extremes; partials that started at 0.0 would read 0.
  const Graph g = Path(40);
  TlavEngine<AggregateReads, int> engine(&g, TlavConfig{.num_workers = 4});
  const std::array<AggregatorId, 3> ids = {
      engine.RegisterAggregator(AggregateOp::kSum, 100.0),
      engine.RegisterAggregator(AggregateOp::kMin, 1e9),
      engine.RegisterAggregator(AggregateOp::kMax, -1e9)};
  InitialValueProgram program(ids);
  engine.Run(program);
  for (const AggregateReads& read : engine.values()) {
    EXPECT_EQ(read[0], 140.0);
    EXPECT_EQ(read[1], 1.0);
    EXPECT_EQ(read[2], -1.0);
  }
}

/// The deterministic fields of two runs that must agree exactly.
void ExpectSameRun(const TlavStats& a, const TlavStats& b) {
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.cross_worker_messages, b.cross_worker_messages);
  EXPECT_EQ(a.total_message_bytes, b.total_message_bytes);
  EXPECT_EQ(a.cross_worker_bytes, b.cross_worker_bytes);
  EXPECT_EQ(a.vertex_activations, b.vertex_activations);
  EXPECT_EQ(a.edge_scans, b.edge_scans);
  ASSERT_EQ(a.per_step.size(), b.per_step.size());
  for (size_t s = 0; s < a.per_step.size(); ++s) {
    EXPECT_EQ(a.per_step[s].active_vertices, b.per_step[s].active_vertices);
    EXPECT_EQ(a.per_step[s].messages, b.per_step[s].messages);
  }
}

TEST(TlavEngineTest, ZeroWorkersResolvesToTheClusterDefault) {
  // num_workers = 0 resolves through ResolveClusterWorkers, as
  // ClusterOptions does: with GAL_CLUSTER_WORKERS unset that is the
  // default width of 4, so the run matches an explicit 4-worker run bit
  // for bit — through PageRank and through an engine built directly.
  ASSERT_EQ(unsetenv("GAL_CLUSTER_WORKERS"), 0);
  const Graph g = Rmat(8, 6, 3);
  PageRankOptions four;
  four.engine.num_workers = 4;
  PageRankOptions zero = four;
  zero.engine.num_workers = 0;
  const PageRankResult a = PageRank(g, four);
  const PageRankResult b = PageRank(g, zero);
  EXPECT_EQ(b.ranks, a.ranks);
  ExpectSameRun(b.stats, a.stats);

  TlavEngine<int, int> four_engine(&g, TlavConfig{.num_workers = 4});
  TlavEngine<int, int> zero_engine(&g, TlavConfig{.num_workers = 0});
  EXPECT_EQ(zero_engine.cluster().num_workers(), 4u);
  EchoProgram p4, p0;
  const TlavStats s4 = four_engine.Run(p4);
  const TlavStats s0 = zero_engine.Run(p0);
  EXPECT_EQ(zero_engine.values(), four_engine.values());
  ExpectSameRun(s0, s4);
}

TEST(TlavEngineTest, MaxSuperstepsBoundsRun) {
  Graph g = Path(4);
  TlavEngine<int, int> engine(&g, TlavConfig{.num_workers = 1,
                                             .max_supersteps = 2});
  CountdownProgram program;  // wants 4 supersteps
  TlavStats stats = engine.Run(program);
  EXPECT_EQ(stats.supersteps, 2u);
}

// --- Pregel+ hub mirroring -----------------------------------------------------

TEST(TlavEngineTest, MirroringCutsWireMessagesWithoutChangingResults) {
  // A hub broadcasting to receivers nobody else feeds is mirroring's
  // sweet spot: the combiner cannot collapse the hub's fan-out (every
  // message has a distinct destination), while one mirror per worker
  // can. Pregel+'s message reduction, on its ideal topology.
  Graph g = Star(2000);
  PageRankOptions plain;
  plain.engine.num_workers = 4;
  PageRankOptions mirrored = plain;
  mirrored.engine.mirror_degree_threshold = 64;
  PageRankResult a = PageRank(g, plain);
  PageRankResult b = PageRank(g, mirrored);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_NEAR(a.ranks[v], b.ranks[v], 1e-12);
  }
  EXPECT_GT(b.stats.mirrored_deliveries, 0u);
  // The hub's ~1500 cross-worker deliveries per superstep collapse to
  // <= 3 mirror messages: at least a 10x wire reduction overall.
  EXPECT_LT(b.stats.cross_worker_messages,
            a.stats.cross_worker_messages / 10);
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
}

TEST(TlavEngineTest, MirroringCanLoseToCombiningOnSharedReceivers) {
  // The Pregel+ trade-off the paper analyzes: when receivers are fed by
  // many senders, the combiner already collapses traffic and mirroring
  // adds its per-worker broadcast on top — no win. The engine's
  // accounting reproduces that tension honestly.
  Graph g = BarabasiAlbert(2000, 8, 3);
  PageRankOptions plain;
  plain.engine.num_workers = 4;
  PageRankOptions mirrored = plain;
  mirrored.engine.mirror_degree_threshold = 32;
  PageRankResult a = PageRank(g, plain);
  PageRankResult b = PageRank(g, mirrored);
  // Results identical; wire within ~5% either way on this topology.
  EXPECT_LT(b.stats.cross_worker_messages,
            a.stats.cross_worker_messages * 106 / 100);
  EXPECT_GT(b.stats.mirrored_deliveries, 0u);
}

TEST(TlavEngineTest, MirroringThresholdZeroIsOff) {
  Graph g = Star(100);
  TlavEngine<int, int> engine(&g, TlavConfig{.num_workers = 4});
  EchoProgram program;
  EXPECT_EQ(engine.Run(program).mirrored_deliveries, 0u);
}

TEST(TlavEngineTest, MirroringHelpsEvenWithoutCombiner) {
  // A broadcast program with no combiner: without mirroring the hub's
  // 99 sends at step 0 each cross the wire when remote; with mirroring,
  // at most one wire message per remote worker.
  Graph g = Star(100);
  TlavConfig plain;
  plain.num_workers = 4;
  TlavConfig mirrored = plain;
  mirrored.mirror_degree_threshold = 8;
  TlavEngine<int, int> plain_engine(&g, plain);
  TlavEngine<int, int> mirrored_engine(&g, mirrored);
  EchoProgram p1, p2;
  const TlavStats a = plain_engine.Run(p1);
  const TlavStats b = mirrored_engine.Run(p2);
  EXPECT_EQ(plain_engine.values(), mirrored_engine.values());
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_GT(b.mirrored_deliveries, 0u);
  EXPECT_LT(b.cross_worker_messages, a.cross_worker_messages);
}

// --- checkpointing / fault tolerance (shared FaultPlan) ----------------------

TEST(TlavEngineTest, CheckpointsAreTakenAndAccounted) {
  Graph g = Path(64);
  TlavConfig config;
  config.num_workers = 2;
  config.faults = FaultPlan{}.CheckpointEvery(10);
  WccResult r = Wcc(g, config);
  EXPECT_GT(r.stats.checkpoints_taken, 3u);
  EXPECT_GT(r.stats.checkpoint_bytes, 0u);
  EXPECT_EQ(r.stats.failures_recovered, 0u);
}

TEST(TlavEngineTest, RecoveryFromInjectedFailureMatchesCleanRun) {
  Graph g = ErdosRenyi(300, 0.01, 9);
  WccResult clean = Wcc(g);
  TlavConfig faulty;
  faulty.faults = FaultPlan{}.CheckpointEvery(3).FailWorkerAt(1, 7);
  WccResult recovered = Wcc(g, faulty);
  EXPECT_EQ(recovered.component, clean.component);
  EXPECT_EQ(recovered.stats.failures_recovered, 1u);
  EXPECT_GT(recovered.stats.recomputed_supersteps, 0u);
  EXPECT_LE(recovered.stats.recomputed_supersteps, 3u);
}

TEST(TlavEngineTest, RecoveryWorksForPageRankWithAggregators) {
  Graph g = Rmat(8, 6, 3);
  PageRankOptions clean_options;
  PageRankResult clean = PageRank(g, clean_options);
  PageRankOptions faulty_options;
  faulty_options.engine.faults =
      FaultPlan{}.CheckpointEvery(4).FailWorkerAt(0, 9);
  PageRankResult recovered = PageRank(g, faulty_options);
  ASSERT_EQ(recovered.stats.failures_recovered, 1u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_NEAR(recovered.ranks[v], clean.ranks[v], 1e-12);
  }
}

TEST(TlavEngineTest, MoreFrequentCheckpointsLessRecomputation) {
  Graph g = Path(256);
  TlavConfig sparse_cp;
  sparse_cp.faults = FaultPlan{}.CheckpointEvery(50).FailWorkerAt(0, 148);
  TlavConfig dense_cp;
  dense_cp.faults = FaultPlan{}.CheckpointEvery(5).FailWorkerAt(0, 148);
  WccResult a = Wcc(g, sparse_cp);
  WccResult b = Wcc(g, dense_cp);
  EXPECT_EQ(a.component, b.component);
  EXPECT_GT(a.stats.recomputed_supersteps, b.stats.recomputed_supersteps);
  EXPECT_GT(b.stats.checkpoint_bytes, a.stats.checkpoint_bytes);
}

TEST(TlavEngineTest, FailureBeforeFirstCheckpointRestoresInitialState) {
  Graph g = ErdosRenyi(200, 0.015, 5);
  WccResult clean = Wcc(g);
  TlavConfig faulty;
  // Checkpoints every 10 supersteps; the failure lands at superstep 4,
  // before any interval checkpoint — recovery replays from the initial
  // snapshot (rounds 0..4 recomputed).
  faulty.faults = FaultPlan{}.CheckpointEvery(10).FailWorkerAt(0, 4);
  WccResult recovered = Wcc(g, faulty);
  EXPECT_EQ(recovered.component, clean.component);
  EXPECT_EQ(recovered.stats.failures_recovered, 1u);
  EXPECT_EQ(recovered.stats.recomputed_supersteps, 5u);
}

// --- PageRank ---------------------------------------------------------------

TEST(PageRankTest, SumsToOneAndUniformOnRegularGraph) {
  Graph g = Cycle(20);
  PageRankResult r = PageRank(g);
  double sum = 0.0;
  for (double x : r.ranks) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (double x : r.ranks) EXPECT_NEAR(x, 1.0 / 20, 1e-9);
}

TEST(PageRankTest, HubOutranksLeaves) {
  Graph g = Star(50);
  PageRankResult r = PageRank(g);
  for (VertexId v = 1; v < 50; ++v) EXPECT_GT(r.ranks[0], r.ranks[v] * 5);
}

TEST(PageRankTest, DanglingMassIsConserved) {
  // Directed chain: 0 -> 1 -> 2; vertex 2 dangles.
  GraphOptions opt;
  opt.directed = true;
  Graph g = std::move(
      Graph::FromEdges(3, {{0, 1}, {1, 2}}, opt).value());
  PageRankResult r = PageRank(g);
  double sum = 0.0;
  for (double x : r.ranks) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRankTest, WorkerCountDoesNotChangeResult) {
  Graph g = Rmat(8, 6, 31);
  PageRankOptions one;
  one.engine.num_workers = 1;
  PageRankOptions eight;
  eight.engine.num_workers = 8;
  PageRankResult a = PageRank(g, one);
  PageRankResult b = PageRank(g, eight);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_NEAR(a.ranks[v], b.ranks[v], 1e-9);
  }
}

TEST(PageRankTest, EqualsSerialPowerIteration) {
  // Fixed-point sums are exact, so the engine's ranks equal the serial
  // power iteration's bit for bit at every worker and thread count, on
  // the raw layout and on a hub-cluster reordered, delta-varint one.
  constexpr uint32_t kIterations = 15;
  constexpr double kDamping = 0.85;
  for (const PageRankShape& shape : PageRankShapes()) {
    GraphOptions packed = shape.options;
    packed.reorder = ReorderMode::kHubCluster;
    packed.compression = CompressionMode::kDeltaVarint;
    std::vector<double> want;
    for (const GraphOptions& options : {shape.options, packed}) {
      Result<Graph> built = Graph::FromEdges(shape.n, shape.edges, options);
      ASSERT_TRUE(built.ok()) << shape.name;
      const Graph& g = *built;
      if (want.empty()) want = SerialPageRank(g, kIterations, kDamping);
      ASSERT_EQ(want.size(), shape.n);
      for (const uint32_t workers : {1u, 2u, 4u}) {
        for (const char* threads : {"1", "8"}) {
          ASSERT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
          PageRankOptions pr;
          pr.iterations = kIterations;
          pr.damping = kDamping;
          pr.engine.num_workers = workers;
          EXPECT_EQ(PageRank(g, pr).ranks, want)
              << shape.name << (g.IsCompressed() ? " packed" : " raw")
              << " workers=" << workers << " threads=" << threads;
        }
      }
    }
  }
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
}

// --- WCC ---------------------------------------------------------------------

TEST(WccTest, MatchesSerialReference) {
  Graph g = ErdosRenyi(300, 0.005, 77);  // sparse: several components
  WccResult r = Wcc(g);
  std::vector<VertexId> ref = SerialComponents(g);
  // Same partition of vertices into groups.
  std::set<VertexId> distinct(r.component.begin(), r.component.end());
  EXPECT_EQ(distinct.size(), r.num_components);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    g.ForEachOutNeighbor(u, [&](VertexId v) {
      EXPECT_EQ(r.component[u], r.component[v]);
    });
  }
  std::set<VertexId> ref_distinct(ref.begin(), ref.end());
  EXPECT_EQ(r.num_components, ref_distinct.size());
}

TEST(WccTest, PathTakesLinearSupersteps) {
  // The degenerate case the survey's complexity discussion warns about:
  // hash-min on a path needs O(|V|) supersteps, blowing the
  // O(log |V|)-iterations envelope where TLAV is efficient.
  Graph g = Path(128);
  WccResult r = Wcc(g);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_GT(r.stats.supersteps, 100u);
}

TEST(WccTest, LowDiameterGraphTakesFewSupersteps) {
  Graph g = Rmat(10, 16, 5);
  WccResult r = Wcc(g);
  EXPECT_LT(r.stats.supersteps, 12u);
}

TEST(WccTest, DirectedGraphYieldsWeakComponents) {
  // Regression: a directed path pointing toward lower ids. Propagating
  // along out-edges only moves labels the wrong way and leaves every
  // vertex its own component; *weak* connectivity must ignore direction
  // and find one.
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 32; ++v) edges.push_back({v, v - 1});
  GraphOptions options;
  options.directed = true;
  Graph g = std::move(Graph::FromEdges(32, std::move(edges), options).value());
  WccResult r = Wcc(g);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.component, std::vector<VertexId>(32, 0));

  // Forced push agrees with the flood fill over the symmetrized view.
  WccOptions push_only;
  push_only.direction.mode = DirectionMode::kPushOnly;
  WccResult push = Wcc(g, push_only);
  EXPECT_EQ(push.num_components, 1u);
  EXPECT_EQ(push.component, SerialComponents(g.UndirectedView()));
}

// --- SV pointer jumping & block-centric WCC ------------------------------

TEST(SvWccTest, MatchesHashMinOnVariedGraphs) {
  for (uint64_t seed : {3ull, 7ull}) {
    Graph g = ErdosRenyi(400, 0.004, seed);  // fragmented
    SvWccResult sv = SvWcc(g);
    WccResult ref = Wcc(g);
    EXPECT_EQ(sv.num_components, ref.num_components);
    // Same partition into components.
    for (const Edge& e : g.CollectEdges()) {
      EXPECT_EQ(sv.component[e.src], sv.component[e.dst]);
    }
  }
}

TEST(SvWccTest, LogarithmicRoundsOnPath) {
  // The whole point: pointer jumping needs O(log |V|) rounds where
  // hash-min needs Theta(|V|) supersteps.
  Graph g = Path(4096);
  SvWccResult sv = SvWcc(g);
  EXPECT_EQ(sv.num_components, 1u);
  EXPECT_LT(sv.rounds, 64u);
  WccResult hashmin = Wcc(g);
  EXPECT_GT(hashmin.stats.supersteps, 4000u);
}

TEST(SvWccTest, IsolatedVerticesAreOwnComponents) {
  Graph g = std::move(Graph::FromEdges(5, {{0, 1}}, {}).value());
  SvWccResult sv = SvWcc(g);
  EXPECT_EQ(sv.num_components, 4u);
}

TEST(BlockWccTest, MatchesHashMinAndShrinksSupersteps) {
  Graph g = Path(1024);
  WccResult ref = Wcc(g);
  BlockWccResult blk = BlockWcc(g, 32);
  EXPECT_EQ(blk.num_components, ref.num_components);
  EXPECT_EQ(blk.component, ref.component);
  // Hash-min needed ~|V| supersteps; the 32-block quotient needs ~32.
  EXPECT_LT(blk.block_supersteps, 70u);
  EXPECT_GT(ref.stats.supersteps, 1000u);
}

TEST(BlockWccTest, MultiComponentGraph) {
  // Two disjoint cycles plus isolated vertices.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 9; ++v) edges.push_back({v, static_cast<VertexId>((v + 1) % 10 == 0 ? v - 8 : v + 1)});
  Graph g = ErdosRenyi(300, 0.003, 5);
  BlockWccResult blk = BlockWcc(g, 16);
  WccResult ref = Wcc(g);
  EXPECT_EQ(blk.num_components, ref.num_components);
  EXPECT_EQ(blk.component, ref.component);
}

TEST(BlockWccTest, SingleBlockDegeneratesToSerial) {
  Graph g = Rmat(8, 4, 3);
  BlockWccResult blk = BlockWcc(g, 1);
  WccResult ref = Wcc(g);
  EXPECT_EQ(blk.num_components, ref.num_components);
}

TEST(BlockWccDeathTest, MirroredQuotientRunIsRejected) {
  // The quotient WCC runs on the frontier substrate, which rejects
  // mirroring; BlockWcc must not index into the empty rejected result.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g = Path(64);
  TlavConfig mirrored;
  mirrored.mirror_degree_threshold = 8;
  EXPECT_DEATH(BlockWcc(g, 4, mirrored), "mirror_degree_threshold");
}

// --- BFS / SSSP ---------------------------------------------------------------

TEST(TraversalTest, BfsMatchesSerialReference) {
  Graph g = Rmat(9, 4, 13);
  BfsResult r = TlavBfs(g, 0);
  std::vector<uint32_t> ref = SerialBfs(g, 0);
  EXPECT_EQ(r.distance, ref);
}

TEST(TraversalTest, BfsOnGridDistances) {
  Graph g = Grid(5, 5);
  BfsResult r = TlavBfs(g, 0);
  EXPECT_EQ(r.distance[24], 8u);  // Manhattan distance corner-to-corner
  EXPECT_EQ(r.distance[4], 4u);
}

TEST(TraversalTest, SsspMatchesDijkstra) {
  Graph g = ErdosRenyi(200, 0.03, 99);
  SsspResult r = TlavSssp(g, 0);
  std::vector<uint64_t> ref = SerialDijkstra(g, 0);
  EXPECT_EQ(r.distance, ref);
}

TEST(TraversalTest, OutOfRangeSourceIsAnError) {
  // Regression: an out-of-range source used to return all-kUnreachable
  // with an OK-looking result, indistinguishable from a real run on a
  // graph with an isolated source.
  Graph g = Path(8);
  BfsResult bfs = TlavBfs(g, 8);
  EXPECT_FALSE(bfs.status.ok());
  EXPECT_TRUE(bfs.distance.empty());
  SsspResult sssp = TlavSssp(g, 100);
  EXPECT_FALSE(sssp.status.ok());
  EXPECT_TRUE(sssp.distance.empty());
  // Forced push validates too, and an in-range source carries an OK
  // status and the serial distances.
  TraversalOptions push_only;
  push_only.direction.mode = DirectionMode::kPushOnly;
  EXPECT_FALSE(TlavBfs(g, 8, push_only).status.ok());
  BfsResult ok = TlavBfs(g, 7, push_only);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.distance, SerialBfs(g, 7));
}

TEST(TraversalTest, MirroredTraversalIsRejected) {
  // Pregel+ mirroring is a TlavEngine feature; BFS/SSSP/WCC run on the
  // frontier substrate, so a mirrored request is an error rather than a
  // run that silently drops the setting.
  Graph g = Star(50);
  TlavConfig mirrored;
  mirrored.mirror_degree_threshold = 8;
  BfsResult bfs = TlavBfs(g, 0, mirrored);
  EXPECT_EQ(bfs.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bfs.status.message().find("mirror_degree_threshold"),
            std::string::npos);
  EXPECT_TRUE(bfs.distance.empty());
  SsspResult sssp = TlavSssp(g, 0, mirrored);
  EXPECT_FALSE(sssp.status.ok());
  EXPECT_TRUE(sssp.distance.empty());
  WccResult wcc = Wcc(g, mirrored);
  EXPECT_FALSE(wcc.status.ok());
  EXPECT_TRUE(wcc.component.empty());
  EXPECT_TRUE(Wcc(g).status.ok());
}

TEST(TraversalTest, DirectionOptimizedBfsMatchesPushOnly) {
  // The tentpole invariant: identical distances whichever way each
  // level walked the edges, at several worker counts.
  for (uint32_t workers : {1u, 2u, 4u}) {
    Graph g = BarabasiAlbert(400, 4, 7);  // dense-frontier middle levels
    TlavConfig config;
    config.num_workers = workers;
    TraversalOptions push_only;
    push_only.engine = config;
    push_only.direction.mode = DirectionMode::kPushOnly;
    TraversalOptions opt;
    opt.engine = config;
    opt.direction.mode = DirectionMode::kAuto;
    BfsResult a = TlavBfs(g, 0, push_only);
    BfsResult b = TlavBfs(g, 0, opt);
    EXPECT_EQ(a.distance, b.distance) << "workers=" << workers;
    EXPECT_GT(b.stats.pull_supersteps, 0u);
    EXPECT_EQ(a.stats.pull_supersteps, 0u);
  }
}

TEST(TraversalTest, SyntheticWeightsSymmetricAndBounded) {
  for (VertexId u = 0; u < 50; ++u) {
    for (VertexId v = u + 1; v < 50; ++v) {
      const uint32_t w = SyntheticEdgeWeight(u, v);
      EXPECT_EQ(w, SyntheticEdgeWeight(v, u));
      EXPECT_GE(w, 1u);
      EXPECT_LE(w, 16u);
    }
  }
}

// --- Triangle counting --------------------------------------------------------

TEST(TriangleTlavTest, CountsMatchSerialOnVariedGraphs) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph g = ErdosRenyi(120, 0.08, seed);
    TlavTriangleResult r = TlavTriangleCount(g);
    EXPECT_EQ(r.triangles, SerialTriangles(g)) << "seed " << seed;
  }
}

TEST(TriangleTlavTest, CompleteGraphCount) {
  Graph g = Complete(10);
  EXPECT_EQ(TlavTriangleCount(g).triangles, 120u);  // C(10,3)
}

TEST(TriangleTlavTest, TriangleFreeGraphIsZero) {
  EXPECT_EQ(TlavTriangleCount(Grid(6, 6)).triangles, 0u);
  EXPECT_EQ(TlavTriangleCount(Star(30)).triangles, 0u);
}

TEST(TriangleTlavTest, MessageVolumeIsWedgeBound) {
  // The misfit the survey highlights: message count equals the number of
  // oriented wedges, which dwarfs the triangle count on dense graphs.
  Graph g = Complete(16);
  TlavTriangleResult r = TlavTriangleCount(g);
  EXPECT_EQ(r.triangles, 560u);
  EXPECT_EQ(r.stats.total_messages, 560u);  // one query per oriented wedge
  Graph sparse = ErdosRenyi(200, 0.05, 4);
  TlavTriangleResult rs = TlavTriangleCount(sparse);
  EXPECT_GT(rs.stats.total_messages, rs.triangles);
}

// --- Quegel-style batched online queries -----------------------------------------

TEST(BatchedQueriesTest, MatchesPerQueryBfs) {
  // Sources and distances are in original-id space on any layout.
  const Graph raw = Rmat(8, 5, 13);
  GraphOptions degree_desc;
  degree_desc.reorder = ReorderMode::kDegreeDesc;
  const Graph reordered = std::move(
      Graph::FromEdges(raw.NumVertices(), raw.CollectEdges(), degree_desc)
          .value());
  std::vector<VertexId> sources = {0, 7, 31, 100};
  for (const Graph* g : {&raw, &reordered}) {
    BatchedBfsResult batched = BatchedBfsQueries(*g, sources);
    BatchedBfsResult sequential = SequentialBfsQueries(*g, sources);
    ASSERT_EQ(batched.distances.size(), 4u);
    for (uint32_t q = 0; q < 4; ++q) {
      EXPECT_EQ(batched.distances[q], SerialBfs(raw, sources[q]))
          << "query " << q << " reordered=" << g->IsReordered();
      EXPECT_EQ(sequential.distances[q], batched.distances[q]);
    }
  }
}

TEST(BatchedQueriesTest, SuperstepSharingAmortizesBarriers) {
  // The Quegel argument: Q queries in one schedule need max(ecc_q)
  // supersteps instead of sum(ecc_q) — barriers shrink ~Q-fold.
  Graph g = Rmat(9, 6, 5);
  std::vector<VertexId> sources;
  for (VertexId s = 0; s < 16; ++s) sources.push_back(s * 31);
  // No fault plan: checkpoint traffic would scale with the superstep
  // count and blur the wire comparison.
  TlavConfig config;
  config.faults = FaultPlan{};
  BatchedBfsResult batched = BatchedBfsQueries(g, sources, config);
  BatchedBfsResult sequential = SequentialBfsQueries(g, sources, config);
  EXPECT_LT(batched.stats.supersteps, sequential.stats.supersteps / 8);
  // The baseline is the same program with a batch of one, so sharing
  // supersteps is the only thing that changes: every query sends the
  // same messages either way, on and off the wire.
  EXPECT_EQ(batched.stats.total_messages, sequential.stats.total_messages);
  EXPECT_EQ(batched.stats.cross_worker_messages,
            sequential.stats.cross_worker_messages);
}

TEST(BatchedQueriesTest, DisconnectedSourceLeavesUnreachable) {
  Graph g = std::move(Graph::FromEdges(4, {{0, 1}}, {}).value());
  BatchedBfsResult r = BatchedBfsQueries(g, {0, 2});
  EXPECT_EQ(r.distances[0][1], 1u);
  EXPECT_EQ(r.distances[0][2], kUnreachable);
  EXPECT_EQ(r.distances[1][2], 0u);
  EXPECT_EQ(r.distances[1][0], kUnreachable);
}

}  // namespace
}  // namespace gal
