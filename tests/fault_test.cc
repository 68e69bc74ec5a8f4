// The elastic fault-tolerant cluster runtime (cluster/fault.h,
// cluster/checkpoint.h): deterministic fault schedules, checkpoint
// ledger/clock accounting, the recovery session's failure and straggler
// machinery, and the cross-engine contract — an injected mid-run worker
// failure (or straggler-triggered migration) leaves TLAV PageRank, the
// frontier substrate's BFS/SSSP/WCC (push-only and direction-optimizing),
// dist-GCN training, and TLAG triangle counts bit-identical to their
// failure-free runs at any worker x host-thread combination. The parity,
// rebalance and round-barrier suites are also run under ThreadSanitizer
// by scripts/check.sh.

#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "cluster/round_barrier.h"
#include "dist/dist_gcn.h"
#include "gnn/dataset.h"
#include "graph/generators.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlanTest, BuildersAndQueries) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.active());

  plan.CheckpointEvery(5).FailWorkerAt(1, 7).SlowWorker(0, 2.0, 3, 9);
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.checkpoint_every(), 5u);
  ASSERT_EQ(plan.failures().size(), 1u);
  EXPECT_EQ(plan.failures()[0].worker, 1u);
  EXPECT_EQ(plan.failures()[0].round, 7u);
  ASSERT_EQ(plan.slowdowns().size(), 1u);
  EXPECT_FALSE(plan.rebalance().enabled);

  RebalanceConfig rb;
  rb.threshold = 3.0;
  plan.Rebalance(rb);  // builder forces enabled
  EXPECT_TRUE(plan.rebalance().enabled);
  EXPECT_DOUBLE_EQ(plan.rebalance().threshold, 3.0);
}

TEST(FaultPlanTest, SlowdownWindowsCompose) {
  FaultPlan plan;
  plan.SlowWorker(2, 3.0, 4, 8).SlowWorker(2, 2.0, 6, 10).SlowWorker(1, 5.0);
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(2, 3), 1.0);   // before both
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(2, 4), 3.0);   // first only
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(2, 7), 6.0);   // overlap multiplies
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(2, 8), 2.0);   // second only
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(2, 10), 1.0);  // after both
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(1, 0), 5.0);   // open-ended window
  EXPECT_DOUBLE_EQ(plan.SlowdownFactor(0, 5), 1.0);   // unlisted worker
}

TEST(FaultPlanTest, RandomIsDeterministicAndInBounds) {
  FaultPlan::RandomOptions options;
  options.seed = 42;
  options.num_workers = 3;
  options.horizon_rounds = 12;
  options.failures = 2;
  options.stragglers = 2;
  const FaultPlan a = FaultPlan::Random(options);
  const FaultPlan b = FaultPlan::Random(options);

  ASSERT_EQ(a.failures().size(), 2u);
  ASSERT_EQ(a.slowdowns().size(), 2u);
  EXPECT_EQ(a.checkpoint_every(), options.checkpoint_every);
  for (size_t i = 0; i < a.failures().size(); ++i) {
    EXPECT_EQ(a.failures()[i].worker, b.failures()[i].worker);
    EXPECT_EQ(a.failures()[i].round, b.failures()[i].round);
    EXPECT_LT(a.failures()[i].worker, options.num_workers);
    EXPECT_GE(a.failures()[i].round, 1u);
    EXPECT_LT(a.failures()[i].round, options.horizon_rounds);
  }
  for (size_t i = 0; i < a.slowdowns().size(); ++i) {
    EXPECT_EQ(a.slowdowns()[i].worker, b.slowdowns()[i].worker);
    EXPECT_DOUBLE_EQ(a.slowdowns()[i].factor, b.slowdowns()[i].factor);
    EXPECT_EQ(a.slowdowns()[i].from_round, b.slowdowns()[i].from_round);
    EXPECT_GE(a.slowdowns()[i].factor, options.min_slowdown);
    EXPECT_LE(a.slowdowns()[i].factor, options.max_slowdown);
  }
}

// --- env resolution ---------------------------------------------------------

class FaultEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("GAL_CLUSTER_FAULT_CHECKPOINT");
    unsetenv("GAL_CLUSTER_FAULT_FAIL");
    unsetenv("GAL_CLUSTER_FAULT_SLOW");
    unsetenv("GAL_CLUSTER_FAULT_SEED");
    unsetenv("GAL_CLUSTER_FAULT_REBALANCE");
    unsetenv("GAL_CLUSTER_WORKERS");
  }
};

TEST_F(FaultEnvTest, FromEnvParsesFullSpec) {
  ASSERT_EQ(setenv("GAL_CLUSTER_FAULT_CHECKPOINT", "5", 1), 0);
  ASSERT_EQ(setenv("GAL_CLUSTER_FAULT_FAIL", "1@7,0@9", 1), 0);
  ASSERT_EQ(setenv("GAL_CLUSTER_FAULT_SLOW", "2:3.5@4-9,0:2", 1), 0);
  ASSERT_EQ(setenv("GAL_CLUSTER_FAULT_REBALANCE", "1", 1), 0);
  Result<FaultPlan> plan = FaultPlan::FromEnv();
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->checkpoint_every(), 5u);
  ASSERT_EQ(plan->failures().size(), 2u);
  EXPECT_EQ(plan->failures()[1].worker, 0u);
  EXPECT_EQ(plan->failures()[1].round, 9u);
  ASSERT_EQ(plan->slowdowns().size(), 2u);
  EXPECT_DOUBLE_EQ(plan->slowdowns()[0].factor, 3.5);
  EXPECT_EQ(plan->slowdowns()[0].from_round, 4u);
  EXPECT_EQ(plan->slowdowns()[0].until_round, 9u);
  EXPECT_EQ(plan->slowdowns()[1].until_round, UINT32_MAX);
  EXPECT_TRUE(plan->rebalance().enabled);
}

TEST_F(FaultEnvTest, FromEnvRejectsMalformedValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"GAL_CLUSTER_FAULT_CHECKPOINT", "5x"},
      {"GAL_CLUSTER_FAULT_FAIL", "1@"},
      {"GAL_CLUSTER_FAULT_FAIL", "nope"},
      {"GAL_CLUSTER_FAULT_SLOW", "0:0.5"},   // factor < 1
      {"GAL_CLUSTER_FAULT_SLOW", "0:2@9-4"}, // empty window
      {"GAL_CLUSTER_FAULT_SEED", "abc"},
      {"GAL_CLUSTER_FAULT_REBALANCE", "yes"},
      // Numbers parse whole: no padding, sign, hex or non-finite factor
      // (a nan factor would drop its worker from every modeled round).
      {"GAL_CLUSTER_FAULT_SLOW", "0:nan"},
      {"GAL_CLUSTER_FAULT_SLOW", "0:inf"},
      {"GAL_CLUSTER_FAULT_SLOW", "0:0x10"},
      {"GAL_CLUSTER_FAULT_SLOW", " 1:2"},
      {"GAL_CLUSTER_FAULT_CHECKPOINT", " 5"},
      {"GAL_CLUSTER_FAULT_CHECKPOINT", "+5"},
      {"GAL_CLUSTER_FAULT_CHECKPOINT", "-0"},
      {"GAL_CLUSTER_FAULT_FAIL", "+1@ 3"},
      {"GAL_CLUSTER_FAULT_SEED", " 7"},
  };
  for (const auto& [var, value] : cases) {
    ASSERT_EQ(setenv(var, value, 1), 0);
    Result<FaultPlan> plan = FaultPlan::FromEnv();
    ASSERT_FALSE(plan.ok()) << var << "=" << value;
    EXPECT_NE(plan.status().message().find(var), std::string::npos);
    EXPECT_NE(plan.status().message().find(value), std::string::npos);
    // The warn-once path degrades to an empty plan instead of failing.
    EXPECT_TRUE(FaultPlan::FromEnvOrWarn().empty());
    ASSERT_EQ(unsetenv(var), 0);
  }
}

TEST_F(FaultEnvTest, SeedFillsInUnspecifiedEvents) {
  ASSERT_EQ(setenv("GAL_CLUSTER_FAULT_SEED", "7", 1), 0);
  Result<FaultPlan> seeded = FaultPlan::FromEnv();
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded->failures().size(), 1u);
  EXPECT_EQ(seeded->slowdowns().size(), 1u);
  EXPECT_GT(seeded->checkpoint_every(), 0u);

  // Explicit FAIL wins: the seed only draws the straggler.
  ASSERT_EQ(setenv("GAL_CLUSTER_FAULT_FAIL", "0@3", 1), 0);
  Result<FaultPlan> mixed = FaultPlan::FromEnv();
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->failures().size(), 1u);
  EXPECT_EQ(mixed->failures()[0].round, 3u);
  EXPECT_EQ(mixed->slowdowns().size(), 1u);
}

// --- CheckpointStore --------------------------------------------------------

TEST(CheckpointStoreTest, RingChargeIsExactAndOnTheClock) {
  ClusterRuntime cluster(ClusterOptions{4, {}});
  CheckpointStore store(&cluster);
  const size_t rounds_before = cluster.clock().rounds();

  store.Save(3, std::vector<uint8_t>(103, 0xAB));  // 103 = 4*25 + 3 remainder
  TrafficSnapshot snap = cluster.ledger().Snapshot();
  EXPECT_EQ(snap.cross_bytes, 103u);  // every ring hop is cross at W=4
  EXPECT_EQ(snap.local_bytes, 0u);
  EXPECT_EQ(cluster.clock().rounds(), rounds_before + 1);
  EXPECT_EQ(store.checkpoints_taken(), 1u);
  EXPECT_EQ(store.checkpoint_bytes(), 103u);
  EXPECT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.round(), 3u);

  const std::vector<uint8_t>& blob = store.Restore();
  EXPECT_EQ(blob.size(), 103u);
  snap = cluster.ledger().Snapshot();
  EXPECT_EQ(snap.cross_bytes, 206u);  // restore reverses the ring, same bytes
  EXPECT_EQ(cluster.clock().rounds(), rounds_before + 2);
  EXPECT_EQ(store.restored_bytes(), 103u);
}

TEST(CheckpointStoreTest, SingleWorkerCheckpointsAreLocal) {
  ClusterRuntime cluster(ClusterOptions{1, {}});
  CheckpointStore store(&cluster);
  store.Save(0, std::vector<uint8_t>(64, 1));
  store.Restore();
  TrafficSnapshot snap = cluster.ledger().Snapshot();
  EXPECT_EQ(snap.cross_bytes, 0u);  // w -> w: off the wire
  EXPECT_EQ(snap.local_bytes, 128u);
  // The save and restore rounds stay on the clock with no wire time.
  const std::vector<ClusterRound> rounds = cluster.clock().RoundsSince(0);
  ASSERT_EQ(rounds.size(), 2u);
  for (const ClusterRound& r : rounds) {
    EXPECT_EQ(r.comm_bytes, 0u);
    EXPECT_EQ(r.comm_messages, 0u);
    EXPECT_EQ(r.comm_seconds, 0.0);
  }
}

// --- RecoverySession --------------------------------------------------------

TEST(RecoverySessionTest, CheckpointCadenceAndScaling) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RecoverySession session(
      &cluster, FaultPlan{}.CheckpointEvery(3).SlowWorker(1, 4.0, 2, 5));
  EXPECT_FALSE(session.WantsInitialCheckpoint());  // no failures scheduled
  EXPECT_FALSE(session.ShouldCheckpoint(0));
  EXPECT_FALSE(session.ShouldCheckpoint(1));
  EXPECT_TRUE(session.ShouldCheckpoint(2));
  EXPECT_TRUE(session.ShouldCheckpoint(5));
  EXPECT_FALSE(session.ShouldCheckpoint(6));

  std::vector<double> seconds = {1.0, 1.0};
  session.ScaleCompute(3, std::span<double>(seconds));
  EXPECT_DOUBLE_EQ(seconds[0], 1.0);
  EXPECT_DOUBLE_EQ(seconds[1], 4.0);
  session.ScaleCompute(5, std::span<double>(seconds));  // window [2,5) closed
  EXPECT_DOUBLE_EQ(seconds[1], 4.0);
}

TEST(RecoverySessionTest, FailureRollsBackAndIsConsumedOnce) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RecoverySession session(&cluster,
                          FaultPlan{}.CheckpointEvery(2).FailWorkerAt(0, 3));
  EXPECT_TRUE(session.WantsInitialCheckpoint());
  session.Commit(RecoverySession::kInitialRound, {1, 2, 3});
  EXPECT_FALSE(session.WantsInitialCheckpoint());
  session.Commit(1, {4, 5, 6, 7});

  uint32_t resume = 99;
  EXPECT_EQ(session.OnFailure(2, &resume), nullptr);  // wrong round
  const std::vector<uint8_t>* blob = session.OnFailure(3, &resume);
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->size(), 4u);
  EXPECT_EQ(resume, 2u);  // checkpoint at 1 -> re-execute from 2
  EXPECT_EQ(session.stats().failures_recovered, 1u);
  EXPECT_EQ(session.stats().recomputed_rounds, 2u);  // rounds 2 and 3
  EXPECT_EQ(session.stats().restored_bytes, 4u);
  // Consumed: the replayed round 3 completes cleanly.
  EXPECT_EQ(session.OnFailure(3, &resume), nullptr);
}

TEST(RecoverySessionTest, FailureBeforeFirstCheckpointRestartsFromInitial) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RecoverySession session(&cluster,
                          FaultPlan{}.CheckpointEvery(10).FailWorkerAt(1, 2));
  session.Commit(RecoverySession::kInitialRound, {9});
  uint32_t resume = 99;
  ASSERT_NE(session.OnFailure(2, &resume), nullptr);
  EXPECT_EQ(resume, 0u);
  EXPECT_EQ(session.stats().recomputed_rounds, 3u);  // rounds 0..2
}

TEST(RecoverySessionTest, OutOfRangeFailureIsInert) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RecoverySession session(&cluster, FaultPlan{}.FailWorkerAt(7, 3));
  EXPECT_FALSE(session.WantsInitialCheckpoint());
  uint32_t resume = 0;
  EXPECT_EQ(session.OnFailure(3, &resume), nullptr);
  EXPECT_EQ(session.stats().failures_recovered, 0u);
}

TEST(RecoverySessionTest, StragglerDetectionSustainAndCooldown) {
  ClusterRuntime cluster(ClusterOptions{4, {}});
  // Default rebalance policy: threshold 2, sustain 3, cooldown 4. The
  // load signal is flat; worker 0's 8x slowdown makes it the straggler.
  RecoverySession session(
      &cluster, FaultPlan{}.SlowWorker(0, 8.0).Rebalance(RebalanceConfig{}));
  const std::vector<double> load = {10, 10, 10, 10};
  const std::span<const double> span(load);
  EXPECT_EQ(session.RebalanceCandidate(0, span), RecoverySession::kNoWorker);
  EXPECT_EQ(session.RebalanceCandidate(1, span), RecoverySession::kNoWorker);
  EXPECT_EQ(session.RebalanceCandidate(2, span), 0u);  // 3rd sustained round

  // Books the migration: ledger bytes, stats, and the cooldown window.
  const std::vector<std::pair<uint32_t, uint64_t>> moved = {{1, 300},
                                                            {2, 200}};
  session.CommitMigration(0, std::span<const std::pair<uint32_t, uint64_t>>(
                                 moved),
                          25);
  EXPECT_EQ(session.stats().rebalances, 1u);
  EXPECT_EQ(session.stats().migrated_vertices, 25u);
  EXPECT_EQ(session.stats().migration_bytes, 500u);
  EXPECT_EQ(cluster.ledger().Snapshot().cross_bytes, 500u);

  // Cooldown (rounds 3..6) suppresses detection; then sustain restarts.
  for (uint32_t round = 3; round <= 8; ++round) {
    EXPECT_EQ(session.RebalanceCandidate(round, span),
              RecoverySession::kNoWorker)
        << "round " << round;
  }
  EXPECT_EQ(session.RebalanceCandidate(9, span), 0u);
}

TEST(RecoverySessionTest, MaxMigrationsCapsRebalancing) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RebalanceConfig rb;
  rb.sustain_rounds = 1;
  rb.cooldown_rounds = 0;
  rb.max_migrations = 1;
  RecoverySession session(&cluster,
                          FaultPlan{}.SlowWorker(0, 8.0).Rebalance(rb));
  const std::vector<double> load = {10, 10};
  ASSERT_EQ(session.RebalanceCandidate(0, std::span<const double>(load)), 0u);
  session.CommitMigration(0, {}, 5);
  for (uint32_t round = 1; round < 6; ++round) {
    EXPECT_EQ(session.RebalanceCandidate(round, std::span<const double>(load)),
              RecoverySession::kNoWorker);
  }
}

// --- cross-engine bit-identity under fault schedules ------------------------

// The three schedules every parity sweep runs: nothing, a mid-run
// failure that replays rounds 8-9 from the round-7 checkpoint, and a
// failure on a checkpoint boundary plus a straggler window.
std::vector<FaultPlan> ParitySchedules() {
  std::vector<FaultPlan> schedules;
  schedules.push_back(FaultPlan{});
  schedules.push_back(FaultPlan{}.CheckpointEvery(4).FailWorkerAt(1, 9));
  schedules.push_back(FaultPlan{}
                          .CheckpointEvery(3)
                          .FailWorkerAt(0, 8)
                          .SlowWorker(0, 3.0, 2, 12));
  return schedules;
}

TEST(FaultParityTest, PageRankBitIdenticalAcrossWorkersThreadsAndFaults) {
  Graph g = ErdosRenyi(300, 0.02, 7);
  PageRankOptions baseline_options;
  baseline_options.iterations = 15;
  const PageRankResult baseline = PageRank(g, baseline_options);

  for (const char* threads : {"1", "8"}) {
    ASSERT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
    for (uint32_t workers : {1u, 2u, 4u}) {
      for (const FaultPlan& plan : ParitySchedules()) {
        PageRankOptions options;
        options.iterations = 15;
        options.engine.num_workers = workers;
        options.engine.faults = plan;
        const PageRankResult r = PageRank(g, options);
        EXPECT_EQ(r.ranks, baseline.ranks)
            << "W=" << workers << " threads=" << threads
            << " failures=" << plan.failures().size();
        if (!plan.failures().empty() && workers > 1) {
          EXPECT_EQ(r.stats.failures_recovered, 1u);
          EXPECT_GT(r.stats.checkpoint_bytes, 0u);
          EXPECT_GT(r.stats.restored_bytes, 0u);
        }
      }
    }
  }
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
}

constexpr DirectionMode kParityModes[] = {DirectionMode::kPushOnly,
                                          DirectionMode::kAuto};

/// Checks one traversal run against its clean baseline: identical
/// results and the clean run's step schedule (a replay re-executes the
/// same direction choices), with the scheduled failure really recovered.
template <typename Result, typename Values>
void ExpectRecoveredRun(const Result& r, const Result& clean,
                        Values Result::*values, const FaultPlan& plan,
                        uint32_t workers, const std::string& what) {
  EXPECT_EQ(r.*values, clean.*values) << what;
  EXPECT_EQ(r.stats.supersteps, clean.stats.supersteps) << what;
  EXPECT_EQ(r.stats.pull_supersteps, clean.stats.pull_supersteps) << what;
  EXPECT_EQ(r.stats.direction_switches, clean.stats.direction_switches)
      << what;
  if (!plan.failures().empty() && workers > 1) {
    EXPECT_EQ(r.stats.failures_recovered, 1u) << what;
    EXPECT_GT(r.stats.restored_bytes, 0u) << what;
  }
}

TEST(FaultParityTest, WccBitIdenticalAcrossWorkersThreadsAndFaults) {
  // A fragmented random graph plus a 30-vertex path component, so label
  // propagation outlasts every parity schedule's failure round.
  std::vector<Edge> edges = ErdosRenyi(400, 0.01, 3).CollectEdges();
  for (VertexId v = 401; v < 430; ++v) edges.push_back({v - 1, v});
  const Graph g = std::move(Graph::FromEdges(430, std::move(edges), {}).value());
  for (const char* threads : {"1", "8"}) {
    ASSERT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
    for (DirectionMode mode : kParityModes) {
      WccOptions clean;
      clean.engine.faults = FaultPlan{};
      clean.direction.mode = mode;
      const WccResult baseline = Wcc(g, clean);
      for (uint32_t workers : {1u, 2u, 4u}) {
        for (const FaultPlan& plan : ParitySchedules()) {
          WccOptions options = clean;
          options.engine.num_workers = workers;
          options.engine.faults = plan;
          const WccResult r = Wcc(g, options);
          ExpectRecoveredRun(r, baseline, &WccResult::component, plan,
                             workers,
                             "W=" + std::to_string(workers) + " threads=" +
                                 threads + " mode=" +
                                 std::to_string(static_cast<int>(mode)));
          EXPECT_EQ(r.num_components, baseline.num_components);
        }
      }
    }
  }
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
}

/// A dense power-law core behind a 24-hop tail: traversals from the
/// tail's end run long enough for every parity schedule's failure to
/// fire, and the core's dense middle levels make auto mode pull.
constexpr VertexId kTailEnd = 323;
Graph Lollipop() {
  std::vector<Edge> edges = BarabasiAlbert(300, 4, 7).CollectEdges();
  for (VertexId v = 300; v <= kTailEnd; ++v) {
    edges.push_back({v == 300 ? 0 : v - 1, v});
  }
  return std::move(Graph::FromEdges(kTailEnd + 1, std::move(edges), {}).value());
}

TEST(FaultParityTest, BfsAndSsspBitIdenticalAcrossWorkersThreadsAndFaults) {
  const Graph g = Lollipop();
  for (const char* threads : {"1", "8"}) {
    ASSERT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
    for (DirectionMode mode : kParityModes) {
      TraversalOptions clean;
      clean.engine.faults = FaultPlan{};
      clean.direction.mode = mode;
      const BfsResult bfs = TlavBfs(g, kTailEnd, clean);
      const SsspResult sssp = TlavSssp(g, kTailEnd, clean);
      ASSERT_TRUE(bfs.status.ok());
      if (mode == DirectionMode::kAuto) {
        ASSERT_GT(bfs.stats.pull_supersteps, 0u);  // recovery across pulls
      }
      for (uint32_t workers : {1u, 2u, 4u}) {
        for (const FaultPlan& plan : ParitySchedules()) {
          TraversalOptions options = clean;
          options.engine.num_workers = workers;
          options.engine.faults = plan;
          const std::string what =
              "W=" + std::to_string(workers) + " threads=" + threads +
              " mode=" + std::to_string(static_cast<int>(mode));
          ExpectRecoveredRun(TlavBfs(g, kTailEnd, options), bfs,
                             &BfsResult::distance, plan, workers,
                             "BFS " + what);
          ExpectRecoveredRun(TlavSssp(g, kTailEnd, options), sssp,
                             &SsspResult::distance, plan, workers,
                             "SSSP " + what);
        }
      }
    }
  }
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
}

TEST(FaultParityTest, DistGcnRecoveryIsBitIdentical) {
  PlantedDatasetOptions data;
  data.num_vertices = 300;
  data.num_classes = 3;
  NodeClassificationDataset ds = MakePlantedDataset(data);

  // BSP on a lossless wire is placement-independent, so every W's clean
  // curve is W=1's too.
  DistGcnReport one_worker;
  for (uint32_t workers : {1u, 2u, 4u}) {
    DistGcnConfig clean;
    clean.num_workers = workers;
    clean.epochs = 8;
    clean.faults = FaultPlan{};
    const DistGcnReport clean_report = TrainDistGcn(ds, clean);
    if (workers == 1) one_worker = clean_report;
    EXPECT_EQ(clean_report.epoch_loss, one_worker.epoch_loss)
        << "W=" << workers;
    EXPECT_EQ(clean_report.epoch_test_accuracy,
              one_worker.epoch_test_accuracy);
    EXPECT_EQ(clean_report.final_test_accuracy,
              one_worker.final_test_accuracy);

    DistGcnConfig faulty = clean;
    faulty.faults = FaultPlan{}.CheckpointEvery(3).FailWorkerAt(0, 4);
    const DistGcnReport r = TrainDistGcn(ds, faulty);

    EXPECT_EQ(r.epoch_loss, clean_report.epoch_loss) << "W=" << workers;
    EXPECT_EQ(r.epoch_test_accuracy, clean_report.epoch_test_accuracy);
    EXPECT_EQ(r.final_test_accuracy, clean_report.final_test_accuracy);
    EXPECT_EQ(r.failures_recovered, 1u);
    EXPECT_EQ(r.recomputed_epochs, 2u);  // checkpoint at 2, failed at 4
    EXPECT_GT(r.checkpoints_taken, 0u);
    EXPECT_GT(r.checkpoint_bytes, 0u);
    EXPECT_GT(r.restored_bytes, 0u);
  }
}

TEST(FaultParityTest, DistGcnRecoveryUnderStalenessAndEc) {
  // The checkpoint blob carries the stale channels and EC residuals, so
  // recovery is bit-identical even when the wire is lossy and stale.
  PlantedDatasetOptions data;
  data.num_vertices = 250;
  data.num_classes = 3;
  NodeClassificationDataset ds = MakePlantedDataset(data);

  DistGcnConfig clean;
  clean.num_workers = 2;
  clean.epochs = 8;
  clean.sync = SyncMode::kBoundedStaleness;
  clean.staleness_bound = 3;
  clean.quantization = Quantization::kInt8;
  clean.error_compensation = true;
  clean.faults = FaultPlan{};
  const DistGcnReport clean_report = TrainDistGcn(ds, clean);

  DistGcnConfig faulty = clean;
  faulty.faults = FaultPlan{}.CheckpointEvery(2).FailWorkerAt(1, 4);
  const DistGcnReport r = TrainDistGcn(ds, faulty);
  EXPECT_EQ(r.epoch_loss, clean_report.epoch_loss);
  EXPECT_EQ(r.final_test_accuracy, clean_report.final_test_accuracy);
  EXPECT_EQ(r.failures_recovered, 1u);
}

TEST(FaultParityTest, TriangleCountBitIdenticalUnderFaults) {
  Graph g = Rmat(10, 8, 5);
  const TriangleCountResult serial = SerialTriangleCount(g);

  for (uint32_t workers : {2u, 4u}) {
    ClusterRuntime cluster(ClusterOptions{workers, {}});
    TaskEngineConfig config;
    config.cluster = &cluster;
    config.faults =
        FaultPlan{}.CheckpointEvery(4).FailWorkerAt(0, 9).SlowWorker(1, 2.0);
    const TriangleCountResult r = TaskTriangleCount(g, config);
    EXPECT_EQ(r.triangles, serial.triangles) << "W=" << workers;
    EXPECT_EQ(r.intersection_ops, serial.intersection_ops);
    EXPECT_EQ(r.failures_recovered, 1u);
    EXPECT_EQ(r.recomputed_rounds, 2u);  // checkpoint at 7, failed at 9
    EXPECT_GT(r.checkpoints_taken, 0u);
    EXPECT_GT(r.checkpoint_bytes, 0u);
  }
}

TEST(FaultParityTest, TraversalReplayRepeatsTheDirectionSchedule) {
  // A failure at every round of auto-mode BFS and WCC, replaying either
  // from the initial snapshot (no interval checkpoints) or from the
  // last every-3 checkpoint: replays cross push<->pull switches, so the
  // snapshot must carry the direction controller and BFS's
  // unexplored-edge count for the schedule to repeat exactly.
  const Graph g = Lollipop();
  TraversalOptions bfs_clean;
  bfs_clean.engine.num_workers = 2;
  bfs_clean.engine.faults = FaultPlan{};
  bfs_clean.direction.mode = DirectionMode::kAuto;
  const BfsResult bfs = TlavBfs(g, kTailEnd, bfs_clean);
  WccOptions wcc_clean;
  wcc_clean.engine = bfs_clean.engine;
  wcc_clean.direction = bfs_clean.direction;
  const WccResult wcc = Wcc(g, wcc_clean);
  ASSERT_GT(bfs.stats.direction_switches, 0u);
  ASSERT_GT(wcc.stats.direction_switches, 0u);
  for (uint32_t every : {0u, 3u}) {
    for (uint32_t round = 0; round < bfs.stats.supersteps; ++round) {
      TraversalOptions options = bfs_clean;
      options.engine.faults =
          FaultPlan{}.CheckpointEvery(every).FailWorkerAt(0, round);
      ExpectRecoveredRun(TlavBfs(g, kTailEnd, options), bfs,
                         &BfsResult::distance, options.engine.faults, 2,
                         "BFS failure at " + std::to_string(round));
    }
    for (uint32_t round = 0; round < wcc.stats.supersteps; ++round) {
      WccOptions options = wcc_clean;
      options.engine.faults =
          FaultPlan{}.CheckpointEvery(every).FailWorkerAt(0, round);
      ExpectRecoveredRun(Wcc(g, options), wcc, &WccResult::component,
                         options.engine.faults, 2,
                         "WCC failure at " + std::to_string(round));
    }
  }
}

TEST(FaultParityTest, CheckpointBytesAreExactOnTheLedger) {
  // Failure at a checkpoint boundary recomputes nothing, so the faulty
  // run's extra cross-worker bytes are exactly the checkpoint ring
  // charges plus the one restore — the ledger-exactness contract — and
  // the recovered run keeps the clean run's step schedule. Both TLAV
  // engines share one barrier, so PageRank (message engine) and WCC
  // (frontier substrate) are held to it alike.
  Graph g = Path(60);
  for (uint32_t workers : {2u, 4u}) {
    PageRankOptions clean;
    clean.engine.faults = FaultPlan{};
    ClusterRuntime clean_cluster(ClusterOptions{workers, {}});
    clean.engine.cluster = &clean_cluster;
    const PageRankResult clean_result = PageRank(g, clean);

    PageRankOptions faulty = clean;
    ClusterRuntime faulty_cluster(ClusterOptions{workers, {}});
    faulty.engine.cluster = &faulty_cluster;
    faulty.engine.faults = FaultPlan{}.CheckpointEvery(5).FailWorkerAt(0, 9);
    const PageRankResult faulty_result = PageRank(g, faulty);

    const std::string what = "PageRank W=" + std::to_string(workers);
    EXPECT_EQ(faulty_result.ranks, clean_result.ranks) << what;
    EXPECT_EQ(faulty_result.stats.failures_recovered, 1u) << what;
    EXPECT_EQ(faulty_result.stats.recomputed_supersteps, 0u) << what;
    EXPECT_EQ(faulty_result.stats.supersteps, clean_result.stats.supersteps)
        << what;
    EXPECT_GT(faulty_result.stats.checkpoint_bytes, 0u) << what;
    EXPECT_EQ(faulty_cluster.ledger().Snapshot().cross_bytes -
                  clean_cluster.ledger().Snapshot().cross_bytes,
              faulty_result.stats.checkpoint_bytes +
                  faulty_result.stats.restored_bytes)
        << what;
  }
  for (DirectionMode mode : kParityModes) {
    WccOptions clean;
    clean.engine.faults = FaultPlan{};
    clean.direction.mode = mode;
    ClusterRuntime clean_cluster(ClusterOptions{2, {}});
    clean.engine.cluster = &clean_cluster;
    const WccResult clean_result = Wcc(g, clean);
    if (mode == DirectionMode::kAuto) {
      ASSERT_GT(clean_result.stats.pull_supersteps, 0u);
    }

    WccOptions faulty = clean;
    ClusterRuntime faulty_cluster(ClusterOptions{2, {}});
    faulty.engine.cluster = &faulty_cluster;
    faulty.engine.faults = FaultPlan{}.CheckpointEvery(5).FailWorkerAt(0, 9);
    const WccResult faulty_result = Wcc(g, faulty);

    const std::string what = "mode=" + std::to_string(static_cast<int>(mode));
    EXPECT_EQ(faulty_result.component, clean_result.component) << what;
    EXPECT_EQ(faulty_result.stats.failures_recovered, 1u) << what;
    EXPECT_EQ(faulty_result.stats.recomputed_supersteps, 0u) << what;
    EXPECT_EQ(faulty_result.stats.supersteps, clean_result.stats.supersteps)
        << what;
    EXPECT_EQ(faulty_result.stats.pull_supersteps,
              clean_result.stats.pull_supersteps)
        << what;
    const uint64_t clean_cross = clean_cluster.ledger().Snapshot().cross_bytes;
    const uint64_t faulty_cross =
        faulty_cluster.ledger().Snapshot().cross_bytes;
    EXPECT_EQ(faulty_cross - clean_cross,
              faulty_result.stats.checkpoint_bytes +
                  faulty_result.stats.restored_bytes)
        << what;
  }
}

// --- the shared round barrier ------------------------------------------------
// Every engine family ends its rounds on one RoundBarrier
// (cluster/round_barrier.h): TLAV supersteps, TLAG triangle chunk-rounds
// and dist-GCN epochs. It prices each clock round from the ledger's
// cross-worker delta since the previous barrier, and every checkpoint,
// restore and migration books its own round. So a job's clock rounds
// add up to exactly its ledger traffic, and their count is its schedule.

TEST(RoundBarrierTest, FailureRewindsTheRoundAndRestoresTheState) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RoundBarrier barrier(&cluster,
                       FaultPlan{}.CheckpointEvery(2).FailWorkerAt(1, 2));
  uint64_t state = 0;
  barrier.Start({[&](BlobWriter& w) { w.Pod(state); },
                 [&](BlobReader& r) { state = r.Pod<uint64_t>(); }, nullptr,
                 nullptr});
  std::vector<uint32_t> executed;
  uint32_t rollbacks = 0;
  while (barrier.round() < 4) {
    executed.push_back(barrier.round());
    ++state;
    if (!barrier.EndRound()) ++rollbacks;
  }
  // Round 2 fails and replays from the round-1 checkpoint.
  EXPECT_EQ(executed, (std::vector<uint32_t>{0, 1, 2, 2, 3}));
  EXPECT_EQ(rollbacks, 1u);
  EXPECT_EQ(state, 4u);
  EXPECT_EQ(barrier.fault_stats().recomputed_rounds, 1u);
  // Five rounds, the initial and two interval checkpoints, one restore.
  EXPECT_EQ(barrier.Rounds().size(), 9u);
}

TEST(RoundBarrierTest, PricingRoundIsNoFaultPoint) {
  ClusterRuntime cluster(ClusterOptions{2, {}});
  RoundBarrier barrier(&cluster,
                       FaultPlan{}.CheckpointEvery(1).FailWorkerAt(0, 0));
  uint64_t state = 7;
  barrier.Start({[&](BlobWriter& w) { w.Pod(state); },
                 [&](BlobReader& r) { state = r.Pod<uint64_t>(); }, nullptr,
                 nullptr});
  ASSERT_EQ(barrier.fault_stats().checkpoints_taken, 1u);  // pre-round 0
  const size_t mark = cluster.clock().rounds();
  state = 8;
  cluster.ledger().Charge(0, 1, 100);
  barrier.AddCompute(1, 2.0);
  barrier.PriceRound();
  // Round 0 is scheduled to checkpoint and to fail; as a pricing-only
  // round it does neither, and its clock round holds its own traffic.
  EXPECT_EQ(barrier.round(), 1u);
  EXPECT_EQ(state, 8u);
  EXPECT_EQ(barrier.fault_stats().checkpoints_taken, 1u);
  EXPECT_EQ(barrier.fault_stats().failures_recovered, 0u);
  const std::vector<ClusterRound> rounds = cluster.clock().RoundsSince(mark);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].compute_seconds, 2.0);
  EXPECT_EQ(rounds[0].comm_bytes, 100u);
  EXPECT_EQ(rounds[0].comm_messages, 1u);
}

TEST(RoundBarrierTest, ClockRoundsMatchTheLedgerAndTheSchedule) {
  const Graph g = Lollipop();
  const uint64_t triangles = SerialTriangleCount(g).triangles;
  PlantedDatasetOptions data;
  data.num_vertices = 200;
  data.num_classes = 3;
  const NodeClassificationDataset ds = MakePlantedDataset(data);
  const std::vector<FaultPlan> plans = {
      FaultPlan{},
      FaultPlan{}.CheckpointEvery(2).FailWorkerAt(0, 2),
      FaultPlan{}
          .CheckpointEvery(2)
          .FailWorkerAt(1, 2)
          .SlowWorker(0, 8.0)
          .Rebalance(RebalanceConfig{})};
  // A job's logical rounds and its fault accounting.
  struct Schedule {
    uint64_t logical_rounds = 0;
    uint64_t recomputed = 0;
    uint64_t checkpoints = 0;
    uint64_t failures = 0;
    uint64_t rebalances = 0;
  };
  auto tlav = [](const TlavStats& s) {
    return Schedule{s.supersteps, s.recomputed_supersteps,
                    s.checkpoints_taken, s.failures_recovered, s.rebalances};
  };
  for (uint32_t workers : {1u, 2u, 4u}) {
    for (size_t p = 0; p < plans.size(); ++p) {
      ClusterRuntime cluster(ClusterOptions{workers, {}});
      TlavConfig config;
      config.cluster = &cluster;
      config.faults = plans[p];
      // Plan 2 fails worker 1, which a one-worker cluster does not have.
      const bool fails = p == 1 || (p == 2 && workers > 1);
      // Runs one job on the shared cluster and checks its clock rounds
      // against its ledger delta and its schedule.
      auto check = [&](const std::string& job, bool rebalances, auto run) {
        const TrafficSnapshot before = cluster.ledger().Snapshot();
        const size_t mark = cluster.clock().rounds();
        const Schedule s = run();
        const TrafficSnapshot after = cluster.ledger().Snapshot();
        const std::vector<ClusterRound> rounds =
            cluster.clock().RoundsSince(mark);
        uint64_t bytes = 0, messages = 0;
        for (const ClusterRound& r : rounds) {
          bytes += r.comm_bytes;
          messages += r.comm_messages;
        }
        const std::string what = job + " W=" + std::to_string(workers) +
                                 " plan=" + std::to_string(p);
        EXPECT_EQ(bytes, after.cross_bytes - before.cross_bytes) << what;
        EXPECT_EQ(messages, after.cross_messages - before.cross_messages)
            << what;
        EXPECT_EQ(rounds.size(), s.logical_rounds + s.recomputed +
                                     s.checkpoints + s.failures +
                                     s.rebalances)
            << what;
        EXPECT_EQ(s.failures, fails ? 1u : 0u) << what;
        if (!rebalances) {
          EXPECT_EQ(s.rebalances, 0u) << what;
        } else if (p == 2 && workers > 1) {
          EXPECT_GE(s.rebalances, 1u) << what;
        }
      };
      check("PageRank", true, [&] {
        PageRankOptions options;
        options.engine = config;
        return tlav(PageRank(g, options).stats);
      });
      check("WCC", true, [&] {
        WccOptions options;
        options.engine = config;
        options.direction.mode = DirectionMode::kAuto;
        return tlav(Wcc(g, options).stats);
      });
      TraversalOptions traversal;
      traversal.engine = config;
      check("BFS", true,
            [&] { return tlav(TlavBfs(g, kTailEnd, traversal).stats); });
      check("SSSP", true,
            [&] { return tlav(TlavSssp(g, kTailEnd, traversal).stats); });
      check("Triangles", false, [&] {
        TaskEngineConfig options;
        options.num_threads = 2;
        options.cluster = &cluster;
        options.faults = plans[p];
        const TriangleCountResult r = TaskTriangleCount(g, options);
        EXPECT_EQ(r.triangles, triangles);
        // A fault plan slices the 324 vertices into 16 chunk-rounds of
        // 21; a clean run is one round.
        return Schedule{plans[p].empty() ? 1u : 16u, r.recomputed_rounds,
                        r.checkpoints_taken, r.failures_recovered, 0};
      });
      check("GCN", true, [&] {
        DistGcnConfig options;
        options.cluster = &cluster;
        options.epochs = 8;
        options.hidden_dim = 8;
        options.faults = plans[p];
        const DistGcnReport r = TrainDistGcn(ds, options);
        // Every epoch, then the final evaluation pass.
        return Schedule{options.epochs + 1u, r.recomputed_epochs,
                        r.checkpoints_taken, r.failures_recovered,
                        r.rebalances};
      });
    }
  }
}

// --- live rebalancing -------------------------------------------------------

TEST(RebalanceTest, PageRankRebalancePreservesRanksAndBooksMigration) {
  Graph g = ErdosRenyi(500, 0.01, 11);
  PageRankOptions clean;
  clean.iterations = 30;
  clean.engine.num_workers = 4;
  const PageRankResult baseline = PageRank(g, clean);

  PageRankOptions rebalanced = clean;
  rebalanced.engine.faults =
      FaultPlan{}.SlowWorker(0, 8.0).Rebalance(RebalanceConfig{});
  ClusterRuntime cluster(ClusterOptions{4, {}});
  rebalanced.engine.cluster = &cluster;
  const PageRankResult r = PageRank(g, rebalanced);

  EXPECT_EQ(r.ranks, baseline.ranks);
  EXPECT_GE(r.stats.rebalances, 1u);
  EXPECT_GT(r.stats.migrated_vertices, 0u);
  EXPECT_GT(r.stats.migration_bytes, 0u);
  // The migration's bytes really landed on the shared ledger.
  EXPECT_GE(cluster.ledger().Snapshot().cross_bytes,
            r.stats.migration_bytes);
}

TEST(RebalanceTest, WccRebalanceKeepsComponents) {
  Graph g = ErdosRenyi(400, 0.012, 19);
  const WccResult baseline = Wcc(g);
  TlavConfig config;
  config.num_workers = 4;
  config.faults = FaultPlan{}.SlowWorker(1, 6.0).Rebalance(RebalanceConfig{});
  const WccResult r = Wcc(g, config);
  EXPECT_EQ(r.component, baseline.component);
  EXPECT_EQ(r.num_components, baseline.num_components);
}

TEST(RebalanceTest, BfsRebalanceKeepsDistancesAndSchedule) {
  const Graph g = Lollipop();
  TraversalOptions clean;
  clean.engine.num_workers = 4;
  clean.engine.faults = FaultPlan{};
  const BfsResult baseline = TlavBfs(g, kTailEnd, clean);

  TraversalOptions rebalanced = clean;
  rebalanced.engine.faults =
      FaultPlan{}.SlowWorker(1, 6.0).Rebalance(RebalanceConfig{});
  ClusterRuntime cluster(ClusterOptions{4, {}});
  rebalanced.engine.cluster = &cluster;
  const BfsResult r = TlavBfs(g, kTailEnd, rebalanced);

  EXPECT_EQ(r.distance, baseline.distance);
  EXPECT_EQ(r.stats.pull_supersteps, baseline.stats.pull_supersteps);
  EXPECT_GE(r.stats.rebalances, 1u);
  EXPECT_GT(r.stats.migrated_vertices, 0u);
  EXPECT_GT(r.stats.migration_bytes, 0u);
  EXPECT_GE(cluster.ledger().Snapshot().cross_bytes, r.stats.migration_bytes);
}

TEST(RebalanceTest, RebalanceComposesWithFailureRecovery) {
  Graph g = ErdosRenyi(300, 0.02, 23);
  PageRankOptions clean;
  clean.iterations = 25;
  clean.engine.num_workers = 4;
  const PageRankResult baseline = PageRank(g, clean);

  PageRankOptions options = clean;
  options.engine.faults = FaultPlan{}
                              .CheckpointEvery(5)
                              .FailWorkerAt(2, 12)
                              .SlowWorker(0, 8.0)
                              .Rebalance(RebalanceConfig{});
  const PageRankResult r = PageRank(g, options);
  EXPECT_EQ(r.ranks, baseline.ranks);
  EXPECT_EQ(r.stats.failures_recovered, 1u);
  EXPECT_GE(r.stats.rebalances, 1u);
}

TEST(RebalanceTest, DistGcnRebalancePreservesTraining) {
  // Every row sums in the one-worker CSR order whatever the partition,
  // so on a lossless BSP wire a migration leaves the curve bit-identical,
  // with and without P3's layer-0 feature split.
  PlantedDatasetOptions data;
  data.num_vertices = 300;
  data.num_classes = 3;
  NodeClassificationDataset ds = MakePlantedDataset(data);

  for (bool p3 : {false, true}) {
    DistGcnConfig clean;
    clean.num_workers = 4;
    clean.epochs = 10;
    clean.p3_feature_split = p3;
    clean.faults = FaultPlan{};
    const DistGcnReport clean_report = TrainDistGcn(ds, clean);

    DistGcnConfig rebalanced = clean;
    rebalanced.faults =
        FaultPlan{}.SlowWorker(0, 8.0).Rebalance(RebalanceConfig{});
    const DistGcnReport r = TrainDistGcn(ds, rebalanced);
    EXPECT_EQ(r.epoch_loss, clean_report.epoch_loss) << "p3=" << p3;
    EXPECT_EQ(r.epoch_test_accuracy, clean_report.epoch_test_accuracy);
    EXPECT_EQ(r.final_test_accuracy, clean_report.final_test_accuracy);
    EXPECT_GE(r.rebalances, 1u);
    EXPECT_GT(r.migration_bytes, 0u);
  }
}

}  // namespace
}  // namespace gal
