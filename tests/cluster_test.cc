// The simulated-cluster substrate (src/cluster/): traffic ledger,
// virtual clock, runtime resolution, the typed BSP exchange channel, and
// the cross-engine contracts — bit-identical TLAV results at any worker
// or host-thread count, and one shared ledger/clock under TLAV, TLAG and
// dist-GNN jobs. The ledger and exchange suites are also run under
// ThreadSanitizer by scripts/check.sh.

#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/exchange.h"
#include "dist/dist_gcn.h"
#include "gnn/dataset.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

// --- traffic ledger ---------------------------------------------------------

TEST(TrafficLedgerTest, CrossVsLocalAccounting) {
  TrafficLedger ledger(3);
  ledger.Charge(0, 1, 100);
  ledger.Charge(1, 1, 999);  // src == dst: free on the wire, booked local
  ledger.Charge(2, 0, 50, 2);
  EXPECT_EQ(ledger.TotalBytes(), 150u);
  EXPECT_EQ(ledger.TotalMessages(), 3u);
  EXPECT_EQ(ledger.PairBytes(0, 1), 100u);
  EXPECT_EQ(ledger.PairBytes(1, 0), 0u);
  EXPECT_EQ(ledger.PairMessages(2, 0), 2u);
  EXPECT_EQ(ledger.TotalLocalBytes(), 999u);
  EXPECT_EQ(ledger.TotalLocalMessages(), 1u);
}

TEST(TrafficLedgerTest, BroadcastHitsEveryPeer) {
  TrafficLedger ledger(4);
  ledger.ChargeBroadcast(1, 10);
  EXPECT_EQ(ledger.TotalBytes(), 30u);
  EXPECT_EQ(ledger.PairBytes(1, 0), 10u);
  EXPECT_EQ(ledger.PairBytes(1, 1), 0u);
}

TEST(TrafficLedgerTest, WorkerViewsImbalanceAndReset) {
  TrafficLedger ledger(2);
  ledger.Charge(0, 1, 300, 3);
  ledger.Charge(1, 0, 100);
  ledger.Charge(0, 0, 40);
  const WorkerTraffic w0 = ledger.Worker(0);
  EXPECT_EQ(w0.sent_bytes, 300u);
  EXPECT_EQ(w0.sent_messages, 3u);
  EXPECT_EQ(w0.recv_bytes, 100u);
  EXPECT_EQ(w0.recv_messages, 1u);
  EXPECT_EQ(w0.local_bytes, 40u);
  // max over workers (300) / mean over workers (200).
  EXPECT_DOUBLE_EQ(ledger.SentBytesImbalance(), 1.5);
  const TrafficSnapshot snap = ledger.Snapshot();
  EXPECT_EQ(snap.cross_bytes, 400u);
  EXPECT_EQ(snap.cross_messages, 4u);
  EXPECT_EQ(snap.local_bytes, 40u);
  ledger.Reset();
  EXPECT_EQ(ledger.TotalBytes(), 0u);
  EXPECT_EQ(ledger.TotalLocalBytes(), 0u);
  EXPECT_DOUBLE_EQ(ledger.SentBytesImbalance(), 0.0);
}

// The race the sharded atomics exist for: many host threads charging on
// behalf of overlapping simulated workers (stolen TLAG tasks do exactly
// this) must lose no charge. The old SimulatedNetwork raced its plain
// uint64_t counters here; scripts/check.sh runs this under TSan.
TEST(TrafficLedgerTest, ConcurrentChargesAreExact) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 20000;
  TrafficLedger ledger(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, t] {
      const uint32_t src = static_cast<uint32_t>(t) % kWorkers;
      for (int i = 0; i < kChargesPerThread; ++i) {
        ledger.Charge(src, (src + 1) % kWorkers, 3);
        ledger.Charge(src, src, 2);  // local column
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const uint64_t charges =
      static_cast<uint64_t>(kThreads) * kChargesPerThread;
  EXPECT_EQ(ledger.TotalBytes(), 3 * charges);
  EXPECT_EQ(ledger.TotalMessages(), charges);
  EXPECT_EQ(ledger.TotalLocalBytes(), 2 * charges);
  EXPECT_EQ(ledger.TotalLocalMessages(), charges);
}

// --- virtual clock ----------------------------------------------------------

TEST(VirtualClockTest, RoundIsMaxComputePlusTransfer) {
  const NetworkCostModel cost;
  VirtualClock clock(cost);
  const std::vector<double> compute = {0.5, 2.0, 1.0};
  const double s = clock.AdvanceRound(std::span<const double>(compute),
                                      1000, 2);
  EXPECT_DOUBLE_EQ(s, 2.0 + cost.TransferSeconds(1000, 2));
  EXPECT_EQ(clock.rounds(), 1u);
  EXPECT_DOUBLE_EQ(clock.seconds(), s);
  const std::vector<ClusterRound> rounds = clock.RoundsSince(0);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_DOUBLE_EQ(rounds[0].compute_seconds, 2.0);
  EXPECT_EQ(rounds[0].comm_bytes, 1000u);
  EXPECT_EQ(rounds[0].comm_messages, 2u);
}

TEST(VirtualClockTest, QuietRoundPaysNoWireTime) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.AdvanceRound(1.0, 0, 0), 1.0);
  const std::vector<ClusterRound> rounds = clock.RoundsSince(0);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_DOUBLE_EQ(rounds[0].comm_seconds, 0.0);
}

TEST(VirtualClockTest, MarksAttributeJobsOnASharedClock) {
  VirtualClock clock;
  clock.AdvanceRound(1.0, 0, 0);  // an earlier job's round
  const size_t mark = clock.rounds();
  clock.AdvanceRound(2.0, 0, 0);
  clock.AdvanceRound(3.0, 0, 0);
  EXPECT_EQ(clock.RoundsSince(mark).size(), 2u);
  EXPECT_DOUBLE_EQ(clock.SecondsSince(mark), 5.0);
  EXPECT_DOUBLE_EQ(clock.seconds(), 6.0);
  clock.Reset();
  EXPECT_EQ(clock.rounds(), 0u);
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.0);
}

// --- runtime ---------------------------------------------------------------

TEST(ClusterRuntimeTest, WorkerCountResolution) {
  EXPECT_EQ(ClusterRuntime(ClusterOptions{3, {}}).num_workers(), 3u);
  EXPECT_EQ(ClusterRuntime().num_workers(), 4u);  // default width
}

TEST(ClusterRuntimeTest, InstallsPartitionOfMatchingWidth) {
  const Graph g = Grid(6, 6);
  ClusterRuntime runtime(ClusterOptions{4, {}});
  EXPECT_FALSE(runtime.has_partition());
  runtime.InstallPartition(HashPartition(g, 4));
  EXPECT_TRUE(runtime.has_partition());
  EXPECT_EQ(runtime.partition().num_parts, 4u);
  EXPECT_EQ(runtime.partition().assignment.size(), g.NumVertices());
}

// --- exchange channel -------------------------------------------------------

TEST(ExchangeChannelTest, DeliversInSourceWorkerThenSendOrder) {
  ClusterRuntime runtime(ClusterOptions{3, {}});
  ExchangeChannel<int> channel(&runtime, 8);
  // Sends issued out of source order; delivery to worker 0 must still be
  // src 0's lane in send order, then src 1's, then src 2's.
  channel.Send(2, 0, 7, 70);
  channel.Send(0, 0, 5, 50);
  channel.Send(0, 0, 6, 60);
  channel.Send(1, 0, 5, 51);
  std::vector<std::pair<VertexId, int>> got;
  const auto totals =
      channel.Flush(nullptr, [&](uint32_t dst_worker, VertexId v, int&& m) {
        EXPECT_EQ(dst_worker, 0u);
        got.push_back({v, m});
      });
  const std::vector<std::pair<VertexId, int>> want = {
      {5, 50}, {6, 60}, {5, 51}, {7, 70}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(totals.logical_messages, 4u);
  // src 0 -> worker 0 stays on-worker; the two remote sends pay
  // sizeof(int) + 8-byte envelope each.
  EXPECT_EQ(totals.cross_messages, 2u);
  EXPECT_EQ(totals.cross_bytes, 2 * (sizeof(int) + 8));
  EXPECT_EQ(runtime.ledger().TotalBytes(), totals.cross_bytes);
  EXPECT_EQ(runtime.ledger().TotalMessages(), 2u);
}

int Plus(const int& a, const int& b) { return a + b; }

TEST(ExchangeChannelTest, CombinerCollapsesWireMessages) {
  ClusterRuntime runtime(ClusterOptions{2, {}});
  ExchangeChannel<int> channel(&runtime, 0, /*num_vertices=*/10);
  channel.SendCombined(0, 1, 9, 1, /*mirrored=*/false, Plus);
  channel.SendCombined(0, 1, 9, 2, /*mirrored=*/false, Plus);
  channel.SendCombined(0, 1, 9, 3, /*mirrored=*/false, Plus);
  int delivered = -1;
  uint32_t count = 0;
  const auto totals =
      channel.Flush(nullptr, [&](uint32_t, VertexId v, int&& m) {
        EXPECT_EQ(v, 9u);
        delivered = m;
        ++count;
      });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(delivered, 6);
  EXPECT_EQ(totals.logical_messages, 3u);
  EXPECT_EQ(totals.cross_messages, 1u);  // one combined slot on the wire
  EXPECT_EQ(runtime.ledger().TotalMessages(), 1u);
}

TEST(ExchangeChannelTest, CombinedSlotsDeliverBySourceThenFirstTouch) {
  ClusterRuntime runtime(ClusterOptions{3, {}});
  ExchangeChannel<int> channel(&runtime, 8, /*num_vertices=*/10);
  // Sources send out of order, and source 1 touches 9 before 2 and 4:
  // delivery is source 0, 1, 2, each in first-touch order, not id order.
  channel.SendCombined(2, 0, 3, 1, false, Plus);
  channel.SendCombined(1, 0, 9, 10, false, Plus);
  channel.SendCombined(1, 0, 2, 20, false, Plus);
  channel.SendCombined(1, 0, 9, 30, false, Plus);
  channel.SendCombined(0, 0, 6, 40, false, Plus);
  channel.SendCombined(1, 0, 4, 50, false, Plus);
  std::vector<std::pair<VertexId, int>> got;
  channel.Flush(nullptr, [&](uint32_t dst_worker, VertexId v, int&& m) {
    EXPECT_EQ(dst_worker, 0u);
    got.push_back({v, m});
  });
  const std::vector<std::pair<VertexId, int>> want = {
      {6, 40}, {9, 40}, {2, 20}, {4, 50}, {3, 1}};
  EXPECT_EQ(got, want);
}

TEST(ExchangeChannelTest, CombinedSlotPaysOneWireMessageAtFirstPlainSend) {
  ClusterRuntime runtime(ClusterOptions{2, {}});
  ExchangeChannel<int> channel(&runtime, 0, /*num_vertices=*/8);
  // Slot 3 is reached only by mirrored sends: free. Slot 5 by a
  // mirrored send, then two plain ones: exactly one wire message.
  channel.SendCombined(0, 1, 3, 1, /*mirrored=*/true, Plus);
  channel.SendCombined(0, 1, 3, 2, /*mirrored=*/true, Plus);
  channel.SendCombined(0, 1, 5, 1, /*mirrored=*/true, Plus);
  channel.SendCombined(0, 1, 5, 2, /*mirrored=*/false, Plus);
  channel.SendCombined(0, 1, 5, 3, /*mirrored=*/false, Plus);
  std::vector<std::pair<VertexId, int>> got;
  const auto totals =
      channel.Flush(nullptr, [&](uint32_t, VertexId v, int&& m) {
        got.push_back({v, m});
      });
  const std::vector<std::pair<VertexId, int>> want = {{3, 3}, {5, 6}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(totals.logical_messages, 5u);
  EXPECT_EQ(totals.cross_messages, 1u);
  EXPECT_EQ(totals.cross_bytes, sizeof(int));
  EXPECT_EQ(runtime.ledger().TotalMessages(), 1u);
}

TEST(ExchangeChannelTest, ClearResetsCombinedSlots) {
  ClusterRuntime runtime(ClusterOptions{2, {}});
  ExchangeChannel<int> channel(&runtime, 0, /*num_vertices=*/8);
  // A rolled-back step's partial must not survive: after Clear() the
  // next send to the same vertex starts a fresh slot, is delivered, and
  // pays its own wire message.
  channel.SendCombined(0, 1, 4, 5, /*mirrored=*/false, Plus);
  channel.Clear();
  channel.SendCombined(0, 1, 4, 7, /*mirrored=*/false, Plus);
  std::vector<std::pair<VertexId, int>> got;
  const auto totals =
      channel.Flush(nullptr, [&](uint32_t, VertexId v, int&& m) {
        got.push_back({v, m});
      });
  EXPECT_EQ(got, (std::vector<std::pair<VertexId, int>>{{4, 7}}));
  EXPECT_EQ(totals.logical_messages, 1u);
  EXPECT_EQ(totals.cross_messages, 1u);
  // Flush resets the slots it delivers as well.
  channel.SendCombined(0, 1, 4, 9, /*mirrored=*/false, Plus);
  got.clear();
  channel.Flush(nullptr,
                [&](uint32_t, VertexId v, int&& m) { got.push_back({v, m}); });
  EXPECT_EQ(got, (std::vector<std::pair<VertexId, int>>{{4, 9}}));
  EXPECT_EQ(runtime.ledger().TotalMessages(), 2u);
}

TEST(ExchangeChannelTest, ClearDropsBufferedMessages) {
  ClusterRuntime runtime(ClusterOptions{2, {}});
  ExchangeChannel<int> channel(&runtime, 0);
  channel.Send(0, 1, 3, 33);
  channel.Clear();
  uint32_t count = 0;
  const auto totals =
      channel.Flush(nullptr, [&](uint32_t, VertexId, int&&) { ++count; });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(totals.logical_messages, 0u);
  EXPECT_EQ(runtime.ledger().TotalBytes(), 0u);
}

// --- cross-engine determinism ----------------------------------------------
// The exchange-channel ordering contract in action: TLAV results and
// logical stats must be bit-identical at any simulated worker count and
// any host thread count. Host threads are an execution detail; the
// worker count changes only what crosses the wire.

TEST(ClusterExchangeTest, PageRankBitIdenticalAcrossWorkersAndThreads) {
  // A grid, and the grid's edges pointed at higher ids with 16 isolated
  // vertices added, so 17 vertices dangle and feed the aggregator.
  GraphOptions directed;
  directed.directed = true;
  const Graph dangling =
      std::move(Graph::FromEdges(160, Grid(12, 12).CollectEdges(), directed)
                    .value());
  for (const Graph& g : {Grid(12, 12), dangling}) {
    std::vector<double> base_ranks;
    TlavStats base_stats;
    bool have_base = false;
    for (const uint32_t workers : {1u, 2u, 4u}) {
      std::vector<double> fixed_ranks;
      TlavStats fixed_stats;
      bool have_fixed = false;
      for (const char* threads : {"1", "8"}) {
        ASSERT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
        PageRankOptions options;
        options.iterations = 12;
        options.engine.num_workers = workers;
        const PageRankResult r = PageRank(g, options);
        if (workers == 1) {
          EXPECT_EQ(r.stats.cross_worker_messages, 0u);
          EXPECT_EQ(r.stats.cross_worker_bytes, 0u);
        }
        if (!have_fixed) {
          fixed_ranks = r.ranks;
          fixed_stats = r.stats;
          have_fixed = true;
        } else {
          // Bit-identical ranks and wire stats at any host thread count.
          ASSERT_EQ(r.ranks.size(), fixed_ranks.size());
          for (size_t i = 0; i < r.ranks.size(); ++i) {
            EXPECT_EQ(r.ranks[i], fixed_ranks[i]) << "vertex " << i;
          }
          EXPECT_EQ(r.stats.cross_worker_messages,
                    fixed_stats.cross_worker_messages);
          EXPECT_EQ(r.stats.cross_worker_bytes,
                    fixed_stats.cross_worker_bytes);
          EXPECT_EQ(r.stats.mirrored_deliveries,
                    fixed_stats.mirrored_deliveries);
        }
        if (!have_base) {
          base_ranks = r.ranks;
          base_stats = r.stats;
          have_base = true;
        }
        // Logical stats are partition-independent: identical across
        // worker counts as well.
        EXPECT_EQ(r.stats.supersteps, base_stats.supersteps);
        EXPECT_EQ(r.stats.total_messages, base_stats.total_messages);
        EXPECT_EQ(r.stats.total_message_bytes,
                  base_stats.total_message_bytes);
        EXPECT_EQ(r.stats.vertex_activations, base_stats.vertex_activations);
        ASSERT_EQ(r.stats.per_step.size(), base_stats.per_step.size());
        for (size_t s = 0; s < r.stats.per_step.size(); ++s) {
          EXPECT_EQ(r.stats.per_step[s].active_vertices,
                    base_stats.per_step[s].active_vertices);
          EXPECT_EQ(r.stats.per_step[s].messages,
                    base_stats.per_step[s].messages);
        }
      }
    }
  }
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
}

TEST(ClusterExchangeTest, WccIdenticalAcrossWorkersAndThreads) {
  const Graph g = PlantedPartition(240, 3, 0.12, 0.008, 11);
  WccResult base;
  bool have_base = false;
  for (const uint32_t workers : {1u, 2u, 4u}) {
    for (const char* threads : {"1", "8"}) {
      ASSERT_EQ(setenv("GAL_TASK_THREADS", threads, 1), 0);
      TlavConfig config;
      config.num_workers = workers;
      const WccResult r = Wcc(g, config);
      if (!have_base) {
        base = r;
        have_base = true;
        continue;
      }
      // Min-combining is order-independent, so even the values are
      // identical across worker counts, not just thread counts.
      EXPECT_EQ(r.component, base.component);
      EXPECT_EQ(r.num_components, base.num_components);
      EXPECT_EQ(r.stats.supersteps, base.stats.supersteps);
      EXPECT_EQ(r.stats.total_messages, base.stats.total_messages);
      EXPECT_EQ(r.stats.total_message_bytes, base.stats.total_message_bytes);
      ASSERT_EQ(r.stats.per_step.size(), base.stats.per_step.size());
      for (size_t s = 0; s < r.stats.per_step.size(); ++s) {
        EXPECT_EQ(r.stats.per_step[s].active_vertices,
                  base.stats.per_step[s].active_vertices);
        EXPECT_EQ(r.stats.per_step[s].messages,
                  base.stats.per_step[s].messages);
      }
    }
  }
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
}

// --- one runtime under three engines ----------------------------------------
// The tentpole contract: a TLAV job, a TLAG mining job and a dist-GNN
// training run sharing one ClusterRuntime charge one ledger and advance
// one clock, each attributing its own delta.

TEST(ClusterRuntimeTest, SharedRuntimeAccumulatesAcrossEngines) {
  PlantedDatasetOptions data_options;
  data_options.num_vertices = 200;
  NodeClassificationDataset ds = MakePlantedDataset(data_options);
  const Graph& g = ds.graph;
  ClusterRuntime runtime(ClusterOptions{4, {}});

  // TLAV job.
  TlavConfig tlav;
  tlav.cluster = &runtime;
  const WccResult wcc = Wcc(g, tlav);
  const TrafficSnapshot after_wcc = runtime.ledger().Snapshot();
  const size_t rounds_after_wcc = runtime.clock().rounds();
  EXPECT_EQ(wcc.stats.cross_worker_bytes, after_wcc.cross_bytes);
  EXPECT_GT(wcc.stats.cross_worker_bytes, 0u);
  EXPECT_GE(rounds_after_wcc, wcc.stats.supersteps);
  EXPECT_GT(wcc.stats.modeled_seconds, 0.0);
  EXPECT_DOUBLE_EQ(wcc.stats.modeled_seconds, runtime.clock().seconds());

  // TLAG mining job on the same runtime (reuses the installed partition).
  TaskEngineConfig task_config;
  task_config.num_threads = 3;
  task_config.cluster = &runtime;
  const TriangleCountResult tri = TaskTriangleCount(g, task_config);
  const TrafficSnapshot after_tri = runtime.ledger().Snapshot();
  EXPECT_EQ(tri.triangles, SerialTriangleCount(g).triangles);
  EXPECT_EQ(tri.migrated_bytes, after_tri.cross_bytes - after_wcc.cross_bytes);
  EXPECT_GT(tri.data_touched_bytes, 0u);
  EXPECT_GE(tri.data_touched_bytes, tri.migrated_bytes);
  EXPECT_EQ(runtime.clock().rounds(), rounds_after_wcc + 1);
  EXPECT_GT(tri.modeled_seconds, 0.0);

  // Dist-GNN training on the same runtime.
  DistGcnConfig gcn;
  gcn.cluster = &runtime;
  gcn.epochs = 2;
  gcn.hidden_dim = 4;
  const DistGcnReport report = TrainDistGcn(ds, gcn);
  const TrafficSnapshot after_gcn = runtime.ledger().Snapshot();
  EXPECT_EQ(report.comm_bytes, after_gcn.cross_bytes - after_tri.cross_bytes);
  EXPECT_GT(report.comm_bytes, 0u);
  // One round per epoch, then the final evaluation pass.
  EXPECT_EQ(runtime.clock().rounds(), rounds_after_wcc + 1 + gcn.epochs + 1);
  EXPECT_GT(report.simulated_epoch_seconds, 0.0);

  // The shared clock accumulated every job's rounds.
  EXPECT_GT(runtime.clock().seconds(), wcc.stats.modeled_seconds);
}

}  // namespace
}  // namespace gal
