#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "dist/cache.h"
#include "dist/cost_model.h"
#include "dist/dist_gcn.h"
#include "dist/pipeline.h"
#include "dist/quantization.h"
#include "gnn/dataset.h"
#include "graph/generators.h"
#include "nn/gcn.h"
#include "tensor/sparse.h"

namespace gal {
namespace {

// --- network cost model --------------------------------------------------------
// (The traffic-ledger tests live in cluster_test.cc with the rest of the
// simulated-cluster substrate.)

TEST(NetworkTest, NvlinkFasterThanEthernet) {
  const uint64_t bytes = 100 * 1024 * 1024;
  EXPECT_LT(NetworkCostModel::Nvlink().TransferSeconds(bytes),
            NetworkCostModel::Ethernet10G().TransferSeconds(bytes) / 10);
}

// --- quantization ----------------------------------------------------------------

TEST(QuantizationTest, WireBytesOrdering) {
  EXPECT_GT(WireBytes(Quantization::kNone, 100, 64),
            WireBytes(Quantization::kFp16, 100, 64));
  EXPECT_GT(WireBytes(Quantization::kFp16, 100, 64),
            WireBytes(Quantization::kInt8, 100, 64));
  EXPECT_GT(WireBytes(Quantization::kInt8, 100, 64),
            WireBytes(Quantization::kInt4, 100, 64));
}

TEST(QuantizationTest, ErrorShrinksWithMoreBits) {
  Rng rng(3);
  Matrix m = Matrix::Xavier(50, 32, rng);
  const double e16 = m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kFp16));
  const double e8 = m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kInt8));
  const double e4 = m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kInt4));
  EXPECT_LT(e16, e8);
  EXPECT_LT(e8, e4);
  EXPECT_GT(e4, 0.0);
  EXPECT_EQ(m.MeanAbsDiff(QuantizeDequantize(m, Quantization::kNone)), 0.0);
}

TEST(QuantizationTest, Int8BoundedError) {
  Rng rng(9);
  Matrix m = Matrix::Xavier(20, 16, rng);
  Matrix q = QuantizeDequantize(m, Quantization::kInt8);
  // Max error <= half a quantization step of the per-row range.
  for (uint32_t r = 0; r < m.rows(); ++r) {
    float lo = m.at(r, 0);
    float hi = m.at(r, 0);
    for (uint32_t c = 0; c < m.cols(); ++c) {
      lo = std::min(lo, m.at(r, c));
      hi = std::max(hi, m.at(r, c));
    }
    const float step = (hi - lo) / 255.0f;
    for (uint32_t c = 0; c < m.cols(); ++c) {
      EXPECT_LE(std::abs(m.at(r, c) - q.at(r, c)), step * 0.51f);
    }
  }
}

TEST(QuantizationTest, ErrorCompensationCancelsBiasOverTime) {
  // Transmit the same matrix repeatedly; the *running mean* of EC
  // transmissions converges to the true values, while plain
  // quantization keeps its deterministic bias forever.
  Rng rng(5);
  Matrix m = Matrix::Xavier(10, 10, rng);
  ErrorCompensatedCodec codec(Quantization::kInt4);
  Matrix ec_mean(10, 10);
  Matrix plain_mean(10, 10);
  const int kRounds = 64;
  for (int i = 0; i < kRounds; ++i) {
    ec_mean.AddScaled(codec.Transmit(m), 1.0f / kRounds);
    plain_mean.AddScaled(QuantizeDequantize(m, Quantization::kInt4),
                         1.0f / kRounds);
  }
  EXPECT_LT(m.MeanAbsDiff(ec_mean), m.MeanAbsDiff(plain_mean) * 0.5);
}

// --- cache ------------------------------------------------------------------------

TEST(CacheTest, LocalVerticesAlwaysHit) {
  Graph g = Rmat(8, 6, 3);
  VertexPartition parts = HashPartition(g, 4);
  StaticFeatureCache cache(g, parts, 0.0);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_TRUE(cache.Fetch(parts.assignment[v], v));
  }
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(CacheTest, HotVerticesCachedRemotely) {
  Graph g = Star(200);  // vertex 0 is by far the hottest
  VertexPartition parts = HashPartition(g, 4);
  StaticFeatureCache cache(g, parts, 0.01);
  for (uint32_t w = 0; w < 4; ++w) {
    EXPECT_TRUE(cache.Fetch(w, 0)) << "hub must be cached on worker " << w;
  }
}

TEST(CacheTest, LargerCacheHigherHitRate) {
  Graph g = Rmat(9, 8, 7);
  VertexPartition parts = HashPartition(g, 4);
  StaticFeatureCache small(g, parts, 0.02);
  StaticFeatureCache big(g, parts, 0.4);
  Rng rng(3);
  // Degree-biased access pattern: sample adjacency slots (decoded up
  // front so the sampling works on compressed graphs too).
  std::vector<VertexId> slots;
  slots.reserve(g.NumAdjacencyEntries());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    g.ForEachOutNeighbor(u, [&](VertexId w) { slots.push_back(w); });
  }
  for (int i = 0; i < 20000; ++i) {
    const VertexId v = slots[rng.Uniform(slots.size())];
    const uint32_t w = static_cast<uint32_t>(rng.Uniform(4));
    small.Fetch(w, v);
    big.Fetch(w, v);
  }
  EXPECT_GT(big.HitRate(), small.HitRate());
}

// --- pipeline ----------------------------------------------------------------------

std::vector<PipelineStage> SpinStages() {
  auto spin = [](double ms) {
    const auto end =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(ms * 1000));
    while (std::chrono::steady_clock::now() < end) {
    }
  };
  return {
      {"sample", [=](uint32_t) { spin(2.0); }},
      {"gather", [=](uint32_t) { spin(2.0); }},
      {"compute", [=](uint32_t) { spin(2.0); }},
  };
}

TEST(PipelineTest, ModeledOverlapIndependentOfCores) {
  PipelineReport report = RunPipeline(SpinStages(), 16);
  // The modeled speedup schedules on a virtual clock and is therefore
  // deterministic on any core count: 3 equal stages over 16 batches
  // give 48/(16+2) ≈ 2.67x.
  EXPECT_GT(report.modeled_speedup, 1.5);
  EXPECT_EQ(report.stage_names.size(), 3u);
  EXPECT_GT(report.hardware_concurrency, 0u);
}

// `timing` label: the *measured* wall-clock speedup only materializes
// when the host can run one thread per CPU-bound spin stage — skipped
// (not failed) on smaller hosts.
TEST(PipelineTest, OverlapBeatsSerial) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  PipelineReport report = RunPipeline(SpinStages(), 16);
  EXPECT_GT(report.measured_speedup, 1.5);
}

TEST(PipelineTest, ModeledExecutorMoreStagesThanCores) {
  // 8 stages regardless of the host's core count: the modeled replay
  // must still show near-perfect overlap for uniform stages.
  const size_t kStages = 8;
  const uint32_t kBatches = 24;
  std::vector<std::vector<double>> busy(
      kStages, std::vector<double>(kBatches, 1.0));
  ModeledPipelineResult m = ModelPipelineSchedule(busy);
  EXPECT_DOUBLE_EQ(m.serial_seconds, double(kStages * kBatches));
  // Uniform pipeline makespan: batches + (stages - 1).
  EXPECT_DOUBLE_EQ(m.pipelined_seconds, double(kBatches + kStages - 1));
  EXPECT_NEAR(m.speedup,
              double(kStages * kBatches) / double(kBatches + kStages - 1),
              1e-12);
  EXPECT_DOUBLE_EQ(m.critical_path_seconds, double(kStages));
  // Fill + stall + busy + drain accounts for every stage's whole run.
  for (size_t s = 0; s < kStages; ++s) {
    EXPECT_NEAR(m.stage_fill_seconds[s] + m.stage_stall_seconds[s] +
                    m.stage_busy_seconds[s] + m.stage_drain_seconds[s],
                m.pipelined_seconds, 1e-9)
        << "stage " << s;
  }
}

TEST(PipelineTest, ModeledExecutorBottleneckDominates) {
  // Skewed stages: the slow middle stage sets the pace; modeled speedup
  // approaches total / bottleneck as batches grow.
  const uint32_t kBatches = 64;
  std::vector<std::vector<double>> busy = {
      std::vector<double>(kBatches, 0.1),
      std::vector<double>(kBatches, 1.0),
      std::vector<double>(kBatches, 0.1),
  };
  ModeledPipelineResult m = ModelPipelineSchedule(busy);
  EXPECT_EQ(m.bottleneck_stage, 1u);
  EXPECT_DOUBLE_EQ(m.bottleneck_busy_seconds, double(kBatches));
  // Makespan = fill (0.1) + bottleneck total (64) + drain (0.1).
  EXPECT_NEAR(m.pipelined_seconds, 0.1 + kBatches + 0.1, 1e-9);
  EXPECT_NEAR(m.speedup, m.serial_seconds / m.bottleneck_busy_seconds, 0.05);
  // Fast downstream stage mostly stalls waiting on the bottleneck.
  EXPECT_GT(m.stage_stall_seconds[2], 0.8 * kBatches * (1.0 - 0.1));
}

TEST(PipelineTest, ModeledExecutorSingleStageHasNoOverlap) {
  std::vector<std::vector<double>> busy = {{0.5, 1.0, 0.25, 2.0}};
  ModeledPipelineResult m = ModelPipelineSchedule(busy);
  EXPECT_DOUBLE_EQ(m.pipelined_seconds, m.serial_seconds);
  EXPECT_DOUBLE_EQ(m.speedup, 1.0);
  EXPECT_EQ(m.bottleneck_stage, 0u);
  EXPECT_DOUBLE_EQ(m.stage_fill_seconds[0], 0.0);
  EXPECT_DOUBLE_EQ(m.stage_stall_seconds[0], 0.0);
  EXPECT_DOUBLE_EQ(m.stage_drain_seconds[0], 0.0);
  EXPECT_DOUBLE_EQ(m.critical_path_seconds, 2.0);
}

TEST(PipelineTest, ReportSeparatesSerialAndPipelinedBusyTime) {
  std::vector<PipelineStage> stages = {
      {"a", [](uint32_t) {}},
      {"b", [](uint32_t) {}},
  };
  PipelineReport report = RunPipeline(stages, 8);
  ASSERT_EQ(report.stages.size(), 2u);
  for (const PipelineStageStats& s : report.stages) {
    // Both passes ran all 8 batches; both busy totals were recorded.
    EXPECT_GE(s.serial_busy_seconds, 0.0);
    EXPECT_GE(s.pipelined_busy_seconds, 0.0);
    EXPECT_GE(s.busy_max_seconds, s.busy_p50_seconds);
    EXPECT_GE(s.stall_max_seconds, s.stall_p50_seconds);
  }
  // Virtual-clock consistency: modeled makespan is bounded below by the
  // critical path and above by the serial total.
  EXPECT_GE(report.modeled_pipelined_seconds, report.critical_path_seconds);
  EXPECT_LE(report.modeled_pipelined_seconds,
            report.serial_seconds + 1e-9);
}

TEST(PipelineTest, OrderingRespected) {
  // Stage 1 must never process batch b before stage 0 finished it.
  std::vector<std::atomic<int>> stage0_done(32);
  std::atomic<bool> violation{false};
  std::vector<PipelineStage> stages = {
      {"first", [&](uint32_t b) { stage0_done[b] = 1; }},
      {"second",
       [&](uint32_t b) {
         if (!stage0_done[b].load()) violation = true;
       }},
  };
  RunPipeline(stages, 32);
  EXPECT_FALSE(violation.load());
}

TEST(PipelineTest, ModeledSecondExecutorHalvesBottleneck) {
  // Deterministic regression for the two-level scheduler: widening the
  // bottleneck stage to 2 executors halves its per-executor busy time
  // and (nearly) halves the modeled critical-path makespan.
  const uint32_t kBatches = 8;
  auto stages_with = [&](uint32_t bottleneck_executors) {
    std::vector<ModeledStageSpec> stages = {
        {"sample", std::vector<double>(kBatches, 0.1), 1},
        {"compute", std::vector<double>(kBatches, 1.0),
         bottleneck_executors},
        {"emit", std::vector<double>(kBatches, 0.1), 1},
    };
    return stages;
  };
  ModeledPipelineResult one = ModelPipelineSchedule(stages_with(1));
  ModeledPipelineResult two = ModelPipelineSchedule(stages_with(2));

  // k = 1: fill (0.1) + bottleneck total (8.0) + drain (0.1).
  EXPECT_NEAR(one.pipelined_seconds, 8.2, 1e-9);
  // k = 2: the two executors interleave odd/even batches; the last
  // batch leaves the widened stage at 4.2 and emits by 4.3.
  EXPECT_NEAR(two.pipelined_seconds, 4.3, 1e-9);
  EXPECT_GT(one.pipelined_seconds / two.pipelined_seconds, 1.9);

  // The bottleneck is per-executor busy: halved by the second executor.
  EXPECT_EQ(one.bottleneck_stage, 1u);
  EXPECT_EQ(two.bottleneck_stage, 1u);
  EXPECT_DOUBLE_EQ(one.bottleneck_busy_seconds, 8.0);
  EXPECT_DOUBLE_EQ(two.bottleneck_busy_seconds, 4.0);
  ASSERT_EQ(two.stage_executors.size(), 3u);
  EXPECT_EQ(two.stage_executors[1], 2u);

  // Accounting invariant: fill + stall + busy + drain covers every
  // executor of every stage for the whole makespan.
  for (size_t s = 0; s < 3; ++s) {
    const double k = double(two.stage_executors[s]);
    EXPECT_NEAR(two.stage_fill_seconds[s] + two.stage_stall_seconds[s] +
                    two.stage_busy_seconds[s] + two.stage_drain_seconds[s],
                k * two.pipelined_seconds, 1e-9)
        << "stage " << s;
    EXPECT_NEAR(two.stage_occupancy[s],
                two.stage_busy_seconds[s] / (k * two.pipelined_seconds),
                1e-12);
  }
}

TEST(PipelineTest, ModeledNetworkStageChargesCostModel) {
  NetworkCostModel cost;  // 10 Gb/s, 50 µs/message
  const std::vector<uint64_t> bytes = {1250000000, 2500000000, 0};
  const std::vector<uint64_t> messages = {1, 2, 4};
  ModeledStageSpec comm = ModeledNetworkStage("comm", cost, bytes, messages, 2);
  ASSERT_EQ(comm.busy.size(), 3u);
  EXPECT_EQ(comm.executors, 2u);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(comm.busy[b], cost.TransferSeconds(bytes[b], messages[b]));
  }

  // Modeled compute->comm overlap where comm dominates: doubling the
  // channels (executors) halves the per-channel bottleneck.
  std::vector<ModeledStageSpec> narrow = {
      {"compute", {0.1, 0.1, 0.1}, 1},
      ModeledNetworkStage("comm", cost, bytes, messages, 1),
  };
  std::vector<ModeledStageSpec> wide = {
      {"compute", {0.1, 0.1, 0.1}, 1},
      ModeledNetworkStage("comm", cost, bytes, messages, 2),
  };
  ModeledPipelineResult n = ModelPipelineSchedule(narrow);
  ModeledPipelineResult w = ModelPipelineSchedule(wide);
  EXPECT_EQ(n.bottleneck_stage, 1u);
  EXPECT_NEAR(w.bottleneck_busy_seconds, n.bottleneck_busy_seconds / 2,
              1e-12);
  EXPECT_LT(w.pipelined_seconds, n.pipelined_seconds);
}

TEST(PipelineTest, KExecutorStagePreservesBatchOrder) {
  // A widened stage finishes batches out of order (batch 0 is slow), but
  // the batch-ordered handoff must release them downstream in ascending
  // order regardless.
  const uint32_t kBatches = 12;
  std::vector<uint32_t> seen;
  std::mutex seen_mu;
  std::vector<PipelineStage> stages = {
      {"produce",
       [&](uint32_t b) {
         std::this_thread::sleep_for(
             std::chrono::milliseconds(b == 0 ? 30 : 1));
       },
       2},
      {"consume",
       [&](uint32_t b) {
         std::lock_guard<std::mutex> lock(seen_mu);
         seen.push_back(b);
       },
       1},
  };
  PipelineReport report = RunPipeline(stages, kBatches);
  // Both passes (serial + pipelined) consume every batch in order.
  ASSERT_EQ(seen.size(), 2 * kBatches);
  for (uint32_t b = 0; b < kBatches; ++b) {
    EXPECT_EQ(seen[b], b);
    EXPECT_EQ(seen[kBatches + b], b);
  }
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].executors, 2u);
  EXPECT_EQ(report.stages[1].executors, 1u);
  EXPECT_EQ(report.total_executors, 3u);
}

TEST(PipelineTest, OutputsBitIdenticalAcrossExecutorConfigs) {
  // Every (stage, batch) pair executes exactly once per pass, writing
  // its own slot — so outputs are bit-identical between the serial pass
  // and any executor configuration.
  const uint32_t kBatches = 16;
  const size_t kDim = 64;
  auto run_with = [&](uint32_t executors) {
    std::vector<std::vector<float>> mid(kBatches), out(kBatches);
    std::vector<PipelineStage> stages = {
        {"transform",
         [&](uint32_t b) {
           std::vector<float>& row = mid[b];
           row.assign(kDim, 0.0f);
           for (size_t i = 0; i < kDim; ++i) {
             row[i] = std::sin(0.1f * float(b) + 0.01f * float(i));
           }
         },
         executors},
        {"reduce",
         [&](uint32_t b) {
           std::vector<float>& row = out[b];
           row.assign(kDim, 0.0f);
           float acc = 0.0f;
           for (size_t i = 0; i < kDim; ++i) {
             acc += mid[b][i];
             row[i] = acc;
           }
         },
         executors},
    };
    RunPipeline(stages, kBatches);
    return out;
  };
  const std::vector<std::vector<float>> ref = run_with(1);
  for (uint32_t k : {2u, 4u}) {
    const std::vector<std::vector<float>> got = run_with(k);
    for (uint32_t b = 0; b < kBatches; ++b) {
      ASSERT_EQ(ref[b].size(), got[b].size());
      EXPECT_EQ(0, std::memcmp(ref[b].data(), got[b].data(),
                               ref[b].size() * sizeof(float)))
          << "batch " << b << " diverges at " << k << " executors";
    }
  }
}

TEST(PipelineTest, ResolveStageExecutorsHonorsEnvDefault) {
  EXPECT_EQ(ResolveStageExecutors(3), 3u);  // explicit wins
  setenv("GAL_STAGE_EXECUTORS", "4", 1);
  EXPECT_EQ(ResolveStageExecutors(0), 4u);
  EXPECT_EQ(ResolveStageExecutors(2), 2u);
  // A malformed value keeps the default and warns once.
  testing::internal::CaptureStderr();
  for (const char* bad : {"garbage", "two", "0", "4x"}) {
    setenv("GAL_STAGE_EXECUTORS", bad, 1);
    EXPECT_EQ(ResolveStageExecutors(0), 1u) << bad;
  }
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("GAL_STAGE_EXECUTORS=\"garbage\""), std::string::npos)
      << log;
  EXPECT_EQ(
      log.find("GAL_STAGE_EXECUTORS", log.find("GAL_STAGE_EXECUTORS") + 1),
      std::string::npos)
      << log;
  unsetenv("GAL_STAGE_EXECUTORS");
  EXPECT_EQ(ResolveStageExecutors(0), 1u);
}

// --- cost model -----------------------------------------------------------------------

TEST(CostModelTest, DorylusValueShape) {
  const double cpu_epoch = 100.0;
  CostReport cpu = EvaluateDeployment(CloudDeployment::CpuServer(), cpu_epoch);
  CostReport gpu = EvaluateDeployment(CloudDeployment::GpuServer(), cpu_epoch);
  CostReport lambda =
      EvaluateDeployment(CloudDeployment::CpuPlusServerless(), cpu_epoch);
  EXPECT_NEAR(cpu.value, 1.0, 1e-9);
  // GPU is fastest...
  EXPECT_LT(gpu.epoch_seconds, lambda.epoch_seconds);
  // ...but serverless has the best value (the Dorylus claim).
  EXPECT_GT(lambda.value, gpu.value);
  EXPECT_GT(lambda.value, cpu.value);
}

// --- distributed GCN ---------------------------------------------------------------------

NodeClassificationDataset SmallDataset() {
  PlantedDatasetOptions opt;
  opt.num_vertices = 300;
  opt.num_classes = 3;
  opt.noise = 1.5;
  return MakePlantedDataset(opt);
}

// The whole learning curve, bit for bit.
void ExpectSameTraining(const DistGcnReport& want, const DistGcnReport& got,
                        const std::string& what) {
  EXPECT_EQ(got.epoch_loss, want.epoch_loss) << what;
  EXPECT_EQ(got.epoch_test_accuracy, want.epoch_test_accuracy) << what;
  EXPECT_EQ(got.final_test_accuracy, want.final_test_accuracy) << what;
}

TEST(DistGcnTest, BspMatchesAccuracyOfCentralized) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig config;
  config.epochs = 40;
  DistGcnReport report = TrainDistGcn(ds, config);
  EXPECT_GT(report.final_test_accuracy, 0.8);
  EXPECT_GT(report.comm_bytes, 0u);
  EXPECT_EQ(report.broadcasts_skipped, 0u);
}

TEST(DistGcnTest, ReportAttributesKernelClassTimings) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig config;
  config.epochs = 3;
  DistGcnReport report = TrainDistGcn(ds, config);
  ASSERT_EQ(report.kernel_timings.size(), 3u);
  EXPECT_EQ(report.kernel_timings[0].name, "gemm");
  EXPECT_EQ(report.kernel_timings[1].name, "spmm");
  EXPECT_EQ(report.kernel_timings[2].name, "elementwise");
  // A GCN epoch exercises all three kernel classes, so each span sink
  // must have accumulated real wall time.
  for (const StageTimingStat& st : report.kernel_timings) {
    EXPECT_GT(st.total_seconds, 0.0) << st.name;
    EXPECT_GE(st.max_seconds, st.p50_seconds) << st.name;
  }
}

TEST(DistGcnTest, HalosCoverExactlyCrossNeighbors) {
  Graph g = Rmat(7, 5, 3);
  VertexPartition parts = HashPartition(g, 4);
  auto halos = ComputeHalos(g, parts);
  for (uint32_t w = 0; w < 4; ++w) {
    for (VertexId u : halos[w]) {
      EXPECT_NE(parts.assignment[u], w);
    }
  }
  // Every cross edge's far endpoint is in the owner's halo.
  for (const Edge& e : g.CollectEdges()) {
    const uint32_t pw = parts.assignment[e.src];
    const uint32_t pu = parts.assignment[e.dst];
    if (pw == pu) continue;
    EXPECT_TRUE(std::binary_search(halos[pw].begin(), halos[pw].end(), e.dst));
    EXPECT_TRUE(std::binary_search(halos[pu].begin(), halos[pu].end(), e.src));
  }
}

TEST(DistGcnTest, BetterPartitionLessComm) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig hash;
  hash.epochs = 5;
  hash.partition = PartitionScheme::kHash;
  DistGcnConfig ml = hash;
  ml.partition = PartitionScheme::kMultilevel;
  DistGcnReport rh = TrainDistGcn(ds, hash);
  DistGcnReport rm = TrainDistGcn(ds, ml);
  EXPECT_LT(rm.edge_cut, rh.edge_cut);
  EXPECT_LT(rm.comm_bytes, rh.comm_bytes);
}

TEST(DistGcnTest, BoundedStalenessCutsCommKeepsAccuracy) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig bsp;
  bsp.epochs = 40;
  DistGcnConfig stale = bsp;
  stale.sync = SyncMode::kBoundedStaleness;
  stale.staleness_bound = 4;
  DistGcnReport rb = TrainDistGcn(ds, bsp);
  DistGcnReport rs = TrainDistGcn(ds, stale);
  EXPECT_LT(rs.comm_bytes, rb.comm_bytes);
  EXPECT_GT(rs.broadcasts_skipped, 0u);
  EXPECT_GT(rs.final_test_accuracy, rb.final_test_accuracy - 0.1);
}

TEST(DistGcnTest, SancusSkipsBroadcastsAdaptively) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig config;
  config.epochs = 40;
  config.sync = SyncMode::kSancus;
  config.sancus_drift_threshold = 0.1;
  DistGcnReport report = TrainDistGcn(ds, config);
  EXPECT_GT(report.broadcasts_skipped, 0u);
  EXPECT_GT(report.final_test_accuracy, 0.7);
}

TEST(DistGcnTest, QuantizationCutsBytesAtSmallAccuracyCost) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig fp32;
  fp32.epochs = 40;
  DistGcnConfig int8 = fp32;
  int8.quantization = Quantization::kInt8;
  DistGcnReport r32 = TrainDistGcn(ds, fp32);
  DistGcnReport r8 = TrainDistGcn(ds, int8);
  // int8 payload is 1/4 of fp32 plus 8B/row scale metadata, so with
  // 16-wide activations the wire ratio lands near 37%.
  EXPECT_LT(r8.comm_bytes, r32.comm_bytes * 2 / 5);
  EXPECT_GT(r8.final_test_accuracy, r32.final_test_accuracy - 0.08);
}

TEST(DistGcnTest, P3SplitChangesLayer0Traffic) {
  PlantedDatasetOptions opt;
  opt.num_vertices = 300;
  opt.feature_dim = 128;  // fat features: P3's sweet spot
  NodeClassificationDataset ds = MakePlantedDataset(opt);
  DistGcnConfig base;
  base.epochs = 5;
  base.hidden_dim = 8;
  DistGcnConfig p3 = base;
  p3.p3_feature_split = true;
  DistGcnReport rb = TrainDistGcn(ds, base);
  DistGcnReport rp = TrainDistGcn(ds, p3);
  // Identical math => the same learning curve, bit for bit.
  ExpectSameTraining(rb, rp, "P3");
  // Fat raw features dominate the halo traffic; P3 avoids shipping them.
  EXPECT_LT(rp.comm_bytes, rb.comm_bytes);
}

TEST(DistGcnTest, SingleWorkerHasZeroCommunication) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig config;
  config.num_workers = 1;
  config.epochs = 5;
  DistGcnReport r = TrainDistGcn(ds, config);
  EXPECT_EQ(r.comm_bytes, 0u);
  EXPECT_EQ(r.edge_cut, 0u);
  EXPECT_EQ(r.halo_rows_exchanged, 0u);
}

TEST(DistGcnTest, WorkerCountDoesNotChangeTheMathUnderBsp) {
  // BSP with fp32 exchanges fresh values every epoch: the computation
  // is exactly the centralized one regardless of the worker count.
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig one;
  one.num_workers = 1;
  one.epochs = 8;
  DistGcnConfig four = one;
  four.num_workers = 4;
  DistGcnReport a = TrainDistGcn(ds, one);
  DistGcnReport b = TrainDistGcn(ds, four);
  ExpectSameTraining(a, b, "W=4");
}

TEST(DistGcnTest, BspEqualsTheCentralizedTrainerAtEveryPlacement) {
  // The centralized reference: the same GCN, Adam, dims, seed and lr
  // under the exact in-memory aggregator. BSP on a lossless wire must
  // reproduce it epoch by epoch at every worker count and partitioner,
  // with and without P3's layer-0 feature split.
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig config;
  config.epochs = 6;
  config.hidden_dim = 8;
  GcnConfig model_config;
  model_config.dims = {ds.features.cols(), config.hidden_dim,
                       ds.num_classes};
  model_config.seed = config.seed;
  GcnModel model(model_config);
  const SparseMatrix adj = NormalizedAdjacency(ds.graph, AdjNorm::kSymmetric);
  TrainConfig train;
  train.epochs = config.epochs;
  train.lr = config.lr;
  const TrainReport ref =
      TrainNodeClassifier(model, ds.features, ds.labels, ds.train_mask,
                          ds.test_mask, ExactAggregator(&adj), train);
  DistGcnReport centralized;
  for (const EpochMetrics& m : ref.epochs) {
    centralized.epoch_loss.push_back(m.loss);
    centralized.epoch_test_accuracy.push_back(m.test_accuracy);
  }
  centralized.final_test_accuracy = ref.final_test_accuracy;

  for (uint32_t workers : {1u, 2u, 4u}) {
    for (PartitionScheme scheme :
         {PartitionScheme::kHash, PartitionScheme::kRange,
          PartitionScheme::kLdg, PartitionScheme::kMultilevel,
          PartitionScheme::kBfsVoronoi}) {
      for (bool p3 : {false, true}) {
        config.num_workers = workers;
        config.partition = scheme;
        config.p3_feature_split = p3;
        ExpectSameTraining(centralized, TrainDistGcn(ds, config),
                           std::string(PartitionSchemeName(scheme)) +
                               " W=" + std::to_string(workers) +
                               (p3 ? " P3" : ""));
      }
    }
  }
}

TEST(DistGcnTest, OverlapReducesSimulatedTime) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig serial;
  serial.epochs = 10;
  // simulated_epoch_seconds mixes *measured* compute with modeled comm,
  // and the two runs measure compute independently; throttle the wire so
  // the deterministic comm term dominates host-load jitter in compute.
  serial.network.bandwidth_bytes_per_sec = 1e6;
  DistGcnConfig overlap = serial;
  overlap.overlap_comm_compute = true;
  DistGcnReport rs = TrainDistGcn(ds, serial);
  DistGcnReport ro = TrainDistGcn(ds, overlap);
  EXPECT_LE(ro.simulated_epoch_seconds, rs.simulated_epoch_seconds);
}

TEST(DistGcnTest, ReportExposesTracesAndOverlapOccupancy) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig config;
  config.epochs = 6;
  config.overlap_comm_compute = true;
  DistGcnReport r = TrainDistGcn(ds, config);
  // Per-round traces (every epoch, then the final evaluation pass) back
  // the modeled overlap and are re-modelable.
  ASSERT_EQ(r.epoch_compute_trace.size(), config.epochs + 1);
  ASSERT_EQ(r.epoch_comm_bytes.size(), config.epochs + 1);
  ASSERT_EQ(r.epoch_comm_messages.size(), config.epochs + 1);
  // {compute, comm} occupancy of the modeled overlap pipeline.
  ASSERT_EQ(r.overlap_stage_occupancy.size(), 2u);
  for (double occ : r.overlap_stage_occupancy) {
    EXPECT_GT(occ, 0.0);
    EXPECT_LE(occ, 1.0 + 1e-12);
  }
  // Re-modeling from the exposed traces reproduces the report's number.
  std::vector<ModeledStageSpec> stages = {
      {"compute", r.epoch_compute_trace, 1},
      ModeledNetworkStage("comm", config.network, r.epoch_comm_bytes,
                          r.epoch_comm_messages, config.comm_channels),
  };
  ModeledPipelineResult m = ModelPipelineSchedule(stages);
  EXPECT_NEAR(m.pipelined_seconds, r.modeled_overlap_epoch_seconds, 1e-9);
}

TEST(DistGcnTest, CommChannelsRelieveCommBoundOverlap) {
  NodeClassificationDataset ds = SmallDataset();
  DistGcnConfig slow;
  slow.epochs = 6;
  slow.overlap_comm_compute = true;
  // Throttle the wire so the modeled overlap is comm-bound.
  slow.network.bandwidth_bytes_per_sec = 1e6;
  DistGcnConfig twochan = slow;
  twochan.comm_channels = 2;
  DistGcnReport a = TrainDistGcn(ds, slow);
  DistGcnReport b = TrainDistGcn(ds, twochan);
  EXPECT_EQ(a.overlap_bottleneck_stage, 1u);  // comm
  // The math is unchanged — only the modeled schedule differs.
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
  EXPECT_LT(b.modeled_overlap_epoch_seconds,
            a.modeled_overlap_epoch_seconds);
}

}  // namespace
}  // namespace gal
