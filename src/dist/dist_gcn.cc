#include "dist/dist_gcn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_set>

#include "cluster/round_barrier.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "dist/pipeline.h"
#include "nn/gcn.h"
#include "nn/optimizer.h"
#include "tensor/kernel_context.h"
#include "tensor/sparse.h"

namespace gal {

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kHash: return "hash";
    case PartitionScheme::kRange: return "range";
    case PartitionScheme::kLdg: return "ldg";
    case PartitionScheme::kMultilevel: return "multilevel";
    case PartitionScheme::kBfsVoronoi: return "bfs-voronoi";
  }
  return "?";
}

const char* SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kBsp: return "bsp";
    case SyncMode::kBoundedStaleness: return "bounded-staleness";
    case SyncMode::kSancus: return "sancus";
  }
  return "?";
}

const char* QuantizationName(Quantization scheme) {
  switch (scheme) {
    case Quantization::kNone: return "fp32";
    case Quantization::kFp16: return "fp16";
    case Quantization::kInt8: return "int8";
    case Quantization::kInt4: return "int4";
  }
  return "?";
}

VertexPartition MakePartition(const Graph& g, PartitionScheme scheme,
                              uint32_t num_parts,
                              const std::vector<VertexId>& seeds) {
  switch (scheme) {
    case PartitionScheme::kHash:
      return HashPartition(g, num_parts);
    case PartitionScheme::kRange:
      return RangePartition(g, num_parts);
    case PartitionScheme::kLdg:
      return LdgPartition(g, num_parts);
    case PartitionScheme::kMultilevel:
      return MultilevelPartition(g, num_parts);
    case PartitionScheme::kBfsVoronoi:
      return BfsVoronoiPartition(g, num_parts, seeds);
  }
  return HashPartition(g, num_parts);
}

std::vector<std::vector<VertexId>> ComputeHalos(const Graph& g,
                                                const VertexPartition& parts) {
  std::vector<std::unordered_set<VertexId>> halo_sets(parts.num_parts);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint32_t owner = parts.assignment[v];
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (parts.assignment[u] != owner) halo_sets[owner].insert(u);
    });
  }
  std::vector<std::vector<VertexId>> halos(parts.num_parts);
  for (uint32_t w = 0; w < parts.num_parts; ++w) {
    halos[w].assign(halo_sets[w].begin(), halo_sets[w].end());
    std::sort(halos[w].begin(), halos[w].end());
  }
  return halos;
}

DistGcnReport TrainDistGcn(const NodeClassificationDataset& dataset,
                           const DistGcnConfig& config) {
  DistGcnReport report;
  const Graph& g = dataset.graph;

  // The simulated-cluster substrate: a caller-shared runtime puts this
  // job's traffic on the same ledger/clock as TLAV and TLAG jobs; the
  // private fallback keeps standalone runs self-contained.
  std::unique_ptr<ClusterRuntime> owned_cluster;
  ClusterRuntime* cluster = config.cluster;
  if (cluster == nullptr) {
    owned_cluster = std::make_unique<ClusterRuntime>(
        ClusterOptions{config.num_workers, config.network});
    cluster = owned_cluster.get();
  }
  const uint32_t num_workers = cluster->num_workers();
  const NetworkCostModel cost = cluster->cost_model();
  TrafficLedger& ledger = cluster->ledger();

  // Halo volume, cluster placement and edge cut follow `parts`, at the
  // start and after every migration; the operator does not.
  const SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  VertexPartition parts = MakePartition(g, config.partition, num_workers,
                                        dataset.TrainVertices());
  uint64_t halo_rows_per_exchange = 0;
  auto place = [&] {
    halo_rows_per_exchange = 0;
    for (const auto& h : ComputeHalos(g, parts)) {
      halo_rows_per_exchange += h.size();
    }
    cluster->InstallPartition(parts);
    report.edge_cut = EvaluatePartition(g, parts).edge_cut;
  };
  place();

  GcnConfig model_config;
  model_config.dims = {dataset.features.cols(), config.hidden_dim,
                       dataset.num_classes};
  model_config.seed = config.seed;
  GcnModel model(model_config);
  Adam opt(config.lr);
  opt.Attach(model.Parameters());

  // The state a halo exchange carries into a later epoch: the
  // receivers' view where the sync mode may skip a refresh (bounded
  // staleness, Sancus), and the sender's residual under EC. BSP without
  // EC refreshes every exchange and keeps neither. Forward layer l is
  // slot l, backward layer l slot num_layers + l; only an exchange that
  // runs keeps state, so backward layer 0 (GcnModel::Backward stops
  // before it) and forward layer 0 under P3 (it all-reduces instead)
  // keep none.
  const uint32_t num_layers = model.num_layers();
  std::vector<std::optional<Matrix>> views(2 * num_layers);
  std::vector<std::optional<ErrorCompensatedCodec>> codecs(2 * num_layers);
  auto keep = [&](uint32_t slot) {
    if (config.sync != SyncMode::kBsp) views[slot].emplace();
    if (config.error_compensation) codecs[slot].emplace(config.quantization);
  };
  if (!config.p3_feature_split) keep(0);
  for (uint32_t l = 1; l < num_layers; ++l) {
    keep(l);
    keep(num_layers + l);
  }

  uint32_t epoch = 0;

  // --- elastic cluster runtime: checkpoint serialization ----------------
  // The recovery-relevant trainer state is the model weights, the Adam
  // step count + moments, and the kept views and residuals. Training is
  // epoch-deterministic given that state, so a rollback + replay
  // reproduces the failure-free run bit-for-bit.
  auto write_matrix = [](BlobWriter& w, const Matrix& m) {
    w.Pod<uint32_t>(m.rows());
    w.Pod<uint32_t>(m.cols());
    w.Vec(m.data());
  };
  auto read_matrix = [](BlobReader& r) {
    const uint32_t rows = r.Pod<uint32_t>();
    const uint32_t cols = r.Pod<uint32_t>();
    Matrix m(rows, cols);
    std::vector<float> data = r.Vec<float>();
    GAL_CHECK(data.size() == m.size()) << "checkpoint matrix shape mismatch";
    m.data() = std::move(data);
    return m;
  };
  auto save_state = [&](BlobWriter& w) {
    for (const Matrix* p : model.Parameters()) write_matrix(w, *p);
    w.Pod<uint64_t>(opt.step_count());
    w.Pod<uint64_t>(opt.first_moments().size());
    for (const Matrix& m : opt.first_moments()) write_matrix(w, m);
    for (const Matrix& m : opt.second_moments()) write_matrix(w, m);
    for (const std::optional<Matrix>& view : views) {
      if (view) write_matrix(w, *view);
    }
    for (const std::optional<ErrorCompensatedCodec>& codec : codecs) {
      if (codec) write_matrix(w, codec->residual());
    }
  };
  auto load_state = [&](BlobReader& r) {
    for (Matrix* p : model.Parameters()) *p = read_matrix(r);
    const uint64_t t = r.Pod<uint64_t>();
    const uint64_t moments = r.Pod<uint64_t>();
    std::vector<Matrix> m(moments);
    std::vector<Matrix> v(moments);
    for (Matrix& mm : m) mm = read_matrix(r);
    for (Matrix& vv : v) vv = read_matrix(r);
    opt.RestoreState(t, std::move(m), std::move(v));
    for (std::optional<Matrix>& view : views) {
      if (view) view = read_matrix(r);
    }
    for (std::optional<ErrorCompensatedCodec>& codec : codecs) {
      if (codec) codec->set_residual(read_matrix(r));
    }
  };

  // Charges one cluster-wide halo exchange of `mat` to the ledger.
  auto charge_exchange = [&](uint32_t cols) {
    // Receiver-side accounting: each worker receives its halo rows from
    // the owners; we charge the aggregate volume on a ring of pairs.
    const uint64_t bytes = WireBytes(
        config.quantization, static_cast<uint32_t>(halo_rows_per_exchange),
        cols);
    // Spread across worker pairs for the ledger (volume is what
    // matters for the benches; per-pair split is uniform). At W=1 the
    // ring charge is src==dst, which the ledger books as local — the
    // single-worker run stays communication-free on the wire.
    for (uint32_t w = 0; w < num_workers; ++w) {
      ledger.Charge(w, (w + 1) % num_workers,
                    bytes / std::max(1u, num_workers));
    }
    report.halo_rows_exchanged += halo_rows_per_exchange;
    ++report.broadcasts_sent;
  };

  // Policy: does this epoch refresh a kept view? Epoch 0 is every
  // view's first exchange, so it always does.
  auto should_refresh = [&](const Matrix& view, const Matrix& fresh) -> bool {
    if (epoch == 0) return true;
    if (config.sync == SyncMode::kBoundedStaleness) {
      return epoch % std::max(1u, config.staleness_bound) == 0;
    }
    // Sancus: drift of the fresh activations vs the last broadcast copy,
    // relative to the activation scale.
    const double drift = fresh.MeanAbsDiff(view);
    double scale = 0.0;
    for (float v : fresh.data()) scale += std::abs(v);
    scale = fresh.size() ? scale / static_cast<double>(fresh.size()) : 0.0;
    return drift > config.sancus_drift_threshold * std::max(scale, 1e-12);
  };

  // BSP on a lossless wire: every received row equals its sender's
  // fresh row, so aggregation is the centralized Â·H at any placement.
  // Every other mode aggregates what a worker really holds: its own
  // fresh rows and the received (stale, quantized or compensated) halo.
  const bool lossless = config.sync == SyncMode::kBsp &&
                        config.quantization == Quantization::kNone &&
                        !config.error_compensation;
  AggregateFn aggregate = [&](const Matrix& h, uint32_t layer,
                              bool backward) -> Matrix {
    if (!backward && layer == 0 && config.p3_feature_split) {
      // P3 hybrid parallelism: features are dimension-partitioned, so no
      // raw-feature halo exchange happens at all; instead each worker
      // produces a partial (|V| x hidden) aggregate that is all-reduced.
      // Every worker reads fresh features, so the math is Â·H; only the
      // traffic differs.
      const uint64_t partial_bytes = static_cast<uint64_t>(g.NumVertices()) *
                                     config.hidden_dim * sizeof(float);
      // Ring all-reduce: 2 (W-1)/W of the payload per worker.
      for (uint32_t w = 0; w < num_workers; ++w) {
        ledger.Charge(w, (w + 1) % num_workers,
                      2 * partial_bytes * (num_workers - 1) /
                          std::max(1u, num_workers));
      }
      ++report.broadcasts_sent;
      return adj.Multiply(h);
    }
    auto gather = [&](const Matrix& received) {
      return backward ? adj.TransposeMultiply(h, received, parts.assignment)
                      : adj.Multiply(h, received, parts.assignment);
    };
    const uint32_t slot = backward * num_layers + layer;
    std::optional<Matrix>& view = views[slot];
    if (view && !should_refresh(*view, h)) {
      ++report.broadcasts_skipped;
      return gather(*view);
    }
    charge_exchange(h.cols());
    if (lossless) {
      return backward ? adj.TransposeMultiply(h) : adj.Multiply(h);
    }
    Matrix received = codecs[slot] ? codecs[slot]->Transmit(h)
                                   : QuantizeDequantize(h, config.quantization);
    if (!view) return gather(received);
    *view = std::move(received);
    return gather(*view);
  };

  // Per-epoch span histograms: the GNN "stages" of one training step.
  Histogram forward_hist;
  Histogram backward_hist;
  Histogram step_hist;
  // Kernel-class attribution: pre-warm the shared pool so worker spawn
  // lands outside the timed epochs, and restart the per-kernel spans so
  // report.kernel_timings covers exactly this run.
  KernelContext& kernel_ctx = KernelContext::Get();
  kernel_ctx.ResetKernelStats();
  // Each epoch is one round on the shared RoundBarrier: the data-parallel
  // compute share and the ledger's cross-worker delta on the clock, then
  // checkpoint, failure and rebalance. The clock's recorded rounds are
  // replayed through the modeled pipeline executor (ModelClusterOverlap)
  // after training and also kept on the report as traces for benches.
  RoundBarrier barrier(cluster, config.faults);
  // Data-parallel compute: each worker handles ~1/W of the rows.
  auto add_compute = [&](const Timer& timer) {
    const double share = timer.ElapsedSeconds() / num_workers;
    for (uint32_t w = 0; w < num_workers; ++w) barrier.AddCompute(w, share);
  };
  RoundBarrier::Hooks hooks{save_state, load_state, nullptr, nullptr};
  // Rebalancing applies only where migrating vertices cannot change the
  // math: on a lossless BSP wire (P3 included) training does not depend
  // on placement. Under staleness, lossy codecs or EC the partition
  // decides which rows a worker reads stale or lossy, so those configs
  // keep their partition and rely on checkpoints alone.
  if (lossless) {
    hooks.migrate = [&](uint32_t from) {
      std::vector<VertexId> moved;
      parts = RebalanceAway(g, parts, from, &moved);
      place();
      return moved;
    };
    // Moved state on the wire: each vertex's raw feature row ships to
    // its new owner (embeddings are recomputed, not shipped).
    const uint64_t row_bytes =
        static_cast<uint64_t>(dataset.features.cols()) * sizeof(float);
    hooks.vertex_bytes = [row_bytes](VertexId) { return row_bytes; };
  }
  barrier.Start(std::move(hooks));
  // `epoch` follows the barrier, which rewinds it on a rollback.
  while ((epoch = barrier.round()) < config.epochs) {
    Timer compute_timer;
    Matrix logits = [&] {
      ScopedSpan span(&forward_hist);
      return model.Forward(dataset.features, aggregate);
    }();
    SoftmaxXentResult train =
        SoftmaxCrossEntropy(logits, dataset.labels, dataset.train_mask);
    std::vector<Matrix> grads = [&] {
      ScopedSpan span(&backward_hist);
      return model.Backward(train.grad, aggregate);
    }();
    {
      ScopedSpan span(&step_hist);
      opt.Step(grads);
    }
    add_compute(compute_timer);

    SoftmaxXentResult test =
        SoftmaxCrossEntropy(logits, dataset.labels, dataset.test_mask);
    report.epoch_loss.push_back(train.loss);
    report.epoch_test_accuracy.push_back(
        test.total ? static_cast<double>(test.correct) / test.total : 0.0);
    if (!barrier.EndRound()) {
      report.epoch_loss.resize(barrier.round());
      report.epoch_test_accuracy.resize(barrier.round());
    }
  }

  const FaultStats& fault_stats = barrier.fault_stats();
  report.checkpoints_taken = fault_stats.checkpoints_taken;
  report.checkpoint_bytes = fault_stats.checkpoint_bytes;
  report.restored_bytes = fault_stats.restored_bytes;
  report.failures_recovered = fault_stats.failures_recovered;
  report.recomputed_epochs = fault_stats.recomputed_rounds;
  report.rebalances = fault_stats.rebalances;
  report.migration_bytes = fault_stats.migration_bytes;

  report.stage_timings = {
      StageTimingStat::FromHistogram("forward", forward_hist),
      StageTimingStat::FromHistogram("backward", backward_hist),
      StageTimingStat::FromHistogram("step", step_hist),
  };
  report.kernel_timings = kernel_ctx.KernelStats();

  // The final evaluation exchanges halos like an epoch's forward pass,
  // so it is one more clock round, but no checkpoint, failure or
  // rebalance point.
  Timer eval_timer;
  Matrix logits = model.Forward(dataset.features, aggregate);
  add_compute(eval_timer);
  barrier.PriceRound();
  SoftmaxXentResult test =
      SoftmaxCrossEntropy(logits, dataset.labels, dataset.test_mask);
  report.final_test_accuracy =
      test.total ? static_cast<double>(test.correct) / test.total : 0.0;
  report.comm_bytes = barrier.Traffic().cross_bytes;

  // Everything timing-related below derives from the clock's recorded
  // rounds — the report's traces, totals, and overlap numbers all read
  // one trace, and a caller-shared clock attributes only this job's
  // rounds.
  const std::vector<ClusterRound> rounds = barrier.Rounds();
  for (const ClusterRound& r : rounds) {
    report.compute_seconds += r.compute_seconds;
    report.comm_seconds += r.comm_seconds;
    report.epoch_compute_trace.push_back(r.compute_seconds);
    report.epoch_comm_bytes.push_back(r.comm_bytes);
    report.epoch_comm_messages.push_back(r.comm_messages);
  }
  // Epochs flow through the 2-stage compute -> comm modeled pipeline;
  // the comm stage is a modeled network stage charged NetworkCostModel
  // time for each round's recorded traffic, on `comm_channels` modeled
  // executors. The modeled makespan is what a pipelined system
  // (P3/Dorylus-style overlap) would pay, regardless of this host's
  // core count.
  ModeledPipelineResult overlap =
      ModelClusterOverlap(rounds, cost, std::max(1u, config.comm_channels));
  report.simulated_epoch_seconds = overlap.serial_seconds;
  report.modeled_overlap_epoch_seconds = overlap.pipelined_seconds;
  report.modeled_overlap_speedup = overlap.speedup;
  report.overlap_bottleneck_stage =
      static_cast<uint32_t>(overlap.bottleneck_stage);
  report.overlap_stage_occupancy = overlap.stage_occupancy;
  return report;
}

}  // namespace gal
