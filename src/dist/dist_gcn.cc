#include "dist/dist_gcn.h"

#include <algorithm>
#include <cmath>
#include <memory>
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

namespace {

/// Splits the normalized adjacency into intra-worker and cross-worker
/// entry sets, so aggregation can mix fresh local rows with
/// policy-transformed remote rows.
void SplitAdjacency(const Graph& g, const VertexPartition& parts,
                    AdjNorm norm, SparseMatrix* local, SparseMatrix* remote) {
  const uint32_t n = g.NumVertices();
  SparseMatrix full = NormalizedAdjacency(g, norm);
  std::vector<std::tuple<uint32_t, uint32_t, float>> local_t;
  std::vector<std::tuple<uint32_t, uint32_t, float>> remote_t;
  for (uint32_t r = 0; r < n; ++r) {
    const auto idx = full.RowIndices(r);
    const auto val = full.RowValues(r);
    for (size_t e = 0; e < idx.size(); ++e) {
      if (parts.assignment[r] == parts.assignment[idx[e]]) {
        local_t.emplace_back(r, idx[e], val[e]);
      } else {
        remote_t.emplace_back(r, idx[e], val[e]);
      }
    }
  }
  *local = SparseMatrix::FromTriplets(n, n, std::move(local_t));
  *remote = SparseMatrix::FromTriplets(n, n, std::move(remote_t));
}

/// Per-(layer, direction) stale store + codec state. (Not to be confused
/// with the cluster ExchangeChannel<M>, which moves typed BSP messages —
/// this is the *staleness* side of a halo exchange: the receiver-view
/// copy a sync policy may decline to refresh.)
struct StaleChannel {
  Matrix stale;              // last transmitted version (receiver view)
  bool initialized = false;
  std::unique_ptr<ErrorCompensatedCodec> codec;  // when EC is on
};

}  // namespace

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

  // Halo volume, adjacency split, cluster placement and edge cut follow
  // `parts`, at the start and after every migration.
  VertexPartition parts = MakePartition(g, config.partition, num_workers,
                                        dataset.TrainVertices());
  uint64_t halo_rows_per_exchange = 0;
  SparseMatrix adj_local;
  SparseMatrix adj_remote;
  auto place = [&] {
    halo_rows_per_exchange = 0;
    for (const auto& h : ComputeHalos(g, parts)) {
      halo_rows_per_exchange += h.size();
    }
    SplitAdjacency(g, parts, AdjNorm::kSymmetric, &adj_local, &adj_remote);
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

  const uint32_t num_layers = model.num_layers();
  std::vector<StaleChannel> forward_channels(num_layers);
  std::vector<StaleChannel> backward_channels(num_layers);
  if (config.error_compensation) {
    for (uint32_t l = 0; l < num_layers; ++l) {
      forward_channels[l].codec =
          std::make_unique<ErrorCompensatedCodec>(config.quantization);
      backward_channels[l].codec =
          std::make_unique<ErrorCompensatedCodec>(config.quantization);
    }
  }

  uint32_t epoch = 0;

  // --- elastic cluster runtime: checkpoint serialization ----------------
  // The recovery-relevant trainer state is the model weights, the Adam
  // step count + moments, and every stale channel (its receiver-view
  // matrix, initialized flag, and — under EC — the codec's carried
  // residual). Training is epoch-deterministic given that state, so a
  // rollback + replay reproduces the failure-free run bit-for-bit.
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
    auto write_channels = [&](const std::vector<StaleChannel>& channels) {
      for (const StaleChannel& ch : channels) {
        w.Pod<uint8_t>(ch.initialized ? 1 : 0);
        write_matrix(w, ch.stale);
        if (ch.codec != nullptr) write_matrix(w, ch.codec->residual());
      }
    };
    write_channels(forward_channels);
    write_channels(backward_channels);
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
    auto read_channels = [&](std::vector<StaleChannel>& channels) {
      for (StaleChannel& ch : channels) {
        ch.initialized = r.Pod<uint8_t>() != 0;
        ch.stale = read_matrix(r);
        if (ch.codec != nullptr) ch.codec->set_residual(read_matrix(r));
      }
    };
    read_channels(forward_channels);
    read_channels(backward_channels);
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

  // Policy: should this (epoch, channel) refresh its stale copy?
  auto should_refresh = [&](const StaleChannel& ch,
                            const Matrix& fresh) -> bool {
    if (!ch.initialized) return true;
    switch (config.sync) {
      case SyncMode::kBsp:
        return true;
      case SyncMode::kBoundedStaleness:
        return epoch % std::max(1u, config.staleness_bound) == 0;
      case SyncMode::kSancus: {
        // Drift of the fresh activations vs the last broadcast copy,
        // relative to the activation scale.
        const double drift = fresh.MeanAbsDiff(ch.stale);
        double scale = 0.0;
        for (float v : fresh.data()) scale += std::abs(v);
        scale = fresh.size() ? scale / static_cast<double>(fresh.size()) : 0.0;
        return drift > config.sancus_drift_threshold * std::max(scale, 1e-12);
      }
    }
    return true;
  };

  auto exchange = [&](StaleChannel& ch, const Matrix& fresh) -> Matrix* {
    if (should_refresh(ch, fresh)) {
      Matrix received = ch.codec
                            ? ch.codec->Transmit(fresh)
                            : QuantizeDequantize(fresh, config.quantization);
      ch.stale = std::move(received);
      ch.initialized = true;
      charge_exchange(fresh.cols());
    } else {
      ++report.broadcasts_skipped;
    }
    return &ch.stale;
  };

  AggregateFn aggregate = [&](const Matrix& h, uint32_t layer,
                              bool backward) -> Matrix {
    StaleChannel& ch =
        backward ? backward_channels[layer] : forward_channels[layer];
    if (!backward && layer == 0 && config.p3_feature_split) {
      // P3 hybrid parallelism: features are dimension-partitioned, so no
      // raw-feature halo exchange happens at all; instead each worker
      // produces a partial (|V| x hidden) aggregate that is all-reduced.
      // The math is identical (Σ_w Â H[:,w] W[w,:] = Â H W); only the
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
      Matrix out = adj_local.Multiply(h);
      out.AddScaled(adj_remote.Multiply(h), 1.0f);  // exact: Σ partials
      return out;
    }
    Matrix* remote_view = exchange(ch, h);
    Matrix out = backward ? adj_local.TransposeMultiply(h)
                          : adj_local.Multiply(h);
    Matrix remote_part = backward
                             ? adj_remote.TransposeMultiply(*remote_view)
                             : adj_remote.Multiply(*remote_view);
    out.AddScaled(remote_part, 1.0f);
    return out;
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
  // Rebalancing applies only when migrating vertices cannot change the
  // math: under staleness, lossy wires, EC residuals, or P3's dimension
  // split, the set of values crossing the wire depends on the partition,
  // so a migration would perturb training — those configs keep their
  // partition and rely on checkpoints alone.
  if (config.sync == SyncMode::kBsp &&
      config.quantization == Quantization::kNone &&
      !config.error_compensation && !config.p3_feature_split) {
    hooks.migrate = [&](uint32_t from, double fraction) {
      std::vector<VertexId> moved;
      parts = RebalanceAway(g, parts, from, fraction, &moved);
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
  report.simulated_epoch_seconds = config.overlap_comm_compute
                                       ? overlap.pipelined_seconds
                                       : overlap.serial_seconds;
  report.modeled_overlap_epoch_seconds = overlap.pipelined_seconds;
  report.modeled_overlap_speedup = overlap.speedup;
  report.overlap_bottleneck_stage =
      static_cast<uint32_t>(overlap.bottleneck_stage);
  report.overlap_stage_occupancy = overlap.stage_occupancy;
  return report;
}

}  // namespace gal
