#include "frontier/traversal.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "cluster/checkpoint.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "frontier/frontier.h"
#include "partition/partition.h"

namespace gal {
namespace {

constexpr uint32_t kUnvisited = std::numeric_limits<uint32_t>::max();

/// Per-worker counters a worker updates without synchronization.
struct alignas(64) StepCounters {
  uint64_t edges = 0;
  uint64_t messages = 0;
  uint64_t active = 0;
};

/// What a traversal checkpoints besides its frontier — everything else
/// the next step reads — and the per-vertex state bytes a migration
/// ships.
struct TraversalState {
  std::function<void(BlobWriter&)> save;
  std::function<void(BlobReader&)> load;
  uint64_t vertex_bytes = 0;
};

/// The simulated-cluster scaffolding every frontier traversal shares:
/// worker count and partition resolution, per-worker vertex buckets, the
/// ledger/clock bookkeeping of one step, and the RecoverySession hooks
/// at each step barrier.
class FrontierRuntime {
 public:
  /// `payload_bytes` is sizeof one logical message: what a send adds to
  /// TlavStats::total_message_bytes, and the wire size before the
  /// config's per-message envelope.
  FrontierRuntime(const Graph& g, const TlavConfig& config,
                  uint64_t payload_bytes, TlavStats& stats)
      : g_(g),
        owned_(config.cluster == nullptr
                   ? std::make_unique<ClusterRuntime>(ClusterOptions{
                         ResolveClusterWorkers(config.num_workers),
                         NetworkCostModel{}})
                   : nullptr),
        cluster_(config.cluster != nullptr ? config.cluster : owned_.get()),
        workers_(cluster_->num_workers()),
        max_steps_(config.max_supersteps),
        payload_bytes_(payload_bytes),
        wire_message_bytes_(payload_bytes + config.message_overhead_bytes),
        partition_(HashPartition(g, workers_)),
        pool_(std::min(workers_, ResolveTaskThreads(0))),
        session_(cluster_, config.faults),
        stats_(stats),
        ledger_start_(cluster_->ledger().Snapshot()),
        clock_start_(cluster_->clock().rounds()),
        owned_vertices_(workers_),
        counters_(workers_),
        wire_msgs_(workers_, std::vector<uint64_t>(workers_, 0)),
        compute_seconds_(workers_, 0.0) {
    GAL_CHECK_OK(CheckFrontierConfig(config));
    stats_ = TlavStats{};
    cluster_->InstallPartition(partition_);
    AssignOwnedVertices();
  }

  uint32_t workers() const { return workers_; }
  uint32_t OwnerOf(VertexId v) const { return partition_.assignment[v]; }
  const std::vector<VertexId>& OwnedVertices(uint32_t w) const {
    return owned_vertices_[w];
  }
  /// 0-based index of the step about to run (rewinds on a rollback).
  uint32_t step() const { return step_; }

  /// Registers the traversal's recoverable state and, when the fault
  /// plan schedules a failure, snapshots it as the pre-step-0 rollback
  /// target.
  void Start(VertexFrontier* frontier, TraversalState state) {
    frontier_ = frontier;
    state_ = std::move(state);
    if (session_.WantsInitialCheckpoint()) {
      session_.Commit(RecoverySession::kInitialRound, Snapshot());
    }
  }

  /// Whether another step runs: the frontier is non-empty and the
  /// max_supersteps bound is not reached.
  bool Running() const { return !frontier_->Empty() && step_ < max_steps_; }

  /// Runs fn(w) on every simulated worker (host threads are an
  /// execution detail) and accumulates per-worker wall time for the
  /// virtual clock.
  void ForEachWorker(const std::function<void(uint32_t)>& fn) {
    pool_.ParallelFor(workers_, [&](size_t w) {
      Timer t;
      fn(static_cast<uint32_t>(w));
      compute_seconds_[w] += t.ElapsedSeconds();
    });
  }

  StepCounters& counters(uint32_t w) { return counters_[w]; }
  /// Counts one wire message from src to dst (no-op when src == dst —
  /// local handoffs are free on the wire).
  void CountWire(uint32_t src, uint32_t dst) {
    if (src != dst) ++wire_msgs_[src][dst];
  }

  void BeginStep() {
    for (StepCounters& c : counters_) c = StepCounters{};
    for (auto& row : wire_msgs_) std::fill(row.begin(), row.end(), 0);
    std::fill(compute_seconds_.begin(), compute_seconds_.end(), 0.0);
    extra_wire_bytes_ = 0;
    extra_wire_msgs_ = 0;
  }

  /// Charges an all-to-all broadcast of `bytes_per_pair` from every
  /// worker to every other — the frontier-bitmap shipment that lets a
  /// pull step test membership locally instead of messaging per edge.
  void ChargeBroadcast(uint64_t bytes_per_pair) {
    TrafficLedger& ledger = cluster_->ledger();
    for (uint32_t src = 0; src < workers_; ++src) {
      for (uint32_t dst = 0; dst < workers_; ++dst) {
        if (src == dst) continue;
        ledger.Charge(src, dst, bytes_per_pair, 1);
        extra_wire_bytes_ += bytes_per_pair;
        ++extra_wire_msgs_;
      }
    }
  }

  /// The step barrier, in the hook order every engine shares
  /// (cluster/checkpoint.h): straggler scaling, the step's ledger charges
  /// and clock round, the per-step stats, then checkpoint, failure
  /// rollback and rebalancing. Call it after the next frontier is swapped
  /// in, so a snapshot holds exactly what the next step reads and a
  /// replay repeats the clean run's direction schedule and ledger.
  void EndStep(Direction dir) {
    uint64_t edges = 0, messages = 0, active = 0;
    for (const StepCounters& c : counters_) {
      edges += c.edges;
      messages += c.messages;
      active += c.active;
    }
    session_.ScaleCompute(step_, std::span<double>(compute_seconds_));
    TrafficLedger& ledger = cluster_->ledger();
    uint64_t wire_messages = extra_wire_msgs_;
    uint64_t wire_bytes = extra_wire_bytes_;
    for (uint32_t src = 0; src < workers_; ++src) {
      for (uint32_t dst = 0; dst < workers_; ++dst) {
        const uint64_t msgs = wire_msgs_[src][dst];
        if (msgs == 0) continue;
        ledger.Charge(src, dst, msgs * wire_message_bytes_, msgs);
        wire_messages += msgs;
        wire_bytes += msgs * wire_message_bytes_;
      }
    }
    cluster_->clock().AdvanceRound(std::span<const double>(compute_seconds_),
                                   wire_bytes, wire_messages);
    stats_.edge_scans += edges;
    stats_.total_messages += messages;
    stats_.vertex_activations += active;
    if (dir == Direction::kPull) ++stats_.pull_supersteps;
    stats_.per_step.push_back({active, messages});

    if (session_.ShouldCheckpoint(step_)) session_.Commit(step_, Snapshot());
    uint32_t resume = 0;
    if (const std::vector<uint8_t>* blob = session_.OnFailure(step_, &resume)) {
      Restore(*blob);
      step_ = resume;
      return;
    }
    if (session_.plan().rebalance().enabled) {
      // Deterministic load signal: owned vertices, scaled inside the
      // session by each worker's scheduled slowdown.
      std::vector<double> load(workers_);
      for (uint32_t w = 0; w < workers_; ++w) {
        load[w] = static_cast<double>(owned_vertices_[w].size());
      }
      const uint32_t straggler =
          session_.RebalanceCandidate(step_, std::span<const double>(load));
      if (straggler != RecoverySession::kNoWorker) MigrateAway(straggler);
    }
    ++step_;
  }

  /// Folds the run totals into the stats: step count, payload bytes,
  /// this run's ledger and clock deltas, and the fault accounting.
  void Finish(uint32_t direction_switches) {
    stats_.supersteps = static_cast<uint32_t>(stats_.per_step.size());
    stats_.total_message_bytes = stats_.total_messages * payload_bytes_;
    const TrafficSnapshot end = cluster_->ledger().Snapshot();
    stats_.cross_worker_messages =
        end.cross_messages - ledger_start_.cross_messages;
    stats_.cross_worker_bytes = end.cross_bytes - ledger_start_.cross_bytes;
    stats_.modeled_seconds = cluster_->clock().SecondsSince(clock_start_);
    stats_.wall_seconds = timer_.ElapsedSeconds();
    stats_.direction_switches = direction_switches;
    stats_.SetFaultStats(session_.stats());
  }

 private:
  /// A consistent cut at the step barrier: the frontier, the traversal's
  /// own state, and the step-indexed stats to truncate back to.
  std::vector<uint8_t> Snapshot() const {
    BlobWriter w;
    w.Vec(std::vector<VertexId>(frontier_->Vertices().begin(),
                                frontier_->Vertices().end()));
    state_.save(w);
    w.Pod<uint64_t>(stats_.per_step.size());
    w.Pod(stats_.pull_supersteps);
    return std::move(w).Take();
  }

  void Restore(const std::vector<uint8_t>& blob) {
    BlobReader r(blob);
    frontier_->Clear();
    for (VertexId v : r.Vec<VertexId>()) frontier_->Add(v, g_.Degree(v));
    state_.load(r);
    stats_.per_step.resize(r.Pod<uint64_t>());
    stats_.pull_supersteps = r.Pod<uint32_t>();
    GAL_CHECK(r.exhausted());
  }

  /// Live rebalancing: sheds migrate_fraction of the straggler's
  /// vertices via RebalanceAway, reinstalls the partition, and books
  /// each moved vertex's state plus its frontier flag. Traversal updates
  /// fold order-independently (first claim per level, label and distance
  /// minima), so a vertex's home changes traffic and timing, never
  /// results.
  void MigrateAway(uint32_t from) {
    std::vector<VertexId> moved;
    VertexPartition next =
        RebalanceAway(g_, partition_, from,
                      session_.plan().rebalance().migrate_fraction, &moved);
    if (moved.empty()) return;
    std::vector<uint64_t> dst_bytes(workers_, 0);
    for (VertexId v : moved) {
      dst_bytes[next.assignment[v]] += state_.vertex_bytes + 1;
    }
    std::vector<std::pair<uint32_t, uint64_t>> per_dst;
    for (uint32_t w = 0; w < workers_; ++w) {
      if (dst_bytes[w] > 0) per_dst.emplace_back(w, dst_bytes[w]);
    }
    partition_ = std::move(next);
    cluster_->InstallPartition(partition_);
    AssignOwnedVertices();
    session_.CommitMigration(from, per_dst, moved.size());
  }

  void AssignOwnedVertices() {
    for (std::vector<VertexId>& list : owned_vertices_) list.clear();
    for (VertexId v = 0; v < g_.NumVertices(); ++v) {
      owned_vertices_[partition_.assignment[v]].push_back(v);
    }
  }

  const Graph& g_;
  Timer timer_;
  std::unique_ptr<ClusterRuntime> owned_;
  ClusterRuntime* cluster_;
  uint32_t workers_;
  uint32_t max_steps_;
  uint64_t payload_bytes_;
  uint64_t wire_message_bytes_;
  VertexPartition partition_;
  ThreadPool pool_;
  RecoverySession session_;
  TlavStats& stats_;
  TrafficSnapshot ledger_start_;
  size_t clock_start_;
  VertexFrontier* frontier_ = nullptr;
  TraversalState state_;
  uint32_t step_ = 0;
  std::vector<std::vector<VertexId>> owned_vertices_;
  std::vector<StepCounters> counters_;
  std::vector<std::vector<uint64_t>> wire_msgs_;  // [src][dst], per step
  uint64_t extra_wire_bytes_ = 0;  // broadcast traffic, per step
  uint64_t extra_wire_msgs_ = 0;
  std::vector<double> compute_seconds_;
};

/// Per-(src worker, dst worker) exchange lanes of one step, reused
/// across steps. Only the owning src worker appends to its row.
template <typename Entry>
class Lanes {
 public:
  explicit Lanes(uint32_t workers)
      : lanes_(workers, std::vector<std::vector<Entry>>(workers)) {}

  void Push(uint32_t src, uint32_t dst, Entry e) {
    lanes_[src][dst].push_back(std::move(e));
  }
  /// Visits dst's inbound lanes in ascending src order (the
  /// deterministic delivery order) and clears them.
  void Drain(uint32_t dst, const std::function<void(const Entry&)>& fn) {
    for (auto& row : lanes_) {
      for (const Entry& e : row[dst]) fn(e);
      row[dst].clear();
    }
  }

 private:
  std::vector<std::vector<std::vector<Entry>>> lanes_;  // [src][dst]
};

/// Splits the frontier into per-owner buckets for a push step.
void BucketByOwner(const FrontierRuntime& rt,
                   std::span<const VertexId> frontier,
                   std::vector<std::vector<VertexId>>& buckets) {
  for (auto& b : buckets) b.clear();
  for (VertexId v : frontier) buckets[rt.OwnerOf(v)].push_back(v);
}

}  // namespace

Status CheckFrontierConfig(const TlavConfig& config) {
  if (config.mirror_degree_threshold != 0) {
    return Status::InvalidArgument(
        "mirror_degree_threshold=" +
        std::to_string(config.mirror_degree_threshold) +
        ": Pregel+ mirroring is a TlavEngine feature; BFS, SSSP and WCC "
        "run on the frontier substrate, which does not model it");
  }
  return Status::Ok();
}

std::vector<uint32_t> FrontierBfs(const Graph& g, VertexId source,
                                  const TlavConfig& config,
                                  const DirectionConfig& direction,
                                  TlavStats& stats) {
  FrontierRuntime rt(g, config, sizeof(VertexId), stats);
  const VertexId n = g.NumVertices();
  const uint32_t W = rt.workers();

  std::vector<uint32_t> dist(n, kUnvisited);
  dist[source] = 0;
  VertexFrontier frontier(n), next(n);
  frontier.Add(source, g.Degree(source));
  uint64_t unexplored_edges = g.NumAdjacencyEntries() - g.Degree(source);
  DirectionController controller(direction, n);
  rt.Start(&frontier,
           {[&](BlobWriter& w) {
              w.Vec(dist);
              w.Pod(controller);
              w.Pod(unexplored_edges);
            },
            [&](BlobReader& r) {
              dist = r.Vec<uint32_t>();
              controller = r.Pod<DirectionController>();
              unexplored_edges = r.Pod<uint64_t>();
            },
            sizeof(uint32_t)});
  const Graph* reversed = nullptr;  // in-neighbor view, built at first pull

  Lanes<VertexId> lanes(W);
  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  while (rt.Running()) {
    const uint32_t level = rt.step() + 1;
    const Direction dir = controller.Next(
        frontier.EdgeCount(), frontier.VertexCount(), unexplored_edges);
    rt.BeginStep();

    if (dir == Direction::kPush) {
      BucketByOwner(rt, frontier.Vertices(), buckets);
      // Scatter: frontier vertices send their id to every still
      // unvisited out-neighbor's owner.
      rt.ForEachWorker([&](uint32_t w) {
        StepCounters& c = rt.counters(w);
        for (VertexId v : buckets[w]) {
          ++c.active;
          g.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (dist[u] != kUnvisited) return;
            ++c.messages;
            const uint32_t dst = rt.OwnerOf(u);
            rt.CountWire(w, dst);
            lanes.Push(w, dst, u);
          });
        }
      });
      // Deliver: each owner claims its newly reached vertices in the
      // deterministic lane order.
      rt.ForEachWorker([&](uint32_t d) {
        lanes.Drain(d, [&](const VertexId& u) {
          if (dist[u] == kUnvisited) {
            dist[u] = level;
            next_lane[d].push_back(u);
          }
        });
      });
    } else {
      if (reversed == nullptr) reversed = &g.ReversedView();
      const FrontierBitmap& bits = frontier.Bitmap();
      // A pull step's only wire traffic is the frontier bitmap: each
      // worker ships its |V|/W-vertex slice to every other worker once,
      // and all membership probes after that are local. This is the
      // comm-volume flip: a dense frontier costs O(|V|/8) bytes instead
      // of one message per unclaimed in-edge.
      rt.ChargeBroadcast((n + W - 1) / W / 8 + 1 +
                         config.message_overhead_bytes);
      // Gather: every unvisited vertex probes its in-neighbors and
      // claims the level at the first frontier hit.
      rt.ForEachWorker([&](uint32_t d) {
        StepCounters& c = rt.counters(d);
        for (VertexId v : rt.OwnedVertices(d)) {
          if (dist[v] != kUnvisited) continue;
          ++c.active;
          // Cursor, not callback: the whole point of the pull lane is
          // stopping at the first frontier hit, which a ForEach can't.
          for (Graph::NeighborCursor cur = reversed->OutNeighbors(v);
               cur.Valid(); cur.Next()) {
            ++c.edges;
            ++c.messages;
            if (bits.Test(cur.Get())) {
              dist[v] = level;
              next_lane[d].push_back(v);
              break;
            }
          }
        }
      });
    }

    // Merge the next frontier in worker order — deterministic at any
    // host thread count.
    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) next.Add(v, g.Degree(v));
      next_lane[w].clear();
    }
    unexplored_edges -= next.EdgeCount();
    frontier.Swap(next);
    rt.EndStep(dir);
  }

  rt.Finish(controller.switches());
  return dist;
}

std::vector<VertexId> FrontierWcc(const Graph& g, const TlavConfig& config,
                                  const DirectionConfig& direction,
                                  TlavStats& stats) {
  // Weak components: propagate over out ∪ in neighbors. For undirected
  // graphs this is the graph itself; for directed ones the lazily
  // cached symmetrized view.
  const Graph& ug = g.UndirectedView();
  FrontierRuntime rt(ug, config, sizeof(VertexId), stats);
  const VertexId n = ug.NumVertices();
  const uint32_t W = rt.workers();

  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::vector<VertexId> next_label = label;
  VertexFrontier frontier(n), next(n);
  for (VertexId v = 0; v < n; ++v) frontier.Add(v, ug.Degree(v));
  // Labels keep improving anywhere, so Beamer's "unexplored" mass is the
  // whole edge set: pull once the frontier covers > 1/alpha of it.
  const uint64_t total_edges = ug.NumAdjacencyEntries();
  DirectionController controller(direction, n);
  // At a barrier every improved label has been merged, so next_label
  // equals label and is rebuilt from it on restore.
  rt.Start(&frontier,
           {[&](BlobWriter& w) {
              w.Vec(label);
              w.Pod(controller);
            },
            [&](BlobReader& r) {
              label = r.Vec<VertexId>();
              next_label = label;
              controller = r.Pod<DirectionController>();
            },
            sizeof(VertexId)});

  struct LabelMsg {
    VertexId dst;
    VertexId label;
  };
  Lanes<LabelMsg> lanes(W);
  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  while (rt.Running()) {
    const Direction dir = controller.Next(
        frontier.EdgeCount(), frontier.VertexCount(), total_edges);
    rt.BeginStep();

    if (dir == Direction::kPush) {
      BucketByOwner(rt, frontier.Vertices(), buckets);
      rt.ForEachWorker([&](uint32_t w) {
        StepCounters& c = rt.counters(w);
        for (VertexId v : buckets[w]) {
          ++c.active;
          const VertexId lv = label[v];
          ug.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (lv >= label[u]) return;  // cannot improve u
            ++c.messages;
            const uint32_t dst = rt.OwnerOf(u);
            rt.CountWire(w, dst);
            lanes.Push(w, dst, {u, lv});
          });
        }
      });
      rt.ForEachWorker([&](uint32_t d) {
        lanes.Drain(d, [&](const LabelMsg& m) {
          if (m.label < next_label[m.dst]) {
            // First improvement enrolls the vertex in the next frontier.
            if (next_label[m.dst] == label[m.dst]) {
              next_lane[d].push_back(m.dst);
            }
            next_label[m.dst] = m.label;
          }
        });
      });
    } else {
      const FrontierBitmap& bits = frontier.Bitmap();
      // Gather: every vertex takes the minimum label over its frontier
      // neighbors. No early exit exists for a min-gather, but the scan
      // is sequential over the local CSR and pays wire cost only for
      // cross-partition probes.
      rt.ForEachWorker([&](uint32_t d) {
        StepCounters& c = rt.counters(d);
        for (VertexId v : rt.OwnedVertices(d)) {
          ++c.active;
          VertexId best = label[v];
          ug.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (!bits.Test(u)) return;
            ++c.messages;
            rt.CountWire(d, rt.OwnerOf(u));
            best = std::min(best, label[u]);
          });
          if (best < label[v]) {
            next_label[v] = best;
            next_lane[d].push_back(v);
          }
        }
      });
    }

    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) {
        label[v] = next_label[v];
        next.Add(v, ug.Degree(v));
      }
      next_lane[w].clear();
    }
    frontier.Swap(next);
    rt.EndStep(dir);
  }

  rt.Finish(controller.switches());
  return label;
}

std::vector<uint64_t> FrontierSssp(const Graph& g, VertexId source,
                                   EdgeWeightFn weight,
                                   const TlavConfig& config,
                                   TlavStats& stats) {
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  FrontierRuntime rt(g, config, sizeof(uint64_t), stats);
  const VertexId n = g.NumVertices();
  const uint32_t W = rt.workers();

  std::vector<uint64_t> dist(n, kInf);
  dist[source] = 0;
  // Weighted relaxation has no pull early-exit, so every step scatters;
  // the frontier substrate still carries the active set (sparse queue,
  // bitmap dedup of re-improved vertices).
  VertexFrontier frontier(n), next(n);
  frontier.Add(source, g.Degree(source));
  rt.Start(&frontier, {[&](BlobWriter& w) { w.Vec(dist); },
                       [&](BlobReader& r) { dist = r.Vec<uint64_t>(); },
                       sizeof(uint64_t)});
  // One dedup bitmap PER drain worker: workers own disjoint vertices,
  // but bits of different owners share 64-bit words, so a single
  // shared bitmap would make the drain phase's read-modify-writes race
  // (a lost Set drops an improved vertex from the next frontier).
  std::vector<FrontierBitmap> in_next(W, FrontierBitmap(n));

  struct DistMsg {
    VertexId dst;
    uint64_t dist;
  };
  Lanes<DistMsg> lanes(W);
  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  while (rt.Running()) {
    rt.BeginStep();
    BucketByOwner(rt, frontier.Vertices(), buckets);
    rt.ForEachWorker([&](uint32_t w) {
      StepCounters& c = rt.counters(w);
      for (VertexId v : buckets[w]) {
        ++c.active;
        const uint64_t dv = dist[v];
        g.ForEachOutNeighbor(v, [&](VertexId u) {
          ++c.edges;
          // Weights are a function of ORIGINAL ids so a reordered
          // layout traverses the same weighted graph.
          const uint64_t cand = dv + weight(g.OriginalId(v), g.OriginalId(u));
          if (cand >= dist[u]) return;  // stale reads only skip work
          ++c.messages;
          const uint32_t dst = rt.OwnerOf(u);
          rt.CountWire(w, dst);
          lanes.Push(w, dst, {u, cand});
        });
      }
    });
    rt.ForEachWorker([&](uint32_t d) {
      lanes.Drain(d, [&](const DistMsg& m) {
        if (m.dist < dist[m.dst]) {
          dist[m.dst] = m.dist;
          if (!in_next[d].Test(m.dst)) {
            in_next[d].Set(m.dst);
            next_lane[d].push_back(m.dst);
          }
        }
      });
    });

    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) {
        in_next[w].Clear(v);
        next.Add(v, g.Degree(v));
      }
      next_lane[w].clear();
    }
    frontier.Swap(next);
    rt.EndStep(Direction::kPush);
  }

  rt.Finish(/*direction_switches=*/0);
  return dist;
}

}  // namespace gal
