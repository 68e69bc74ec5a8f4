#ifndef GAL_TLAV_ENGINE_H_
#define GAL_TLAV_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/exchange.h"
#include "common/logging.h"
#include "graph/graph.h"
#include "graph/neighbor_source.h"
#include "partition/partition.h"
#include "tlav/bsp_runtime.h"

namespace gal {

/// How an aggregator folds per-vertex contributions.
enum class AggregateOp : uint8_t { kSum, kMin, kMax };

/// Handle of an aggregator, returned by TlavEngine::RegisterAggregator.
using AggregatorId = uint32_t;

template <typename V, typename M, NeighborSource G = Graph>
class TlavEngine;

/// The view of one vertex handed to a VertexProgram::Compute call.
/// Mirrors Pregel's Vertex class: value access, message sending,
/// VoteToHalt, and aggregator access.
template <typename V, typename M, NeighborSource G = Graph>
class VertexHandle {
 public:
  VertexId id() const { return id_; }
  uint32_t superstep() const;
  VertexId num_vertices() const;

  V& value() { return *value_; }
  const V& value() const { return *value_; }

  std::span<const VertexId> Neighbors() const;
  uint32_t Degree() const;

  void SendTo(VertexId target, const M& message);
  void SendToAllNeighbors(const M& message);

  /// Deactivates this vertex; it is revived by any incoming message.
  void VoteToHalt();

  /// Contributes to a registered aggregator (visible next superstep).
  void Aggregate(AggregatorId id, double value);
  /// Value of an aggregator as of the end of the previous superstep.
  double GetAggregate(AggregatorId id) const;

 private:
  friend class TlavEngine<V, M, G>;
  VertexHandle(TlavEngine<V, M, G>* engine, uint32_t worker, VertexId id,
               V* value)
      : engine_(engine), worker_(worker), id_(id), value_(value) {}

  TlavEngine<V, M, G>* engine_;
  uint32_t worker_;
  VertexId id_;
  V* value_;
};

/// A user computation in the think-like-a-vertex model. Subclass and
/// override Compute; optionally provide a commutative/associative
/// combiner to shrink message traffic (Pregel's optimization).
template <typename V, typename M, NeighborSource G = Graph>
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Called on every active vertex each superstep. At superstep 0 all
  /// vertices are active and `messages` is empty.
  virtual void Compute(VertexHandle<V, M, G>& vertex,
                       std::span<const M> messages) = 0;

  /// Return true and implement Combine to enable sender-side combining.
  virtual bool has_combiner() const { return false; }
  virtual M Combine(const M& a, const M& b) const {
    (void)a;
    return b;
  }
};

/// A Pregel-style Bulk Synchronous Parallel engine over a simulated
/// cluster, running on the shared BspRuntime (tlav/bsp_runtime.h).
/// Vertices are placed by an explicit VertexPartition so partitioning
/// strategies can be compared under identical programs. Messages route
/// through an ExchangeChannel: a program with a combiner folds every
/// send into the sending worker's dense slot for the destination vertex,
/// with its Combine as the channel's fold; other programs' messages
/// ride the channel's lanes. Aggregator contributions fold into a
/// partial per worker, and the superstep barrier folds the partials in
/// ascending worker order. Delivery order and both folds depend only on
/// the worker count, so results and stats are bit-identical at any host
/// thread count (GAL_TASK_THREADS caps the host threads that execute the
/// simulated workers; it never changes the math). `G` is any neighbor
/// source (graph/neighbor_source.h): an in-memory Graph, or a
/// ShardedGraph whose rows each worker reads through its RowReader.
template <typename V, typename M, NeighborSource G>
class TlavEngine {
 public:
  /// `partition` must cover g's vertices with one part per cluster
  /// worker; left empty (the default), vertices are placed by
  /// DefaultPlacement at the cluster's width.
  TlavEngine(const G* graph, TlavConfig config,
             VertexPartition partition = {})
      : graph_(graph),
        config_(std::move(config)),
        rt_(*graph, config_, sizeof(M), std::move(partition)),
        channel_(rt_.cluster(), kMessageEnvelopeBytes, graph_->NumVertices()),
        decode_scratch_(rt_.workers()) {
    const VertexId n = graph_->NumVertices();
    values_.resize(n);
    halted_.assign(n, 0);
    inbox_.resize(n);
  }

  /// Registers an aggregator and returns its handle. Compute reads
  /// `initial` folded with every contribution of the previous superstep
  /// (`initial` itself before the first barrier).
  AggregatorId RegisterAggregator(AggregateOp op, double initial = 0.0) {
    const auto id = static_cast<AggregatorId>(aggregators_.size());
    aggregators_.push_back({op, initial});
    aggregates_.push_back(initial);
    partials_.resize(partials_.size() + rt_.workers(), {Identity(op)});
    return id;
  }

  /// Runs supersteps until every vertex has halted and no messages are
  /// in flight (or max_supersteps is hit). Returns accumulated stats.
  TlavStats Run(VertexProgram<V, M, G>& program);

  const std::vector<V>& values() const { return values_; }
  const TlavStats& stats() const { return stats_; }
  ClusterRuntime& cluster() { return *rt_.cluster(); }

 private:
  friend class VertexHandle<V, M, G>;

  struct Aggregator {
    AggregateOp op;
    double initial;
  };
  /// One worker's fold of its vertices' contributions to one aggregator
  /// this superstep, cache-line separated from the other workers'.
  struct alignas(64) Partial {
    double value;
  };

  static double Identity(AggregateOp op) {
    switch (op) {
      case AggregateOp::kSum: return 0.0;
      case AggregateOp::kMin: return std::numeric_limits<double>::infinity();
      case AggregateOp::kMax: return -std::numeric_limits<double>::infinity();
    }
    return 0.0;
  }

  static double Fold(AggregateOp op, double acc, double v) {
    switch (op) {
      case AggregateOp::kSum: return acc + v;
      case AggregateOp::kMin: return std::min(acc, v);
      case AggregateOp::kMax: return std::max(acc, v);
    }
    return acc;
  }

  /// The aggregator barrier: each aggregate becomes its initial value
  /// folded with the workers' partials in ascending worker order, and
  /// the partials restart at the op's identity.
  void FoldAggregators() {
    const uint32_t workers = rt_.workers();
    for (AggregatorId id = 0; id < aggregators_.size(); ++id) {
      const Aggregator& agg = aggregators_[id];
      double value = agg.initial;
      for (uint32_t w = 0; w < workers; ++w) {
        double& partial = partials_[id * workers + w].value;
        value = Fold(agg.op, value, partial);
        partial = Identity(agg.op);
      }
      aggregates_[id] = value;
    }
  }

  /// A worker's adjacency decode buffer for compressed or pinned rows,
  /// cache-line separated. Exactly one VertexHandle is live per worker at
  /// a time, so the span VertexHandle::Neighbors() returns over it stays
  /// valid for the duration of a Compute call.
  struct alignas(64) DecodeScratch {
    std::vector<VertexId> row;
  };

  /// Counts one logical delivery for the sending worker and buffers it:
  /// folded into the worker's slot for `dst` when the running program
  /// combines, else on the lane to dst's owner.
  void Send(uint32_t src_worker, VertexId dst, const M& message,
            bool mirrored = false) {
    ++rt_.counters(src_worker).messages;
    if (combiner_ == nullptr) {
      channel_.Send(src_worker, rt_.OwnerOf(dst), dst, message, mirrored);
      return;
    }
    channel_.SendCombined(
        src_worker, rt_.OwnerOf(dst), dst, message, mirrored,
        [this](const M& a, const M& b) { return combiner_->Combine(a, b); });
  }

  /// SendToAllNeighbors with Pregel+ mirroring for eligible hubs: one
  /// wire message per remote worker that hosts any neighbor. Streams the
  /// adjacency through the worker's reader (decoding in-register when
  /// compressed) without touching the worker's decode scratch, so a span
  /// a Compute call still holds from VertexHandle::Neighbors() stays
  /// valid across a send.
  void Broadcast(uint32_t src_worker, VertexId src, const M& message) {
    const bool mirror = config_.mirror_degree_threshold > 0 &&
                        graph_->Degree(src) >= config_.mirror_degree_threshold;
    RowReader<G>& rows = rt_.reader(src_worker);
    if (!mirror) {
      rows.ForEachOutNeighbor(
          src, [&](VertexId u) { Send(src_worker, u, message); });
      return;
    }
    std::vector<uint8_t> worker_touched(rt_.workers(), 0);
    rows.ForEachOutNeighbor(src, [&](VertexId u) {
      const uint32_t w = rt_.OwnerOf(u);
      if (!worker_touched[w]) {
        worker_touched[w] = 1;
        channel_.AddWire(src_worker, w);  // the single mirror message
      } else {
        channel_.NoteMirroredDelivery(src_worker);
      }
      Send(src_worker, u, message, /*mirrored=*/true);
    });
  }

  bool AllHalted() const {
    return std::all_of(halted_.begin(), halted_.end(),
                       [](uint8_t h) { return h != 0; });
  }

  const G* graph_;
  TlavConfig config_;
  BspRuntime<G> rt_;
  ExchangeChannel<M> channel_;

  std::vector<V> values_;
  std::vector<uint8_t> halted_;
  /// Each vertex's messages: the compute phase drains every inbox, and
  /// the step's Flush fills them for the next superstep.
  std::vector<std::vector<M>> inbox_;
  std::vector<DecodeScratch> decode_scratch_;
  /// The running program when it combines, else null.
  const VertexProgram<V, M, G>* combiner_ = nullptr;
  std::vector<Aggregator> aggregators_;  // [id]
  std::vector<double> aggregates_;       // [id], what GetAggregate reads
  std::vector<Partial> partials_;        // [id * workers + worker]
  TlavStats stats_;

  /// The engine's part of a superstep-barrier snapshot: vertex values,
  /// halt flags, the delivered inbox (the in-flight messages of the next
  /// superstep) and the aggregates. The partials are at their identity
  /// after every barrier, so they are not part of it.
  void SaveState(BlobWriter& w) const {
    static_assert(std::is_trivially_copyable_v<V> &&
                      std::is_trivially_copyable_v<M>,
                  "TLAV checkpointing snapshots V/M by bytes");
    w.Vec(values_);
    w.Vec(halted_);
    w.Pod<uint64_t>(inbox_.size());
    for (const std::vector<M>& box : inbox_) w.Vec(box);
    w.Vec(aggregates_);
  }

  void LoadState(BlobReader& r) {
    values_ = r.template Vec<V>();
    halted_ = r.template Vec<uint8_t>();
    const uint64_t boxes = r.template Pod<uint64_t>();
    GAL_CHECK(boxes == inbox_.size());
    for (std::vector<M>& box : inbox_) box = r.template Vec<M>();
    aggregates_ = r.template Vec<double>();
    GAL_CHECK(aggregates_.size() == aggregators_.size());
    channel_.Clear();
  }
};

// --- implementation --------------------------------------------------------

template <typename V, typename M, NeighborSource G>
uint32_t VertexHandle<V, M, G>::superstep() const {
  return engine_->rt_.step();
}

template <typename V, typename M, NeighborSource G>
VertexId VertexHandle<V, M, G>::num_vertices() const {
  return engine_->graph_->NumVertices();
}

template <typename V, typename M, NeighborSource G>
std::span<const VertexId> VertexHandle<V, M, G>::Neighbors() const {
  engine_->rt_.counters(worker_).edges += engine_->graph_->Degree(id_);
  // Raw layout: a direct span into the CSR. Compressed or pinned:
  // decoded into this worker's scratch, valid until the worker's next
  // Neighbors() call (i.e. for the rest of this Compute invocation).
  return engine_->rt_.reader(worker_).NeighborsInto(
      id_, engine_->decode_scratch_[worker_].row);
}

template <typename V, typename M, NeighborSource G>
uint32_t VertexHandle<V, M, G>::Degree() const {
  return engine_->graph_->Degree(id_);
}

template <typename V, typename M, NeighborSource G>
void VertexHandle<V, M, G>::SendTo(VertexId target, const M& message) {
  engine_->Send(worker_, target, message);
}

template <typename V, typename M, NeighborSource G>
void VertexHandle<V, M, G>::SendToAllNeighbors(const M& message) {
  engine_->rt_.counters(worker_).edges += engine_->graph_->Degree(id_);
  engine_->Broadcast(worker_, id_, message);
}

template <typename V, typename M, NeighborSource G>
void VertexHandle<V, M, G>::VoteToHalt() { engine_->halted_[id_] = 1; }

template <typename V, typename M, NeighborSource G>
void VertexHandle<V, M, G>::Aggregate(AggregatorId id, double value) {
  GAL_DCHECK(id < engine_->aggregators_.size());
  double& partial =
      engine_->partials_[id * engine_->rt_.workers() + worker_].value;
  partial = TlavEngine<V, M, G>::Fold(engine_->aggregators_[id].op, partial,
                                      value);
}

template <typename V, typename M, NeighborSource G>
double VertexHandle<V, M, G>::GetAggregate(AggregatorId id) const {
  GAL_DCHECK(id < engine_->aggregates_.size());
  return engine_->aggregates_[id];
}

template <typename V, typename M, NeighborSource G>
TlavStats TlavEngine<V, M, G>::Run(VertexProgram<V, M, G>& program) {
  combiner_ = program.has_combiner() ? &program : nullptr;
  // A migrating vertex ships its value, halt flag and queued inbox.
  rt_.Start(&stats_,
            {[this](BlobWriter& w) { SaveState(w); },
             [this](BlobReader& r) { LoadState(r); },
             [this](VertexId v) -> uint64_t {
               return sizeof(V) + 1 + inbox_[v].size() * sizeof(M);
             }});

  while (rt_.step() < config_.max_supersteps) {
    // Compute phase: each simulated worker processes its own vertices
    // (host threads pick up whole workers, so a worker's outbox and
    // aggregator partials have one writer).
    rt_.ForEachWorker([&](uint32_t w) {
      uint64_t& active = rt_.counters(w).active;
      for (VertexId v : rt_.OwnedVertices(w)) {
        if (halted_[v] && inbox_[v].empty()) continue;
        halted_[v] = 0;
        VertexHandle<V, M, G> handle(this, w, v, &values_[v]);
        program.Compute(handle, std::span<const M>(inbox_[v]));
        inbox_[v].clear();
        ++active;
      }
    });

    // Message delivery: the exchange channel charges the step's wire
    // traffic to the cluster ledger and routes every lane and combined
    // slot to its destination worker's inboxes, which the compute phase
    // left empty, with receiver-side combining when the program has a
    // combiner.
    stats_.mirrored_deliveries +=
        channel_
            .Flush(&rt_.pool(),
                   [&](uint32_t /*dst_worker*/, VertexId v, M&& m) {
                     std::vector<M>& box = inbox_[v];
                     if (combiner_ != nullptr && !box.empty()) {
                       // Receiver-side combining collapses the
                       // per-source slots.
                       box[0] = combiner_->Combine(box[0], m);
                     } else {
                       box.push_back(std::move(m));
                     }
                   })
            .mirrored;

    FoldAggregators();

    if (!rt_.EndStep()) continue;  // rolled back: replay from the checkpoint
    const TlavStats::PerStep& step = stats_.per_step.back();
    if (step.messages == 0 && (step.active_vertices == 0 || AllHalted())) {
      break;
    }
  }

  // Trim: the final bookkeeping step with zero activity is not a superstep.
  while (!stats_.per_step.empty() && stats_.per_step.back().active_vertices == 0 &&
         stats_.per_step.back().messages == 0) {
    stats_.per_step.pop_back();
  }
  rt_.Finish();
  return stats_;
}

}  // namespace gal

#endif  // GAL_TLAV_ENGINE_H_
