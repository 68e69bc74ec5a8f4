#ifndef GAL_TLAV_ENGINE_H_
#define GAL_TLAV_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/exchange.h"
#include "common/logging.h"
#include "graph/graph.h"
#include "partition/partition.h"
#include "tlav/bsp_runtime.h"

namespace gal {

/// How an aggregator folds per-vertex contributions.
enum class AggregateOp : uint8_t { kSum, kMin, kMax };

template <typename V, typename M>
class TlavEngine;

/// The view of one vertex handed to a VertexProgram::Compute call.
/// Mirrors Pregel's Vertex class: value access, message sending,
/// VoteToHalt, and aggregator access.
template <typename V, typename M>
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
  void Aggregate(const std::string& name, double value);
  /// Value of an aggregator as of the end of the previous superstep.
  double GetAggregate(const std::string& name) const;

 private:
  friend class TlavEngine<V, M>;
  VertexHandle(TlavEngine<V, M>* engine, uint32_t worker, VertexId id, V* value)
      : engine_(engine), worker_(worker), id_(id), value_(value) {}

  TlavEngine<V, M>* engine_;
  uint32_t worker_;
  VertexId id_;
  V* value_;
};

/// A user computation in the think-like-a-vertex model. Subclass and
/// override Compute; optionally provide a commutative/associative
/// combiner to shrink message traffic (Pregel's optimization).
template <typename V, typename M>
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Called on every active vertex each superstep. At superstep 0 all
  /// vertices are active and `messages` is empty.
  virtual void Compute(VertexHandle<V, M>& vertex,
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
/// through an ExchangeChannel, whose deterministic (src-worker, seq)
/// delivery order keeps results and stats bit-identical at any host
/// thread count (GAL_TASK_THREADS caps the host threads that execute the
/// simulated workers; it never changes the math).
template <typename V, typename M>
class TlavEngine {
 public:
  /// `partition` must cover g's vertices with one part per cluster
  /// worker; left empty (the default), vertices are hash-partitioned at
  /// the cluster's width.
  TlavEngine(const Graph* graph, TlavConfig config,
             VertexPartition partition = {})
      : graph_(graph),
        config_(std::move(config)),
        rt_(*graph, config_, sizeof(M), std::move(partition)),
        channel_(rt_.cluster(), config_.message_overhead_bytes),
        decode_scratch_(rt_.workers()) {
    const VertexId n = graph_->NumVertices();
    values_.resize(n);
    halted_.assign(n, 0);
    inbox_.resize(n);
    next_inbox_.resize(n);
  }

  /// Sets every vertex value before the run.
  void InitValues(const std::function<V(VertexId)>& init) {
    for (VertexId v = 0; v < graph_->NumVertices(); ++v) values_[v] = init(v);
  }

  void RegisterAggregator(const std::string& name, AggregateOp op,
                          double initial = 0.0) {
    aggregators_[name] = {op, initial, initial, initial};
  }

  /// Runs supersteps until every vertex has halted and no messages are
  /// in flight (or max_supersteps is hit). Returns accumulated stats.
  TlavStats Run(VertexProgram<V, M>& program);

  const std::vector<V>& values() const { return values_; }
  std::vector<V>& mutable_values() { return values_; }
  const Graph& graph() const { return *graph_; }
  const TlavStats& stats() const { return stats_; }
  ClusterRuntime& cluster() { return *rt_.cluster(); }

 private:
  friend class VertexHandle<V, M>;

  struct Aggregator {
    AggregateOp op;
    double initial;
    double current;   // being accumulated this superstep
    double previous;  // readable by Compute
    void Fold(double v) {
      switch (op) {
        case AggregateOp::kSum: current += v; break;
        case AggregateOp::kMin: current = std::min(current, v); break;
        case AggregateOp::kMax: current = std::max(current, v); break;
      }
    }
  };

  /// A worker's adjacency decode buffer for compressed graphs,
  /// cache-line separated. Exactly one VertexHandle is live per worker at
  /// a time, so the span VertexHandle::Neighbors() returns over it stays
  /// valid for the duration of a Compute call.
  struct alignas(64) DecodeScratch {
    std::vector<VertexId> row;
  };

  /// Counts one logical delivery for the sending worker and buffers it.
  void Send(uint32_t src_worker, VertexId dst, const M& message,
            bool mirrored = false) {
    ++rt_.counters(src_worker).messages;
    channel_.Send(src_worker, rt_.OwnerOf(dst), dst, message, mirrored);
  }

  /// SendToAllNeighbors with Pregel+ mirroring for eligible hubs: one
  /// wire message per remote worker that hosts any neighbor. Streams the
  /// adjacency (decoding in-register when compressed) without touching
  /// the worker's decode scratch, so a span a Compute call still holds
  /// from VertexHandle::Neighbors() stays valid across a send.
  void Broadcast(uint32_t src_worker, VertexId src, const M& message) {
    const bool mirror = config_.mirror_degree_threshold > 0 &&
                        graph_->Degree(src) >= config_.mirror_degree_threshold;
    if (!mirror) {
      graph_->ForEachOutNeighbor(
          src, [&](VertexId u) { Send(src_worker, u, message); });
      return;
    }
    std::vector<uint8_t> worker_touched(rt_.workers(), 0);
    graph_->ForEachOutNeighbor(src, [&](VertexId u) {
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

  const Graph* graph_;
  TlavConfig config_;
  BspRuntime rt_;
  ExchangeChannel<M> channel_;

  std::vector<V> values_;
  std::vector<uint8_t> halted_;
  std::vector<std::vector<M>> inbox_;       // messages for this superstep
  std::vector<std::vector<M>> next_inbox_;  // being filled for next one
  std::vector<DecodeScratch> decode_scratch_;
  std::map<std::string, Aggregator> aggregators_;
  std::mutex aggregator_mu_;
  TlavStats stats_;

  /// The engine's part of a superstep-barrier snapshot: vertex values,
  /// halt flags, the delivered inbox (the in-flight messages of the next
  /// superstep) and aggregator state.
  void SaveState(BlobWriter& w) const {
    static_assert(std::is_trivially_copyable_v<V> &&
                      std::is_trivially_copyable_v<M>,
                  "TLAV checkpointing snapshots V/M by bytes");
    w.Vec(values_);
    w.Vec(halted_);
    w.Pod<uint64_t>(inbox_.size());
    for (const std::vector<M>& box : inbox_) w.Vec(box);
    w.Pod<uint64_t>(aggregators_.size());
    for (const auto& [name, agg] : aggregators_) {
      w.Str(name);
      w.Pod(agg.op);
      w.Pod(agg.initial);
      w.Pod(agg.current);
      w.Pod(agg.previous);
    }
  }

  void LoadState(BlobReader& r) {
    values_ = r.template Vec<V>();
    halted_ = r.template Vec<uint8_t>();
    const uint64_t boxes = r.template Pod<uint64_t>();
    GAL_CHECK(boxes == inbox_.size());
    for (std::vector<M>& box : inbox_) box = r.template Vec<M>();
    const uint64_t num_aggregators = r.template Pod<uint64_t>();
    aggregators_.clear();
    for (uint64_t i = 0; i < num_aggregators; ++i) {
      const std::string name = r.Str();
      Aggregator agg;
      agg.op = r.template Pod<AggregateOp>();
      agg.initial = r.template Pod<double>();
      agg.current = r.template Pod<double>();
      agg.previous = r.template Pod<double>();
      aggregators_[name] = agg;
    }
    for (std::vector<M>& box : next_inbox_) box.clear();
    channel_.Clear();
  }
};

// --- implementation --------------------------------------------------------

template <typename V, typename M>
uint32_t VertexHandle<V, M>::superstep() const { return engine_->rt_.step(); }

template <typename V, typename M>
VertexId VertexHandle<V, M>::num_vertices() const {
  return engine_->graph_->NumVertices();
}

template <typename V, typename M>
std::span<const VertexId> VertexHandle<V, M>::Neighbors() const {
  engine_->rt_.counters(worker_).edges += engine_->graph_->Degree(id_);
  // Raw layout: a direct span into the CSR. Compressed: decoded into
  // this worker's scratch, valid until the worker's next Neighbors()
  // call (i.e. for the rest of this Compute invocation).
  return engine_->graph_->NeighborsInto(id_,
                                        engine_->decode_scratch_[worker_].row);
}

template <typename V, typename M>
uint32_t VertexHandle<V, M>::Degree() const {
  return engine_->graph_->Degree(id_);
}

template <typename V, typename M>
void VertexHandle<V, M>::SendTo(VertexId target, const M& message) {
  engine_->Send(worker_, target, message);
}

template <typename V, typename M>
void VertexHandle<V, M>::SendToAllNeighbors(const M& message) {
  engine_->rt_.counters(worker_).edges += engine_->graph_->Degree(id_);
  engine_->Broadcast(worker_, id_, message);
}

template <typename V, typename M>
void VertexHandle<V, M>::VoteToHalt() { engine_->halted_[id_] = 1; }

template <typename V, typename M>
void VertexHandle<V, M>::Aggregate(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(engine_->aggregator_mu_);
  auto it = engine_->aggregators_.find(name);
  GAL_CHECK(it != engine_->aggregators_.end()) << "unknown aggregator " << name;
  it->second.Fold(value);
}

template <typename V, typename M>
double VertexHandle<V, M>::GetAggregate(const std::string& name) const {
  std::lock_guard<std::mutex> lock(engine_->aggregator_mu_);
  auto it = engine_->aggregators_.find(name);
  GAL_CHECK(it != engine_->aggregators_.end()) << "unknown aggregator " << name;
  return it->second.previous;
}

template <typename V, typename M>
TlavStats TlavEngine<V, M>::Run(VertexProgram<V, M>& program) {
  const bool combining = program.has_combiner();
  typename ExchangeChannel<M>::Combiner combiner;
  if (combining) {
    combiner = [&program](const M& a, const M& b) {
      return program.Combine(a, b);
    };
  }
  channel_.Begin(std::move(combiner));
  // A migrating vertex ships its value, halt flag and queued inbox.
  rt_.Start(&stats_,
            {[this](BlobWriter& w) { SaveState(w); },
             [this](BlobReader& r) { LoadState(r); },
             [this](VertexId v) -> uint64_t {
               return sizeof(V) + 1 + inbox_[v].size() * sizeof(M);
             }});

  while (rt_.step() < config_.max_supersteps) {
    // Compute phase: each simulated worker processes its own vertices
    // (host threads pick up whole workers, so outbox lanes stay
    // single-writer).
    rt_.ForEachWorker([&](uint32_t w) {
      uint64_t& active = rt_.counters(w).active;
      for (VertexId v : rt_.OwnedVertices(w)) {
        if (halted_[v] && inbox_[v].empty()) continue;
        halted_[v] = 0;
        VertexHandle<V, M> handle(this, w, v, &values_[v]);
        program.Compute(handle, std::span<const M>(inbox_[v]));
        inbox_[v].clear();
        ++active;
      }
    });

    // Message delivery: the exchange channel charges the step's wire
    // traffic to the cluster ledger and routes every lane to its
    // destination worker's inboxes, with receiver-side combining when
    // the program has a combiner.
    stats_.mirrored_deliveries +=
        channel_
            .Flush(&rt_.pool(),
                   [&](uint32_t /*dst_worker*/, VertexId v, M&& m) {
                     std::vector<M>& box = next_inbox_[v];
                     if (combining && !box.empty()) {
                       // Receiver-side combining collapses the
                       // per-source slots.
                       box[0] = program.Combine(box[0], m);
                     } else {
                       box.push_back(std::move(m));
                     }
                   })
            .mirrored;
    std::swap(inbox_, next_inbox_);

    // Aggregator barrier.
    for (auto& [name, agg] : aggregators_) {
      agg.previous = agg.current;
      agg.current = agg.initial;
    }

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
