#ifndef GAL_CLUSTER_EXCHANGE_H_
#define GAL_CLUSTER_EXCHANGE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "graph/graph.h"

namespace gal {

/// Typed bulk-synchronous message exchange over a ClusterRuntime: the
/// communication step of one BSP superstep. Producers buffer messages
/// during the compute phase; Flush() charges the wire traffic to the
/// runtime's TrafficLedger and hands every message to the caller's
/// deliver callback. A message takes one of two paths:
///   - Send() appends it to its (source worker, destination worker)
///     lane: the path for messages that stay distinct (TLAV triangles,
///     batched queries, walkers, the frontier kernels).
///   - SendCombined() folds it sender-side (Pregel's combiner) into the
///     source worker's dense slot for the destination vertex. Each
///     source worker has one slot array indexed by global VertexId, so
///     a rebalanced partition needs no remap, and one touched byte per
///     slot. A slot's first touch appends its vertex to the (src, dst)
///     touched list, which Flush delivers and Clear resets, so both cost
///     O(sends), not O(|V|). A source worker allocates its
///     |V| * (sizeof(M) + 1) slot bytes at its first combining send.
///
/// Ordering contract: within one destination worker, messages are
/// delivered in ascending source-worker order; within one source, lane
/// messages in send order, then combined slots in first-touch order.
/// That order depends only on the send sequence, not on how many host
/// threads executed the compute phase, so engine results and stats stay
/// bit-identical at any thread count.
///
/// Wire pricing: every lane message and every combined slot is one wire
/// message, charged when it crosses workers. A slot is priced at its
/// first non-mirrored send. Mirrored sends (Pregel+ hub broadcasts) ride
/// the per-worker mirror message accounted via AddWire, so a slot
/// reached only by mirrored sends adds no wire message, and one reached
/// by both kinds adds exactly one.
///
/// Thread safety: Send/SendCombined/AddWire/NoteMirroredDelivery touch
/// only the source worker's buffers, so the usual BSP discipline (each
/// simulated worker driven by one host thread at a time) needs no locks.
/// Flush delivers destination workers in parallel on the caller's pool;
/// distinct destinations never share a lane or a slot.
template <typename M>
class ExchangeChannel {
 public:
  /// Called once per delivered message, in the deterministic order above.
  using Deliver = std::function<void(uint32_t dst_worker, VertexId dst, M&&)>;

  /// Wire totals of one Flush (one superstep's communication).
  struct StepTotals {
    uint64_t logical_messages = 0;  // deliveries, including local ones
    uint64_t cross_messages = 0;    // wire messages between distinct workers
    uint64_t cross_bytes = 0;       // cross messages * (sizeof(M) + envelope)
    uint64_t mirrored = 0;          // deliveries folded into mirror messages
  };

  /// `envelope_bytes` is the simulated per-message overhead added to
  /// sizeof(M) for cross-worker wire messages (dst id + lengths).
  /// SendCombined addresses vertices [0, num_vertices); a channel that
  /// only uses lanes leaves it 0.
  ExchangeChannel(ClusterRuntime* cluster, uint32_t envelope_bytes,
                  VertexId num_vertices = 0)
      : cluster_(cluster),
        envelope_bytes_(envelope_bytes),
        num_vertices_(num_vertices) {
    GAL_CHECK(cluster_ != nullptr);
    const uint32_t workers = cluster_->num_workers();
    boxes_.resize(workers);
    for (Outbox& box : boxes_) {
      box.lanes.assign(workers, {});
      box.touch_order.assign(workers, {});
      box.wire.assign(workers, 0);
      box.logical.assign(workers, 0);
      box.mirrored = 0;
    }
  }

  /// Buffers one message from src worker to `dst_vertex` on dst worker.
  /// `mirrored` marks deliveries that ride a mirror broadcast's single
  /// per-worker wire message.
  void Send(uint32_t src, uint32_t dst_worker, VertexId dst_vertex,
            const M& message, bool mirrored = false) {
    Outbox& box = boxes_[src];
    ++box.logical[dst_worker];
    if (!mirrored) ++box.wire[dst_worker];
    box.lanes[dst_worker].push_back({dst_vertex, message});
  }

  /// Folds one message from src worker into its slot for `dst_vertex`:
  /// the first send of the step stores the message, every later one
  /// stores fold(slot, message). `fold` is the program's combiner, so it
  /// must be commutative and associative. `dst_worker` must own
  /// `dst_vertex` for the whole step.
  template <typename Fold>
  void SendCombined(uint32_t src, uint32_t dst_worker, VertexId dst_vertex,
                    const M& message, bool mirrored, const Fold& fold) {
    GAL_DCHECK(dst_vertex < num_vertices_);
    Outbox& box = boxes_[src];
    if (box.touched.empty()) {
      box.slots.resize(num_vertices_);
      box.touched.assign(num_vertices_, kUntouched);
    }
    ++box.logical[dst_worker];
    uint8_t& touched = box.touched[dst_vertex];
    M& slot = box.slots[dst_vertex];
    if (touched == kUntouched) {
      slot = message;
      touched = kTouched;
      box.touch_order[dst_worker].push_back(dst_vertex);
    } else {
      slot = fold(slot, message);
    }
    if (!mirrored && touched != kWired) {
      touched = kWired;
      ++box.wire[dst_worker];
    }
  }

  /// Accounts one wire message from src to dst_worker that carries no
  /// buffered delivery: the single message a mirror broadcast pays per
  /// remote worker it touches, or a pull step's remote probe. Flush
  /// charges it like a send (free when src == dst_worker).
  void AddWire(uint32_t src, uint32_t dst_worker) {
    ++boxes_[src].wire[dst_worker];
  }

  /// Accounts one logical delivery folded into an already-paid mirror
  /// message.
  void NoteMirroredDelivery(uint32_t src) { ++boxes_[src].mirrored; }

  /// The BSP barrier: charges this step's wire traffic to the runtime
  /// ledger, delivers every buffered message via `deliver` (destination
  /// workers in parallel on `pool` if given), clears the buffers, and
  /// returns the step's totals.
  StepTotals Flush(ThreadPool* pool, const Deliver& deliver) {
    const uint32_t workers = cluster_->num_workers();
    TrafficLedger& ledger = cluster_->ledger();
    StepTotals totals;
    const uint64_t wire_message_bytes = sizeof(M) + envelope_bytes_;
    for (uint32_t src = 0; src < workers; ++src) {
      Outbox& box = boxes_[src];
      totals.mirrored += box.mirrored;
      box.mirrored = 0;
      for (uint32_t dst = 0; dst < workers; ++dst) {
        const uint64_t wire = box.wire[dst];
        totals.logical_messages += box.logical[dst];
        if (src != dst && wire > 0) {
          totals.cross_messages += wire;
          totals.cross_bytes += wire * wire_message_bytes;
          ledger.Charge(src, dst, wire * wire_message_bytes, wire);
        }
        box.wire[dst] = 0;
        box.logical[dst] = 0;
      }
    }
    auto deliver_to = [&](size_t dst) {
      const auto dst_worker = static_cast<uint32_t>(dst);
      for (Outbox& box : boxes_) {
        std::vector<Outgoing>& lane = box.lanes[dst];
        for (Outgoing& o : lane) {
          deliver(dst_worker, o.dst, std::move(o.message));
        }
        lane.clear();
        std::vector<VertexId>& order = box.touch_order[dst];
        for (VertexId v : order) {
          deliver(dst_worker, v, std::move(box.slots[v]));
          box.touched[v] = kUntouched;
        }
        order.clear();
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(workers, deliver_to);
    } else {
      for (uint32_t dst = 0; dst < workers; ++dst) deliver_to(dst);
    }
    return totals;
  }

  /// Drops all buffered messages and resets every touched slot (failure
  /// rollback).
  void Clear() {
    for (Outbox& box : boxes_) {
      for (auto& lane : box.lanes) lane.clear();
      for (auto& order : box.touch_order) {
        for (VertexId v : order) box.touched[v] = kUntouched;
        order.clear();
      }
      std::fill(box.wire.begin(), box.wire.end(), 0);
      std::fill(box.logical.begin(), box.logical.end(), 0);
      box.mirrored = 0;
    }
  }

  uint32_t envelope_bytes() const { return envelope_bytes_; }
  ClusterRuntime* cluster() const { return cluster_; }

 private:
  struct Outgoing {
    VertexId dst;
    M message;
  };
  /// A combined slot's touched byte: untouched this step, touched by
  /// mirrored sends only, or priced as one wire message.
  static constexpr uint8_t kUntouched = 0;
  static constexpr uint8_t kTouched = 1;
  static constexpr uint8_t kWired = 2;
  /// Per-source-worker buffers; no locking needed because a worker only
  /// writes its own.
  struct Outbox {
    std::vector<std::vector<Outgoing>> lanes;  // [dst worker]
    /// [dst worker] the vertices whose slots this step touched, in
    /// first-touch order.
    std::vector<std::vector<VertexId>> touch_order;
    std::vector<M> slots;           // [vertex]
    std::vector<uint8_t> touched;   // [vertex] kUntouched/kTouched/kWired
    std::vector<uint64_t> wire;     // [dst worker]
    std::vector<uint64_t> logical;  // [dst worker]
    uint64_t mirrored = 0;
  };

  ClusterRuntime* cluster_;
  uint32_t envelope_bytes_;
  VertexId num_vertices_;
  std::vector<Outbox> boxes_;
};

}  // namespace gal

#endif  // GAL_CLUSTER_EXCHANGE_H_
