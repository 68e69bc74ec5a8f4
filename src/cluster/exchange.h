#ifndef GAL_CLUSTER_EXCHANGE_H_
#define GAL_CLUSTER_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "graph/graph.h"

namespace gal {

/// Typed bulk-synchronous message exchange over a ClusterRuntime: the
/// communication step of one BSP superstep. Producers buffer messages
/// per (source worker, destination worker) lane during the compute
/// phase; Flush() charges the wire traffic to the runtime's
/// TrafficLedger and hands every message to the caller's deliver
/// callback.
///
/// Ordering contract: within one destination worker, messages are
/// delivered in ascending source-worker order, and within one
/// (src, dst) lane in send order (seq). That order depends only on the
/// send sequence — not on how many host threads executed the compute
/// phase — so engine results and stats stay bit-identical at any thread
/// count.
///
/// Thread safety: Send/AddWire/NoteMirroredDelivery touch only the
/// source worker's buffers, so the usual BSP discipline (each simulated
/// worker driven by one host thread at a time) needs no locks. Flush
/// delivers destination workers in parallel on the caller's pool;
/// distinct destinations never share a lane.
///
/// Combining (Pregel's optimization): with a combiner installed, sends
/// fold sender-side into one slot per (destination worker, destination
/// vertex); Flush delivers one message per slot and the wire cost counts
/// slots, not sends. Mirrored sends (Pregel+ hub broadcasts) ride the
/// per-worker mirror message accounted via AddWire, so they do not add
/// per-vertex wire cost.
template <typename M>
class ExchangeChannel {
 public:
  using Combiner = std::function<M(const M&, const M&)>;
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
  ExchangeChannel(ClusterRuntime* cluster, uint32_t envelope_bytes)
      : cluster_(cluster), envelope_bytes_(envelope_bytes) {
    GAL_CHECK(cluster_ != nullptr);
    const uint32_t workers = cluster_->num_workers();
    boxes_.resize(workers);
    for (Outbox& box : boxes_) {
      box.lanes.assign(workers, {});
      box.combined.assign(workers, {});
      box.wire.assign(workers, 0);
      box.logical.assign(workers, 0);
      box.mirrored = 0;
    }
  }

  /// Installs (or clears, with nullptr) the combiner for the coming
  /// supersteps and drops any buffered messages.
  void Begin(Combiner combiner) {
    combiner_ = std::move(combiner);
    Clear();
  }

  /// Buffers one message from src worker to `dst_vertex` on dst worker.
  /// `mirrored` marks deliveries that ride a mirror broadcast's single
  /// per-worker wire message.
  void Send(uint32_t src, uint32_t dst_worker, VertexId dst_vertex,
            const M& message, bool mirrored = false) {
    Outbox& box = boxes_[src];
    ++box.logical[dst_worker];
    if (combiner_) {
      auto [it, inserted] = box.combined[dst_worker].emplace(
          dst_vertex, CombinedSlot{message, 0});
      if (!inserted) {
        it->second.message = combiner_(it->second.message, message);
      }
      if (!mirrored) it->second.non_mirrored = 1;
      return;
    }
    if (!mirrored) ++box.wire[dst_worker];
    box.lanes[dst_worker].push_back({dst_vertex, message});
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
        // Wire cost: one per mirror broadcast (already in wire[]) plus,
        // with a combiner, one per combined slot that a non-mirrored
        // send touched; without one, every non-mirrored send.
        uint64_t wire = box.wire[dst];
        if (combiner_) {
          for (const auto& [v, slot] : box.combined[dst]) {
            wire += slot.non_mirrored;
          }
        }
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
      for (uint32_t src = 0; src < workers; ++src) {
        Outbox& box = boxes_[src];
        std::vector<Outgoing>& lane = box.lanes[dst];
        for (Outgoing& o : lane) {
          deliver(static_cast<uint32_t>(dst), o.dst, std::move(o.message));
        }
        lane.clear();
        auto& combined = box.combined[dst];
        for (auto& [v, slot] : combined) {
          deliver(static_cast<uint32_t>(dst), v, std::move(slot.message));
        }
        combined.clear();
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(workers, deliver_to);
    } else {
      for (uint32_t dst = 0; dst < workers; ++dst) deliver_to(dst);
    }
    return totals;
  }

  /// Drops all buffered messages (failure rollback).
  void Clear() {
    for (Outbox& box : boxes_) {
      for (auto& lane : box.lanes) lane.clear();
      for (auto& slots : box.combined) slots.clear();
      std::fill(box.wire.begin(), box.wire.end(), 0);
      std::fill(box.logical.begin(), box.logical.end(), 0);
      box.mirrored = 0;
    }
  }

  bool has_combiner() const { return static_cast<bool>(combiner_); }
  uint32_t envelope_bytes() const { return envelope_bytes_; }
  ClusterRuntime* cluster() const { return cluster_; }

 private:
  struct Outgoing {
    VertexId dst;
    M message;
  };
  /// Combined slot: folded message + whether any non-mirrored send
  /// touched it.
  struct CombinedSlot {
    M message;
    uint8_t non_mirrored = 0;
  };
  /// Per-source-worker buffers, one lane per destination worker; no
  /// locking needed because a worker only appends to its own buffers.
  struct Outbox {
    std::vector<std::vector<Outgoing>> lanes;                          // [dst]
    std::vector<std::unordered_map<VertexId, CombinedSlot>> combined;  // [dst]
    std::vector<uint64_t> wire;                                        // [dst]
    std::vector<uint64_t> logical;                                     // [dst]
    uint64_t mirrored = 0;
  };

  ClusterRuntime* cluster_;
  uint32_t envelope_bytes_;
  Combiner combiner_;
  std::vector<Outbox> boxes_;
};

}  // namespace gal

#endif  // GAL_CLUSTER_EXCHANGE_H_
