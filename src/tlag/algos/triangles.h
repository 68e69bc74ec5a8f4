#ifndef GAL_TLAG_ALGOS_TRIANGLES_H_
#define GAL_TLAG_ALGOS_TRIANGLES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "tlag/task_engine.h"

namespace gal {

/// The degree-oriented rows of a vertex range as one flat CSR, the one
/// orientation step every triangle counter shares: row v holds v's
/// neighbors u with (deg(u), u) > (deg(v), v), ascending and once each.
/// Intersecting v's row with the row of each u in it finds every
/// triangle once, and out-degrees stay O(sqrt(|E|)) on any graph.
class OrientedRows {
 public:
  /// Rebuilds the block over [begin, end) from any `rows` whose
  /// ForEachOutNeighbor streams sorted rows (a Graph, or a PinnedShard
  /// over its range), ranked by `degrees.Degree`. A parallel edge repeats
  /// the neighbor just kept and is skipped: a multigraph counts its
  /// distinct triangles.
  template <typename Rows, typename Degrees>
  void Build(const Rows& rows, const Degrees& degrees, VertexId begin,
             VertexId end) {
    begin_ = begin;
    end_ = end;
    row_start_.assign(1, 0);
    cols_.clear();
    for (VertexId v = begin; v < end; ++v) {
      const uint32_t dv = degrees.Degree(v);
      const size_t start = cols_.size();
      rows.ForEachOutNeighbor(v, [&](VertexId u) {
        const uint32_t du = degrees.Degree(u);
        if ((du > dv || (du == dv && u > v)) &&
            (cols_.size() == start || cols_.back() != u)) {
          cols_.push_back(u);
        }
      });
      row_start_.push_back(cols_.size());
    }
  }

  VertexId begin() const { return begin_; }
  VertexId end() const { return end_; }
  /// v's oriented row; v must lie in [begin(), end()).
  std::span<const VertexId> Row(VertexId v) const {
    const size_t r = v - begin_;
    return {cols_.data() + row_start_[r], row_start_[r + 1] - row_start_[r]};
  }

 private:
  VertexId begin_ = 0, end_ = 0;
  std::vector<size_t> row_start_;
  std::vector<VertexId> cols_;
};

/// Intersection-based triangle counting — the "one machine beats 1636"
/// side of the survey's §1 anecdote. Work is Σ_v d+(v)² intersections
/// over OrientedRows with *zero* messages, versus the TLAV formulation's
/// one message per wedge.
struct TriangleCountResult {
  uint64_t triangles = 0;
  /// Adjacency elements touched by the merge intersections; the unit to
  /// compare against TlavStats::total_messages.
  uint64_t intersection_ops = 0;
  double wall_seconds = 0.0;
  TaskEngineStats task_stats;  // zeroed for the serial variant

  /// Simulated-cluster attribution, populated only when
  /// TaskEngineConfig::cluster is set: every oriented adjacency row a
  /// task intersects is charged to the row's home partition on the
  /// runtime's ledger. `migrated_bytes` is the subset homed off the
  /// executing worker — what a real cluster would move. Each of the
  /// job's rounds (one in a clean run) ends on the RoundBarrier as a
  /// VirtualClock round of max worker busy + transfer time.
  uint64_t data_touched_bytes = 0;
  uint64_t migrated_bytes = 0;
  double modeled_seconds = 0.0;

  /// Fault-tolerance accounting (cluster/checkpoint.h), populated when
  /// the config carries an active FaultPlan and a cluster: the vertex
  /// tasks run as at most 16 chunk-rounds with the folded {triangles, ops}
  /// totals checkpointed at the barrier, so an injected worker failure
  /// replays only the chunks since the last checkpoint and the final
  /// counts stay bit-identical to the failure-free run.
  uint32_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t restored_bytes = 0;
  uint32_t failures_recovered = 0;
  uint32_t recomputed_rounds = 0;
};

/// Single-threaded external-memory-style pass (Chu & Cheng's serial
/// contender).
TriangleCountResult SerialTriangleCount(const Graph& g);

/// The same algorithm as per-vertex tasks on the work-stealing engine.
TriangleCountResult TaskTriangleCount(const Graph& g,
                                      const TaskEngineConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAG_ALGOS_TRIANGLES_H_
