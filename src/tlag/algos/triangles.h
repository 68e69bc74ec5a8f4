#ifndef GAL_TLAG_ALGOS_TRIANGLES_H_
#define GAL_TLAG_ALGOS_TRIANGLES_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "tlag/task_engine.h"

namespace gal {

/// The degree-oriented rows of a vertex range as one flat CSR, the one
/// orientation step every triangle counter shares: row v holds v's
/// neighbors u with (deg(u), u) > (deg(v), v), ascending and once each.
/// Probing the row of each u in v's row against v's row (MarkedRow
/// below) finds every triangle once, and out-degrees stay O(sqrt(|E|))
/// on any graph.
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
    Fill(begin, end, [&](VertexId v) {
      const uint32_t dv = degrees.Degree(v);
      const size_t start = cols_.size();
      rows.ForEachOutNeighbor(v, [&](VertexId u) {
        const uint32_t du = degrees.Degree(u);
        if ((du > dv || (du == dv && u > v)) &&
            (cols_.size() == start || cols_.back() != u)) {
          cols_.push_back(u);
        }
      });
    });
  }

  /// Rebuilds the block over [begin, end) from rows that are already
  /// oriented (an out-of-core job's oriented shard), keeping every
  /// neighbor: the block equals the one Build made them from.
  template <typename Rows>
  void Decode(const Rows& rows, VertexId begin, VertexId end) {
    Fill(begin, end, [&](VertexId v) {
      rows.ForEachOutNeighbor(v, [&](VertexId u) { cols_.push_back(u); });
    });
  }

  VertexId begin() const { return begin_; }
  VertexId end() const { return end_; }
  /// v's oriented row; v must lie in [begin(), end()).
  std::span<const VertexId> Row(VertexId v) const {
    const size_t r = v - begin_;
    return {cols_.data() + row_start_[r], row_start_[r + 1] - row_start_[r]};
  }

 private:
  /// Resets the block to [begin, end) and closes one row per vertex
  /// after append_row(v) has pushed its neighbors onto cols_.
  template <typename AppendRow>
  void Fill(VertexId begin, VertexId end, AppendRow&& append_row) {
    begin_ = begin;
    end_ = end;
    row_start_.assign(1, 0);
    cols_.clear();
    for (VertexId v = begin; v < end; ++v) {
      append_row(v);
      row_start_.push_back(cols_.size());
    }
  }

  VertexId begin_ = 0, end_ = 0;
  std::vector<size_t> row_start_;
  std::vector<VertexId> cols_;
};

/// The mark-and-probe join every triangle counter runs over OrientedRows:
/// one byte per vertex id, zero between joins, one per thread (|V| bytes
/// of vertex state, like PageRank's ranks, not adjacency). A join marks
/// v's oriented row once, reads the row of each u in it once and sums
/// that row's marks, then clears v's row: an oriented edge (v, u) costs
/// |Row(u)| byte loads and no branch per element.
class MarkedRow {
 public:
  explicit MarkedRow(VertexId num_vertices) : marks_(num_vertices, 0) {}

  /// Joins v's oriented `row` with the rows `block` holds: the u of `row`
  /// in [block.begin(), block.end()) are one run, as rows ascend, and
  /// each has block.Row(u) probed against row's marks. Marks `row` only
  /// when that run is non-empty, adds |block.Row(u)| to `ops` per u (one
  /// op per probed element), calls on_edge(u, block.Row(u), closed) while
  /// `row` is still marked, and returns the triangles closed.
  template <typename OnEdge>
  uint64_t Join(std::span<const VertexId> row, const OrientedRows& block,
                uint64_t& ops, OnEdge&& on_edge) {
    const auto first = std::lower_bound(row.begin(), row.end(), block.begin());
    const auto last = std::lower_bound(first, row.end(), block.end());
    if (first == last) return 0;
    uint8_t* marks = marks_.data();
    for (const VertexId w : row) marks[w] = 1;
    uint64_t triangles = 0;
    for (auto u = first; u != last; ++u) {
      const std::span<const VertexId> target = block.Row(*u);
      const uint64_t closed = Probe(target);
      ops += target.size();
      on_edge(*u, target, closed);
      triangles += closed;
    }
    for (const VertexId w : row) marks[w] = 0;
    return triangles;
  }

  uint64_t Join(std::span<const VertexId> row, const OrientedRows& block,
                uint64_t& ops) {
    return Join(row, block, ops,
                [](VertexId, std::span<const VertexId>, uint64_t) {});
  }

  /// 1 if w lies in the row being joined, else 0; valid inside on_edge.
  uint8_t Marked(VertexId w) const { return marks_[w]; }

 private:
  /// The marks of `target`'s elements, summed in four accumulators.
  uint64_t Probe(std::span<const VertexId> target) const {
    const uint8_t* marks = marks_.data();
    const VertexId* t = target.data();
    const size_t n = target.size();
    uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      c0 += marks[t[i]];
      c1 += marks[t[i + 1]];
      c2 += marks[t[i + 2]];
      c3 += marks[t[i + 3]];
    }
    for (; i < n; ++i) c0 += marks[t[i]];
    return c0 + c1 + c2 + c3;
  }

  std::vector<uint8_t> marks_;
};

/// Intersection-based triangle counting — the "one machine beats 1636"
/// side of the survey's §1 anecdote. Work is one mark probe per element
/// of Row(u) for every oriented edge (v, u) of OrientedRows, with *zero*
/// messages, versus the TLAV formulation's one message per wedge.
struct TriangleCountResult {
  uint64_t triangles = 0;
  /// Target-row elements probed by MarkedRow: the sum over oriented
  /// edges (v, u) of |Row(u)|. It depends only on the oriented rows, so
  /// the serial, task and out-of-core counters report the same value on
  /// one layout at any thread count, budget and GAL_SIMD setting; the
  /// unit to compare against TlavStats::total_messages.
  uint64_t intersection_ops = 0;
  double wall_seconds = 0.0;
  TaskEngineStats task_stats;  // zeroed for the serial variant

  /// Simulated-cluster attribution, populated only when
  /// TaskEngineConfig::cluster is set: every oriented adjacency row a
  /// task reads is charged to the row's home partition on the runtime's
  /// ledger, one message per row (a task sums its rows per home and
  /// charges each home once). `migrated_bytes` is the subset homed off the
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
