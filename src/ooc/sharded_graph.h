#ifndef GAL_OOC_SHARDED_GRAPH_H_
#define GAL_OOC_SHARDED_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/virtual_clock.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/neighbor_source.h"
#include "ooc/shard_cache.h"
#include "ooc/shard_format.h"
#include "partition/partition.h"

namespace gal {

/// Writer knob: target varint bytes per shard. The `GAL_OOC_SHARD_BYTES`
/// environment variable, when set, overrides this at every Write call
/// (the forced-tiny-shards lever scripts/check.sh pulls).
struct ShardWriterOptions {
  uint64_t target_shard_bytes = 1ull << 20;
};

/// Open-time knobs of the out-of-core store. The `GAL_OOC_BUDGET_BYTES`
/// environment variable, when set, overrides memory_budget_bytes for
/// every Open call; an env-forced budget is clamped UP to the largest
/// shard's resident bytes (so `GAL_OOC_BUDGET_BYTES=1` means "as
/// out-of-core as possible", not "unopenable"), whereas an explicit
/// too-small option is an InvalidArgument Status — a programming error
/// should fail loudly, a kill switch should always run.
struct OocOptions {
  /// Adjacency bytes allowed resident at once; 0 = unlimited. Vertex
  /// state (degrees, ranks, labels) is deliberately outside the budget,
  /// matching GraphChi's "vertex values in RAM, edges on disk" split.
  uint64_t memory_budget_bytes = 0;
  /// Modeled disk: a shard load is charged latency + bytes/bandwidth on
  /// the store's VirtualClock. Defaults approximate one NVMe drive.
  double disk_bandwidth_bytes_per_sec = 2.0e9;
  double disk_latency_seconds = 100e-6;
};

/// Resolves the effective writer shard size / open budget against the
/// environment (exposed for tests). A knob must hold a whole
/// non-negative integer; any other value warns once and keeps
/// `requested`.
uint64_t ResolveOocShardBytes(uint64_t requested);
uint64_t ResolveOocBudgetBytes(uint64_t requested, uint64_t min_feasible,
                               bool* env_forced = nullptr);

/// What WriteShardedGraph produced — the numbers a caller needs to pick
/// a sensible budget before Open.
struct ShardWriteSummary {
  uint32_t num_shards = 0;
  uint64_t total_adj_bytes = 0;
  uint64_t max_shard_resident_bytes = 0;
};

/// Partitions a graph's (reorder-permuted, delta-varint) adjacency into
/// contiguous vertex-range shards of ~target_shard_bytes each and
/// serializes them next to a manifest at `base_path`. Works on raw and
/// compressed graphs alike (rows are re-encoded through the same
/// delta-varint coder, so both layouts produce identical shard files).
/// The reorder permutation, per-vertex degrees, and edge counts ride in
/// the manifest, so ShardedGraph can answer Degree()/MapToOriginal()
/// without touching a shard.
Result<ShardWriteSummary> WriteShardedGraph(
    const Graph& g, const std::string& base_path,
    const ShardWriterOptions& options = {});

/// Deletes the manifest and every shard file of a shard set (best
/// effort; missing files are ignored). Tests and benches use this for
/// temp-dir hygiene.
void RemoveShardedGraphFiles(const std::string& base_path);

/// A disk-resident graph: the same compression-oblivious access forms
/// as Graph (ForEachOutNeighbor / NeighborCursor / NeighborsInto),
/// backed by a ShardCache that keeps at most memory_budget_bytes of
/// adjacency resident. Open validates the manifest and every shard file
/// (sizes, footers, checksums) before trusting anything — corrupt or
/// truncated inputs are a Status, never a crash.
///
/// Random-access forms pin the owning shard transiently; the BSP
/// engines read rows through RowReader<ShardedGraph>, one pin per
/// worker. The store owns a VirtualClock priced as a disk (latency +
/// bytes/bandwidth) that each out-of-core job charges one round,
/// putting modeled I/O time on the same axis as the cluster engines'
/// modeled network time.
class ShardedGraph {
 public:
  static Result<ShardedGraph> Open(const std::string& base_path,
                                   const OocOptions& options = {});

  ShardedGraph(ShardedGraph&&) = default;
  ShardedGraph& operator=(ShardedGraph&&) = default;

  VertexId NumVertices() const { return num_vertices_; }
  EdgeId NumEdges() const { return num_edges_; }
  EdgeId NumAdjacencyEntries() const { return adjacency_entries_; }
  bool directed() const { return directed_; }
  uint32_t Degree(VertexId v) const { return degrees_[v]; }
  uint32_t MaxDegree() const { return max_degree_; }

  uint32_t NumShards() const { return static_cast<uint32_t>(infos_.size()); }
  const ShardInfo& shard(uint32_t s) const { return infos_[s]; }
  uint32_t ShardOf(VertexId v) const {
    // Shards cover [0, n) contiguously; binary search the begins.
    uint32_t lo = 0, hi = NumShards() - 1;
    while (lo < hi) {
      const uint32_t mid = (lo + hi + 1) / 2;
      if (infos_[mid].begin <= v) lo = mid;
      else hi = mid - 1;
    }
    return lo;
  }
  uint64_t TotalAdjacencyBytes() const { return total_adj_bytes_; }
  uint64_t MaxShardResidentBytes() const { return max_shard_resident_bytes_; }

  /// Pins shard s for the lifetime of the returned handle.
  PinnedShard Pin(uint32_t s) const {
    return PinnedShard(cache_.get(), s, delta_bias_);
  }

  /// Streams v's sorted neighbors through fn, pinning the owning shard
  /// transiently. Holds exactly one pin for the duration of the call.
  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) const {
    PinnedShard pin = Pin(ShardOf(v));
    pin.ForEachOutNeighbor(v, std::forward<Fn>(fn));
  }

  /// Owning cursor: keeps its shard pinned until destroyed, so the
  /// bytes it walks cannot be evicted mid-iteration.
  class NeighborCursor {
   public:
    bool Valid() const { return cur_.Valid(); }
    VertexId Get() const { return cur_.Get(); }
    void Next() { cur_.Next(); }

   private:
    friend class ShardedGraph;
    NeighborCursor(PinnedShard pin, VertexId v)
        : pin_(std::move(pin)), cur_(pin_.OutNeighbors(v)) {}
    PinnedShard pin_;
    PinnedShard::Cursor cur_;
  };
  NeighborCursor OutNeighbors(VertexId v) const {
    return NeighborCursor(Pin(ShardOf(v)), v);
  }

  /// Decodes v's row into `scratch` and returns a span over it; the span
  /// outlives the row's pin, so later shard traffic cannot invalidate it.
  std::span<const VertexId> NeighborsInto(VertexId v,
                                          std::vector<VertexId>& scratch) const {
    scratch.clear();
    ForEachOutNeighbor(v, [&](VertexId u) { scratch.push_back(u); });
    return {scratch.data(), scratch.size()};
  }

  // --- reorder permutation (mirrors Graph::MapToOriginal) -----------------
  bool IsReordered() const { return !to_original_.empty(); }
  VertexId OriginalId(VertexId v) const {
    return to_original_.empty() ? v : to_original_[v];
  }
  VertexId InternalId(VertexId v) const {
    return to_internal_.empty() ? v : to_internal_[v];
  }
  template <typename T>
  std::vector<T> MapToOriginal(std::vector<T> per_vertex) const {
    if (to_original_.empty()) return per_vertex;
    std::vector<T> out(per_vertex.size());
    for (size_t v = 0; v < per_vertex.size(); ++v) {
      out[to_original_[v]] = std::move(per_vertex[v]);
    }
    return out;
  }

  ShardCache& cache() const { return *cache_; }
  VirtualClock& clock() const { return *clock_; }

 private:
  ShardedGraph() = default;

  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  EdgeId adjacency_entries_ = 0;
  bool directed_ = false;
  uint32_t delta_bias_ = 0;
  uint32_t max_degree_ = 0;
  uint64_t total_adj_bytes_ = 0;
  uint64_t max_shard_resident_bytes_ = 0;
  std::vector<ShardInfo> infos_;
  std::vector<uint32_t> degrees_;
  std::vector<VertexId> to_original_;  // empty when not reordered
  std::vector<VertexId> to_internal_;
  std::unique_ptr<ShardCache> cache_;
  std::unique_ptr<VirtualClock> clock_;  // priced as the modeled disk
};

/// A BSP worker's reader of the store's rows. It holds at most one pin,
/// released before the next shard is pinned and when the worker's step
/// ends: the ShardCache's one-pin-per-thread rule, so a one-shard budget
/// cannot deadlock. Rows read in ascending id pin each shard once.
template <>
class RowReader<ShardedGraph> {
 public:
  explicit RowReader(const ShardedGraph& g) : g_(&g) {}

  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) {
    if (!pin_.Contains(v)) {
      Release();
      pin_ = g_->Pin(g_->ShardOf(v));
    }
    pin_.ForEachOutNeighbor(v, std::forward<Fn>(fn));
  }
  std::span<const VertexId> NeighborsInto(VertexId v,
                                          std::vector<VertexId>& scratch) {
    scratch.clear();
    ForEachOutNeighbor(v, [&](VertexId u) { scratch.push_back(u); });
    return {scratch.data(), scratch.size()};
  }
  void Release() { pin_ = PinnedShard(); }

 private:
  const ShardedGraph* g_;
  PinnedShard pin_;
};

/// The store's placement for the BSP engines: a range partition aligned
/// to its shards, each worker taking an ascending run of whole shards.
inline VertexPartition DefaultPlacement(const ShardedGraph& g,
                                        uint32_t workers) {
  VertexPartition p{workers, std::vector<uint32_t>(g.NumVertices())};
  for (uint32_t s = 0; s < g.NumShards(); ++s) {
    std::fill(p.assignment.begin() + g.shard(s).begin,
              p.assignment.begin() + g.shard(s).end,
              static_cast<uint32_t>(uint64_t{s} * workers / g.NumShards()));
  }
  return p;
}

}  // namespace gal

#endif  // GAL_OOC_SHARDED_GRAPH_H_
