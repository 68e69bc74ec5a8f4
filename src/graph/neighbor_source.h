#ifndef GAL_GRAPH_NEIGHBOR_SOURCE_H_
#define GAL_GRAPH_NEIGHBOR_SOURCE_H_

#include <concepts>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// How one BSP worker reads a source's rows during a step. The BSP
/// engines read every row of a worker's step through the worker's
/// reader and call Release() when the step ends. An in-memory Graph is
/// its own reader (this primary template, which holds nothing); a
/// source whose rows must be pinned specializes it (ShardedGraph).
template <typename G>
class RowReader {
 public:
  explicit RowReader(const G& g) : g_(&g) {}

  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) {
    g_->ForEachOutNeighbor(v, std::forward<Fn>(fn));
  }
  std::span<const VertexId> NeighborsInto(VertexId v,
                                          std::vector<VertexId>& scratch) {
    return g_->NeighborsInto(v, scratch);
  }
  void Release() {}

 private:
  const G* g_;
};

/// A graph the BSP engines run over: Graph's sizes, degrees and row
/// forms, and a RowReader. Graph and ShardedGraph are the two.
template <typename G>
concept NeighborSource = requires(const G& g, RowReader<G>& reader,
                                  VertexId v, std::vector<VertexId>& row) {
  { g.NumVertices() } -> std::convertible_to<VertexId>;
  { g.NumAdjacencyEntries() } -> std::convertible_to<EdgeId>;
  { g.Degree(v) } -> std::convertible_to<uint32_t>;
  g.ForEachOutNeighbor(v, [](VertexId) {});
  reader.ForEachOutNeighbor(v, [](VertexId) {});
  { reader.NeighborsInto(v, row) } -> std::same_as<std::span<const VertexId>>;
  reader.Release();
};

}  // namespace gal

#endif  // GAL_GRAPH_NEIGHBOR_SOURCE_H_
