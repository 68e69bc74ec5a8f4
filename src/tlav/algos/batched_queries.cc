#include "tlav/algos/batched_queries.h"

#include <algorithm>

#include "tlav/algos/traversal.h"

namespace gal {
namespace {

/// Message: a frontier update of one query.
struct QueryMsg {
  uint32_t query;
  uint32_t distance;
};

/// Vertex value is unused; per-(query, vertex) distances live in one
/// shared table. A vertex's row slice is only written while that vertex
/// computes, so no locking is needed.
struct QueryBatchProgram : public VertexProgram<uint8_t, QueryMsg> {
  QueryBatchProgram(const std::vector<VertexId>* sources,
                    std::vector<std::vector<uint32_t>>* distances)
      : sources_(sources), distances_(distances) {}

  void Compute(VertexHandle<uint8_t, QueryMsg>& v,
               std::span<const QueryMsg> messages) override {
    if (v.superstep() == 0) {
      for (uint32_t q = 0; q < sources_->size(); ++q) {
        if ((*sources_)[q] == v.id()) {
          (*distances_)[q][v.id()] = 0;
          v.SendToAllNeighbors({q, 1});
        }
      }
      v.VoteToHalt();
      return;
    }
    // Relax each query's frontier independently; forward improvements.
    for (const QueryMsg& m : messages) {
      uint32_t& cell = (*distances_)[m.query][v.id()];
      if (m.distance < cell) {
        cell = m.distance;
        v.SendToAllNeighbors({m.query, m.distance + 1});
      }
    }
    v.VoteToHalt();
  }

  const std::vector<VertexId>* sources_;
  std::vector<std::vector<uint32_t>>* distances_;
};

}  // namespace

BatchedBfsResult BatchedBfsQueries(const Graph& g,
                                   const std::vector<VertexId>& sources,
                                   const TlavConfig& config) {
  BatchedBfsResult result;
  result.queries = static_cast<uint32_t>(sources.size());
  result.distances.assign(sources.size(),
                          std::vector<uint32_t>(g.NumVertices(),
                                                kUnreachable));
  // Sources and distances are in original-id space; the engine runs in
  // the (possibly reordered) internal layout.
  std::vector<VertexId> internal_sources;
  internal_sources.reserve(sources.size());
  for (VertexId s : sources) internal_sources.push_back(g.InternalId(s));
  TlavEngine<uint8_t, QueryMsg> engine(&g, config);
  QueryBatchProgram program(&internal_sources, &result.distances);
  result.stats = engine.Run(program);
  for (std::vector<uint32_t>& d : result.distances) {
    d = g.MapToOriginal(std::move(d));
  }
  return result;
}

BatchedBfsResult SequentialBfsQueries(const Graph& g,
                                      const std::vector<VertexId>& sources,
                                      const TlavConfig& config) {
  BatchedBfsResult result;
  result.queries = static_cast<uint32_t>(sources.size());
  // The same program with a batch of one: each query pays its own BSP
  // schedule, and superstep sharing is the only factor that differs from
  // BatchedBfsQueries (same messages on the wire, no combiner on either).
  for (VertexId s : sources) {
    BatchedBfsResult one = BatchedBfsQueries(g, {s}, config);
    result.distances.push_back(std::move(one.distances[0]));
    result.stats.supersteps += one.stats.supersteps;
    result.stats.total_messages += one.stats.total_messages;
    result.stats.cross_worker_messages += one.stats.cross_worker_messages;
    result.stats.total_message_bytes += one.stats.total_message_bytes;
    result.stats.cross_worker_bytes += one.stats.cross_worker_bytes;
    result.stats.vertex_activations += one.stats.vertex_activations;
    result.stats.wall_seconds += one.stats.wall_seconds;
  }
  return result;
}

}  // namespace gal
