#ifndef GAL_GNN_DEEPWALK_H_
#define GAL_GNN_DEEPWALK_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"
#include "tlav/engine.h"

namespace gal {

/// DeepWalk / node2vec vertex embeddings — the topology-only embedding
/// path of Figure 1 ("vertex embeddings can be learned from the graph
/// topology as in DeepWalk and node2vec"). DeepWalk's uniform walks
/// (node2vec's p = q = 1) are generated on the TLAV engine (walkers are
/// messages); embeddings are trained with skip-gram + negative sampling
/// (SGNS) over a context window of 3 with 4 negatives per pair.
struct DeepWalkOptions {
  uint32_t dim = 32;
  uint32_t walks_per_vertex = 4;
  uint32_t walk_length = 8;
  uint32_t epochs = 2;
  float lr = 0.025f;
  uint64_t seed = 1;
  TlavConfig engine;
};

struct DeepWalkResult {
  Matrix embeddings;  // |V| x dim (the "input" table of SGNS)
  uint64_t walk_vertices = 0;
  uint64_t sgns_updates = 0;
  TlavStats walk_stats;
};

DeepWalkResult DeepWalkEmbeddings(const Graph& g,
                                  const DeepWalkOptions& options = {});

/// Second-order (node2vec) random-walk corpus on the TLAV engine:
/// walkers carry their previous vertex and choose the next one with the
/// p/q-biased distribution: return parameter p (likelihood of hopping
/// back) and in-out parameter q (<1 favors outward/DFS-like exploration,
/// >1 keeps walks local/BFS-like). p = q = 1 is DeepWalk's uniform
/// first-order walk. corpus[w] is walk w, seeded at vertex
/// w / walks_per_vertex; a walk that reaches a dead end stops there.
struct BiasedWalkResult {
  std::vector<std::vector<VertexId>> corpus;
  TlavStats stats;
};
BiasedWalkResult Node2VecWalks(const Graph& g, uint32_t walks_per_vertex,
                               uint32_t walk_length, double return_p,
                               double inout_q, uint64_t seed,
                               const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_GNN_DEEPWALK_H_
