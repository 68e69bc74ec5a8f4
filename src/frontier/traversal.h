#ifndef GAL_FRONTIER_TRAVERSAL_H_
#define GAL_FRONTIER_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "frontier/direction.h"
#include "graph/graph.h"
#include "tlav/bsp_runtime.h"

namespace gal {

/// The frontier substrate's traversal kernels: the one engine under
/// TlavBfs, TlavSssp and Wcc (tlav/algos/), which validate the request,
/// translate ids and canonicalize labels around these calls. Each kernel
/// runs in g's internal id space as level-synchronous BSP steps on the
/// BspRuntime (tlav/bsp_runtime.h) that TlavEngine also runs on: it
/// resolves `config`'s simulated cluster and width, drives
/// `config.faults` at every step barrier, and fills `stats` with
/// TlavStats semantics (per-step work, payload bytes, this run's ledger
/// and clock deltas, the fault accounting). Push steps send through an
/// ExchangeChannel with no combiner. Results are bit-identical across
/// direction schedules, worker counts, host thread counts and fault
/// schedules.

/// Rejects the TlavConfig features the substrate does not model: Pregel+
/// mirroring (`mirror_degree_threshold != 0`) is a TlavEngine feature
/// for broadcast programs, and a traversal must not silently drop it.
Status CheckFrontierConfig(const TlavConfig& config);

/// Direction-optimizing BFS (Beamer-style): push steps scatter the
/// frontier over out-edges; pull steps gather over Graph::ReversedView()
/// in-edges with first-hit early exit. Returns hop distances
/// (UINT32_MAX if not reached); `source` must be in range.
std::vector<uint32_t> FrontierBfs(const Graph& g, VertexId source,
                                  const TlavConfig& config,
                                  const DirectionConfig& direction,
                                  TlavStats& stats);

/// Hash-min connected components of an undirected neighbor source `ug`
/// (Wcc passes Graph::UndirectedView(), so directed graphs get *weak*
/// components). Push steps scatter changed labels, each worker's
/// frontier in ascending id; pull steps gather the neighborhood minimum
/// under the frontier bitmap. Every row a step reads goes through its
/// worker's RowReader. Returns each vertex's component minimum internal
/// id. Instantiated for Graph and ShardedGraph (OocWcc).
template <NeighborSource G>
std::vector<VertexId> FrontierWcc(const G& ug, const TlavConfig& config,
                                  const DirectionConfig& direction,
                                  TlavStats& stats);

/// Bellman-Ford SSSP under `weight` (a function of ORIGINAL endpoint ids,
/// so every layout sees one weighted graph). Always scatters (a weighted
/// gather has no early exit); the frontier tracks improved vertices.
/// Returns distances (UINT64_MAX if not reached); `source` must be in
/// range.
using EdgeWeightFn = uint32_t (*)(VertexId, VertexId);
std::vector<uint64_t> FrontierSssp(const Graph& g, VertexId source,
                                   EdgeWeightFn weight,
                                   const TlavConfig& config,
                                   TlavStats& stats);

}  // namespace gal

#endif  // GAL_FRONTIER_TRAVERSAL_H_
