#ifndef GAL_GRAPH_GENERATORS_H_
#define GAL_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// Synthetic graph generators. These stand in for the industrial graphs
/// used by the surveyed systems: R-MAT reproduces the power-law skew of
/// social networks (the regime where work stealing and sampling matter),
/// Erdős–Rényi gives density sweeps for the BFS-vs-DFS explosion
/// experiment, and planted partitions give labeled community structure
/// for GNN classification tasks. All generators are deterministic in
/// (parameters, seed).

/// G(n, p): each undirected pair is an edge with probability p.
/// Implemented with geometric skipping, so cost is O(|E|), not O(n^2).
Graph ErdosRenyi(VertexId n, double p, uint64_t seed);

/// R-MAT with 2^scale vertices and edge_factor * 2^scale edges, at
/// Graph500's quadrant probabilities (a, b, c, d) = (0.57, 0.19, 0.19,
/// 0.05). Duplicates/self-loops are dropped, so the realized edge count
/// is slightly below the nominal one.
Graph Rmat(uint32_t scale, uint32_t edge_factor, uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices. Produces heavy-tailed degrees with a
/// deterministic hub set, the worst case for static task partitioning.
Graph BarabasiAlbert(VertexId n, uint32_t attach, uint64_t seed);

/// Planted-partition (stochastic block model) graph with `communities`
/// equal-size blocks; intra-block edge probability p_in, inter p_out.
/// Vertex labels are set to the block id — ground truth for node
/// classification and community detection experiments.
Graph PlantedPartition(VertexId n, uint32_t communities, double p_in,
                       double p_out, uint64_t seed);

/// Watts–Strogatz small world: a ring lattice (each vertex joined to k
/// nearest neighbors, k even) with each edge rewired with probability
/// beta. beta=0 keeps the high-clustering lattice; beta=1 approaches a
/// random graph — the classic clustering-vs-diameter testbed for motif
/// statistics.
Graph WattsStrogatz(VertexId n, uint32_t k, double beta, uint64_t seed);

/// Deterministic topologies used by tests and the complexity bench.
Graph Path(VertexId n);
Graph Cycle(VertexId n);
Graph Star(VertexId n);           // vertex 0 is the hub
Graph Complete(VertexId n);
Graph Grid(VertexId rows, VertexId cols);

/// Assigns labels uniformly from [0, num_labels) — used to make any graph
/// usable by labeled matching / FSM. Modifies and returns the graph.
Graph WithRandomLabels(Graph g, uint32_t num_labels, uint64_t seed);

}  // namespace gal

#endif  // GAL_GRAPH_GENERATORS_H_
