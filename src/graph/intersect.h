#ifndef GAL_GRAPH_INTERSECT_H_
#define GAL_GRAPH_INTERSECT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// Unified sorted-adjacency intersection, the shared inner loop of
/// cliques, k-truss and matching (triangle counters run MarkedRow in
/// tlag/algos/triangles.h instead).
/// Inputs are strictly-ascending sorted id arrays (CSR adjacency rows
/// qualify). Strategy is adaptive:
///   - scalar two-pointer merge — the reference path, and the only one
///     used when simd::Enabled() is false (GAL_SIMD=0);
///   - galloping (exponential + binary search) when one side is >=32x
///     longer than the other — hub-vs-leaf intersections;
///   - AVX2 8x8 block compare otherwise.
/// All paths return identical elements/counts; only speed differs.

/// Number of common elements of a and b.
uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b);

/// Replaces `out` with the (ascending) common elements of a and b.
/// Reuses out's capacity — the scratch-buffer form for tight loops.
void IntersectInto(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>& out);

/// Returns the (ascending) common elements of a and b.
std::vector<VertexId> Intersect(std::span<const VertexId> a,
                                std::span<const VertexId> b);

/// True iff a and b share at least one element (early-exit merge — the
/// membership-probe form matching uses for witness checks where only
/// existence matters).
bool IntersectAny(std::span<const VertexId> a, std::span<const VertexId> b);

// --- decode-into-scratch forms (compressed CSR) ----------------------------
//
// When the graph stores its adjacency delta-varint compressed
// (GraphOptions::compression), rows are not spans; these overloads
// decode the needed row(s) into caller-owned scratch and then run the
// exact same scalar/galloping/AVX2 kernels above. On an uncompressed
// graph NeighborsInto returns the raw CSR row and the scratch is never
// touched, so the overloads cost nothing extra — call sites can be
// written once, compression-obliviously.

/// v's row as a set, the form the kernels above take. Usually the row
/// itself (decoded into `buf` on a compressed layout); on a graph that
/// lists a neighbor twice (Graph::HasRepeatedNeighbors, a `dedup =
/// false` build) the row is copied into `buf` without the repeats. The
/// graph-row overloads below read every row through this.
std::span<const VertexId> NeighborSetInto(const Graph& g, VertexId v,
                                          std::vector<VertexId>& buf);

/// Two decode rows for intersection-style call sites that hold two
/// adjacency lists live at once. Reused across calls (steady-state
/// zero-allocation); one per worker/thread — never share across threads.
struct NeighborScratch {
  std::vector<VertexId> a;
  std::vector<VertexId> b;
};

/// |N(u) ∩ N(v)| over graph rows.
uint64_t IntersectCount(const Graph& g, VertexId u, VertexId v,
                        NeighborScratch& scratch);

/// |a ∩ N(v)| — one materialized side, one graph row.
uint64_t IntersectCount(std::span<const VertexId> a, const Graph& g,
                        VertexId v, NeighborScratch& scratch);

/// out = a ∩ N(v). `out` must not alias scratch.b (it may be scratch.a's
/// sibling in a different NeighborScratch).
void IntersectInto(std::span<const VertexId> a, const Graph& g, VertexId v,
                   std::vector<VertexId>& out, NeighborScratch& scratch);

/// True iff a ∩ N(v) is non-empty.
bool IntersectAny(std::span<const VertexId> a, const Graph& g, VertexId v,
                  NeighborScratch& scratch);

}  // namespace gal

#endif  // GAL_GRAPH_INTERSECT_H_
