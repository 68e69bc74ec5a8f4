#include "tlav/algos/traversal.h"

#include <string>
#include <utility>

#include "frontier/traversal.h"

namespace gal {
namespace {

/// The checks every traversal request shares: an in-range source and a
/// config the frontier substrate models.
Status ValidateTraversal(const Graph& g, VertexId source,
                         const TlavConfig& engine) {
  if (source >= g.NumVertices()) {
    return Status::InvalidArgument(
        "traversal source " + std::to_string(source) +
        " out of range for |V|=" + std::to_string(g.NumVertices()));
  }
  return CheckFrontierConfig(engine);
}

}  // namespace

uint32_t SyntheticEdgeWeight(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  uint64_t x = (static_cast<uint64_t>(u) << 32) | v;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % 16) + 1;
}

// Callers address vertices in original-id space; the substrate runs in
// the (possibly reordered) internal layout, so the source is translated
// on the way in and per-vertex results are permuted back on the way out.

BfsResult TlavBfs(const Graph& g, VertexId source,
                  const TraversalOptions& options) {
  BfsResult result;
  result.status = ValidateTraversal(g, source, options.engine);
  if (!result.status.ok()) return result;
  result.distance = g.MapToOriginal(FrontierBfs(
      g, g.InternalId(source), options.engine, options.direction,
      result.stats));
  return result;
}

BfsResult TlavBfs(const Graph& g, VertexId source, const TlavConfig& config) {
  TraversalOptions options;
  options.engine = config;
  return TlavBfs(g, source, options);
}

SsspResult TlavSssp(const Graph& g, VertexId source,
                    const TraversalOptions& options) {
  SsspResult result;
  result.status = ValidateTraversal(g, source, options.engine);
  if (!result.status.ok()) return result;
  result.distance = g.MapToOriginal(
      FrontierSssp(g, g.InternalId(source), &SyntheticEdgeWeight,
                   options.engine, result.stats));
  return result;
}

SsspResult TlavSssp(const Graph& g, VertexId source, const TlavConfig& config) {
  TraversalOptions options;
  options.engine = config;
  return TlavSssp(g, source, options);
}

}  // namespace gal
