#ifndef GAL_TLAG_BFS_ENGINE_H_
#define GAL_TLAG_BFS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// A partial subgraph instance: the vertex sequence in extension order.
using Embedding = std::vector<VertexId>;

/// What the BFS-extension engine should do when the materialized
/// frontier exceeds the memory budget — the design axis separating the
/// surveyed systems:
///   kStrict    — fail (a GPU system without host buffering, e.g. GSI
///                on an oversized input);
///   kSpill     — keep going but account the overflow as spilled to host
///                memory (G2-AIMD's host-memory subgraph buffering);
///   kHybridDfs — finish the affected embeddings by depth-first
///                extension, bounding memory (EGSM's BFS->DFS fallback).
enum class MemoryPolicy : uint8_t { kStrict, kSpill, kHybridDfs };

struct BfsEngineConfig {
  /// Budget for materialized embeddings, in bytes (0 = unlimited).
  /// Only embeddings that join a level count; final-size embeddings go
  /// straight to the output and are never held.
  uint64_t memory_budget_bytes = 0;
  MemoryPolicy policy = MemoryPolicy::kSpill;
};

struct BfsEngineStats {
  uint64_t embeddings_generated = 0;   // across all levels
  uint64_t peak_materialized = 0;      // embeddings held at once
  /// Peak *resident* footprint. Spilled embeddings live in host memory
  /// and count toward spilled_bytes instead, so under kSpill this stays
  /// within the budget (plus the root level if that alone exceeds it).
  uint64_t peak_bytes = 0;
  uint64_t spilled_bytes = 0;          // overflow beyond the budget
  uint64_t dfs_fallback_embeddings = 0;  // finished depth-first (hybrid)
  bool budget_exceeded = false;        // kStrict abort flag
};

/// Think-like-a-graph engine that grows subgraph instances
/// breadth-first: level k holds every valid embedding of size k, and
/// level k+1 is produced by extending each of them. This is the
/// Arabesque/RStream/Pangolin execution model; its defining cost — the
/// exponentially growing materialized frontier — is exactly what the
/// stats expose (and what bench_bfs_vs_dfs measures against the DFS
/// task engine).
class BfsExtensionEngine {
 public:
  /// Produces the candidate vertices extending `e`; must generate each
  /// *set* of vertices exactly once across orderings (canonical
  /// extension), e.g. "neighbors greater than the last vertex" for
  /// cliques.
  using ExtendFn =
      std::function<void(const Embedding& e, std::vector<VertexId>& out)>;
  /// Called for every embedding of target size.
  using OutputFn = std::function<void(const Embedding& e)>;

  explicit BfsExtensionEngine(BfsEngineConfig config) : config_(config) {}

  /// Grows from `roots` (size-1 embeddings) to `target_size`, invoking
  /// `output` on every embedding that reaches it (each root when
  /// `target_size` is 1). Returns run stats; with kStrict policy the
  /// run stops early once the budget trips (stats.budget_exceeded is
  /// set).
  BfsEngineStats Run(const std::vector<VertexId>& roots, uint32_t target_size,
                     const ExtendFn& extend, const OutputFn& output);

 private:
  /// Depth-first completion of one embedding (hybrid fallback).
  void DfsComplete(Embedding& e, uint32_t target_size, const ExtendFn& extend,
                   const OutputFn& output, BfsEngineStats& stats);

  BfsEngineConfig config_;
};

}  // namespace gal

#endif  // GAL_TLAG_BFS_ENGINE_H_
