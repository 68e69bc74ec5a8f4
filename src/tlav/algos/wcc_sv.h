#ifndef GAL_TLAV_ALGOS_WCC_SV_H_
#define GAL_TLAV_ALGOS_WCC_SV_H_

#include <vector>

#include "graph/graph.h"
#include "partition/partition.h"
#include "tlav/engine.h"

namespace gal {

/// Connected components in O(log |V|) rounds by Shiloach–Vishkin-style
/// pointer jumping — the class of "Pregel algorithms with performance
/// guarantees" the survey's complexity bound refers to: each phase
/// halves the depth of the component forest, so even a path graph
/// finishes in logarithmically many phases (vs hash-min's Θ(|V|)).
///
/// Implemented as a sequence of TLAV-style phases over a parent array:
///   hook  — every vertex points its root to the smallest neighboring
///           root (min-hooking keeps the forest acyclic);
///   jump  — parent = parent(parent) until the forest is flat.
/// Rounds and per-round work are reported in the same units as
/// TlavStats so it is directly comparable with hash-min Wcc().
struct SvWccResult {
  std::vector<VertexId> component;
  uint32_t num_components = 0;
  /// Hook + jump phases executed (the "supersteps" of this algorithm).
  uint32_t rounds = 0;
  /// Total parent reads/writes — the O(|V|+|E|) per-round work measure.
  uint64_t work = 0;
};

SvWccResult SvWcc(const Graph& g);

/// Blogel-style block-centric WCC (Yan et al. [49]): partition the graph
/// into blocks (graph Voronoi), solve components *inside* each block
/// serially in one step, then run label propagation on the tiny block
/// quotient graph. Supersteps collapse from O(diameter) to
/// O(block-graph diameter) — the "think like a block" speedup.
struct BlockWccResult {
  std::vector<VertexId> component;
  uint32_t num_components = 0;
  uint32_t num_blocks = 0;
  /// Supersteps of the TLAV run over the block quotient graph.
  uint32_t block_supersteps = 0;
  TlavStats block_stats;
};

/// `num_blocks` seeds are chosen deterministically; pass the worker
/// count (or more) for a realistic Blogel configuration. The quotient
/// runs Wcc() with `config`, so a config Wcc() rejects (a non-zero
/// `mirror_degree_threshold`) is a fatal error here.
BlockWccResult BlockWcc(const Graph& g, uint32_t num_blocks,
                        const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_WCC_SV_H_
