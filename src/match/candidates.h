#ifndef GAL_MATCH_CANDIDATES_H_
#define GAL_MATCH_CANDIDATES_H_

#include <vector>

#include "graph/graph.h"

namespace gal {

/// Per-query-vertex candidate sets, the filtering stage every surveyed
/// matching system runs before enumeration (GSI's encoding filters,
/// EGSM's candidate graphs, G-thinkerQ's pruning).
struct CandidateSets {
  /// candidates[u] = sorted data vertices that may host query vertex u.
  std::vector<std::vector<VertexId>> candidates;

  uint64_t TotalSize() const {
    uint64_t s = 0;
    for (const auto& c : candidates) s += c.size();
    return s;
  }
};

/// LDF (label & degree filter): data vertex v hosts u only if labels
/// match (when both graphs are labeled) and deg(v) >= deg(u).
CandidateSets LdfFilter(const Graph& data, const Graph& query);

/// NLF (neighbor label frequency): LDF plus, for every label l, v must
/// have at least as many l-labeled neighbors as u does. Strictly
/// stronger than LDF on labeled graphs; LdfFilter when either graph is
/// unlabeled. Both matchers filter with it.
CandidateSets NlfFilter(const Graph& data, const Graph& query);

/// Iterated edge-consistency refinement of candidate sets (the
/// candidate-graph pruning of EGSM / GraphQL-style filters): v stays a
/// candidate of u only if, for every query neighbor u' of u, v has at
/// least one data neighbor in C(u'). Applied to fixpoint (or
/// max_rounds). Sound: never removes a vertex that participates in any
/// match.
struct RefineStats {
  uint32_t rounds = 0;
  uint64_t removed = 0;
};
RefineStats RefineCandidates(const Graph& data, const Graph& query,
                             CandidateSets* sets, uint32_t max_rounds = 8);

}  // namespace gal

#endif  // GAL_MATCH_CANDIDATES_H_
