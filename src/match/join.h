#ifndef GAL_MATCH_JOIN_H_
#define GAL_MATCH_JOIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "frontier/frontier.h"
#include "graph/graph.h"
#include "graph/intersect.h"
#include "match/candidates.h"
#include "match/plan.h"

namespace gal {

/// Buffers of one CandidateJoin::LocalCandidates call. The call consumes
/// them completely (nothing survives into the caller's recursion), so
/// one per thread suffices; never share one across threads.
struct JoinScratch {
  NeighborScratch rows;
  /// The running intersection and the next one (ping-pong).
  std::vector<VertexId> acc;
  std::vector<VertexId> next;
  /// Images of the backward neighbors, smallest degree first.
  std::vector<VertexId> anchors;
};

/// The extension step both matchers share (the DFS executor and the BFS
/// join executor): given a mapped prefix, the local candidates of the
/// next plan position, and the per-vertex predicates a join cannot
/// express. The candidate sets become one bitmap per plan position,
/// built once per match call after filtering and refinement.
class CandidateJoin {
 public:
  CandidateJoin(const Graph& data, const MatchPlan& plan,
                const CandidateSets& candidates, bool induced);

  /// Replaces `out` with the local candidates of `position` (>= 1):
  /// the data vertices adjacent to the image of every backward
  /// neighbor and present in C(order[position]). `mapped[j]` hosts
  /// plan position j for every j < position. The rows of the images are
  /// intersected smallest degree first with the adaptive IntersectInto,
  /// then filtered by the position's candidate bitmap. Output is
  /// strictly ascending: rows that repeat a neighbor (a graph built with
  /// `dedup = false`) are deduplicated before they are intersected, so
  /// each vertex comes out once.
  void LocalCandidates(uint32_t position, std::span<const VertexId> mapped,
                       std::vector<VertexId>& out,
                       JoinScratch& scratch) const;

  /// True iff local candidate `v` may host `position`: it is not mapped
  /// already, it obeys the plan's symmetry restrictions, and under
  /// induced matching no backward non-neighbor's image is adjacent.
  bool Admits(uint32_t position, std::span<const VertexId> mapped,
              VertexId v) const;

 private:
  const Graph* data_;
  const MatchPlan* plan_;
  bool induced_;
  /// allowed_[i] has bit v set iff v ∈ C(order[i]). Position 0 seeds
  /// the roots from its list and never joins, so its bitmap is empty.
  std::vector<FrontierBitmap> allowed_;
};

}  // namespace gal

#endif  // GAL_MATCH_JOIN_H_
