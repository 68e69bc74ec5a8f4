#include "match/join.h"

#include <algorithm>

namespace gal {

CandidateJoin::CandidateJoin(const Graph& data, const MatchPlan& plan,
                             const CandidateSets& candidates, bool induced)
    : data_(&data), plan_(&plan), induced_(induced),
      allowed_(plan.order.size()) {
  for (size_t i = 1; i < plan.order.size(); ++i) {
    allowed_[i] = FrontierBitmap(data.NumVertices());
    for (VertexId v : candidates.candidates[plan.order[i]]) allowed_[i].Set(v);
  }
}

void CandidateJoin::LocalCandidates(uint32_t position,
                                    std::span<const VertexId> mapped,
                                    std::vector<VertexId>& out,
                                    JoinScratch& scratch) const {
  const Graph& data = *data_;
  // BuildPlan places a backward neighbor before every non-first
  // position, so there is always at least one row.
  std::vector<VertexId>& anchors = scratch.anchors;
  anchors.clear();
  for (uint32_t j : plan_->backward_neighbors[position]) {
    anchors.push_back(mapped[j]);
  }
  std::sort(anchors.begin(), anchors.end(), [&data](VertexId a, VertexId b) {
    return data.Degree(a) < data.Degree(b);
  });

  std::span<const VertexId> joined =
      NeighborSetInto(data, anchors[0], scratch.rows.a);
  for (size_t i = 1; i < anchors.size(); ++i) {
    IntersectInto(joined, NeighborSetInto(data, anchors[i], scratch.rows.b),
                  scratch.next);
    scratch.acc.swap(scratch.next);
    joined = scratch.acc;
  }

  const FrontierBitmap& allowed = allowed_[position];
  out.resize(joined.size());
  size_t count = 0;
  for (VertexId v : joined) {
    if (allowed.Test(v)) out[count++] = v;
  }
  out.resize(count);
}

bool CandidateJoin::Admits(uint32_t position,
                           std::span<const VertexId> mapped,
                           VertexId v) const {
  for (uint32_t j = 0; j < position; ++j) {
    if (mapped[j] == v) return false;
  }
  // Restriction (lo, hi) means mapped[lo] < mapped[hi]; it is checked
  // when its later position is filled.
  for (const auto& [lo, hi] : plan_->order_restrictions) {
    if (position == hi && lo < hi && !(mapped[lo] < v)) return false;
    if (position == lo && hi < lo && !(v < mapped[hi])) return false;
  }
  if (induced_) {
    for (uint32_t j : plan_->backward_nonneighbors[position]) {
      if (data_->HasEdge(mapped[j], v)) return false;
    }
  }
  return true;
}

}  // namespace gal
