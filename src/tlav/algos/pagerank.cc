#include "tlav/algos/pagerank.h"

#include "common/fixed_point.h"
#include "ooc/sharded_graph.h"

namespace gal {
namespace {

/// Rank contributions travel as 2^-50 fixed-point integers
/// (common/fixed_point.h), so the reduction is exact in any order.
template <NeighborSource G>
struct PageRankProgram : public VertexProgram<double, uint64_t, G> {
  PageRankProgram(uint32_t iterations, double damping, AggregatorId dangling)
      : iterations_(iterations), damping_(damping), dangling_(dangling) {}

  void Compute(VertexHandle<double, uint64_t, G>& v,
               std::span<const uint64_t> messages) override {
    const double n = static_cast<double>(v.num_vertices());
    if (v.superstep() == 0) {
      v.value() = 1.0 / n;
    } else {
      uint64_t sum = 0;
      for (uint64_t m : messages) sum += m;
      // Dangling mass from the previous superstep is shared uniformly.
      // The aggregate holds an exact integer (fixed-point units).
      const double dangling = FromFixed(
          static_cast<uint64_t>(v.GetAggregate(dangling_))) / n;
      v.value() = (1.0 - damping_) / n + damping_ * (FromFixed(sum) + dangling);
    }
    if (v.superstep() < iterations_) {
      const uint32_t degree = v.Degree();
      if (degree > 0) {
        v.SendToAllNeighbors(ToFixed(v.value() / degree));
      } else {
        v.Aggregate(dangling_, static_cast<double>(ToFixed(v.value())));
      }
    } else {
      v.VoteToHalt();
    }
  }

  bool has_combiner() const override { return true; }
  uint64_t Combine(const uint64_t& a, const uint64_t& b) const override {
    return a + b;
  }

  uint32_t iterations_;
  double damping_;
  AggregatorId dangling_;
};

}  // namespace

template <NeighborSource G>
PageRankResult PageRank(const G& g, const PageRankOptions& options) {
  TlavEngine<double, uint64_t, G> engine(&g, options.engine);
  PageRankProgram<G> program(options.iterations, options.damping,
                             engine.RegisterAggregator(AggregateOp::kSum));
  PageRankResult result;
  result.stats = engine.Run(program);
  result.ranks = g.MapToOriginal(engine.values());
  return result;
}

template PageRankResult PageRank(const Graph&, const PageRankOptions&);
template PageRankResult PageRank(const ShardedGraph&, const PageRankOptions&);

}  // namespace gal
