#include "gnn/deepwalk.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace gal {
namespace {

struct BiasedWalkerMsg {
  uint32_t walk_id;
  VertexId previous;  // kInvalidVertex on the first hop
};

uint64_t WalkHash(uint64_t seed, uint32_t walk_id, uint32_t step) {
  uint64_t x = seed ^ (static_cast<uint64_t>(walk_id) << 32) ^ (step + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct BiasedWalkProgram : public VertexProgram<uint8_t, BiasedWalkerMsg> {
  BiasedWalkProgram(const Graph* g, uint32_t walks_per_vertex,
                    uint32_t walk_length, double p, double q, uint64_t seed,
                    std::vector<std::vector<VertexId>>* corpus)
      : g_(g), walks_per_vertex_(walks_per_vertex),
        walk_length_(walk_length), p_(p), q_(q), seed_(seed),
        corpus_(corpus) {}

  void Compute(VertexHandle<uint8_t, BiasedWalkerMsg>& v,
               std::span<const BiasedWalkerMsg> messages) override {
    const uint32_t step = v.superstep();
    if (step == 0) {
      for (uint32_t k = 0; k < walks_per_vertex_; ++k) {
        const uint32_t walk_id = v.id() * walks_per_vertex_ + k;
        (*corpus_)[walk_id].push_back(v.id());
        Forward(v, walk_id, kInvalidVertex, 0);
      }
    } else {
      for (const BiasedWalkerMsg& m : messages) {
        (*corpus_)[m.walk_id].push_back(v.id());
        if (step < walk_length_) Forward(v, m.walk_id, m.previous, step);
      }
    }
    v.VoteToHalt();
  }

  void Forward(VertexHandle<uint8_t, BiasedWalkerMsg>& v, uint32_t walk_id,
               VertexId previous, uint32_t step) {
    const auto nbrs = v.Neighbors();
    if (nbrs.empty()) return;
    // node2vec weights: 1/p back to the previous vertex, 1 to common
    // neighbors of previous, 1/q to two-hops-away vertices.
    double total = 0.0;
    weights_.resize(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      double w = 1.0;
      if (previous != kInvalidVertex) {
        if (nbrs[i] == previous) {
          w = 1.0 / p_;
        } else if (!g_->HasEdge(previous, nbrs[i])) {
          w = 1.0 / q_;
        }
      }
      weights_[i] = w;
      total += w;
    }
    double pick = (WalkHash(seed_, walk_id, step) >> 11) *
                  (1.0 / 9007199254740992.0) * total;
    size_t chosen = nbrs.size() - 1;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      pick -= weights_[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    v.SendTo(nbrs[chosen], {walk_id, v.id()});
  }

  const Graph* g_;
  uint32_t walks_per_vertex_;
  uint32_t walk_length_;
  double p_;
  double q_;
  uint64_t seed_;
  std::vector<std::vector<VertexId>>* corpus_;
  // Scratch reused per Forward call. Compute runs per worker-thread on
  // distinct program copies? No — one program instance is shared, so
  // keep this thread-local instead.
  static thread_local std::vector<double> weights_;
};

thread_local std::vector<double> BiasedWalkProgram::weights_;

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

BiasedWalkResult Node2VecWalks(const Graph& g, uint32_t walks_per_vertex,
                               uint32_t walk_length, double return_p,
                               double inout_q, uint64_t seed,
                               const TlavConfig& config) {
  GAL_CHECK(return_p > 0.0 && inout_q > 0.0);
  BiasedWalkResult result;
  result.corpus.assign(
      static_cast<size_t>(g.NumVertices()) * walks_per_vertex, {});
  TlavEngine<uint8_t, BiasedWalkerMsg> engine(&g, config);
  BiasedWalkProgram program(&g, walks_per_vertex, walk_length, return_p,
                            inout_q, seed, &result.corpus);
  result.stats = engine.Run(program);
  return result;
}

DeepWalkResult DeepWalkEmbeddings(const Graph& g,
                                  const DeepWalkOptions& options) {
  constexpr uint32_t kWindow = 3;     // context vertices on each side
  constexpr uint32_t kNegatives = 4;  // negative samples per pair
  DeepWalkResult result;
  BiasedWalkResult walks = Node2VecWalks(
      g, options.walks_per_vertex, options.walk_length, /*return_p=*/1.0,
      /*inout_q=*/1.0, options.seed, options.engine);
  result.walk_stats = walks.stats;
  for (const auto& walk : walks.corpus) result.walk_vertices += walk.size();

  const VertexId n = g.NumVertices();
  Rng rng(options.seed + 101);
  // SGNS tables: input (the embedding we return) and output (context).
  Matrix in = Matrix::Xavier(n, options.dim, rng);
  Matrix out(n, options.dim);

  // Degree-biased negative table (unigram^1; ^0.75 matters little here).
  std::vector<VertexId> negative_table;
  negative_table.reserve(g.NumAdjacencyEntries());
  for (VertexId v = 0; v < n; ++v) {
    for (uint32_t d = 0; d < std::max<uint32_t>(1, g.Degree(v)); ++d) {
      negative_table.push_back(v);
    }
  }

  std::vector<float> grad_center(options.dim);
  auto update_pair = [&](VertexId center, VertexId context, float label) {
    float* ic = in.row(center);
    float* oc = out.row(context);
    float dot = 0.0f;
    for (uint32_t d = 0; d < options.dim; ++d) dot += ic[d] * oc[d];
    const float gradient = (label - Sigmoid(dot)) * options.lr;
    for (uint32_t d = 0; d < options.dim; ++d) {
      grad_center[d] += gradient * oc[d];
      oc[d] += gradient * ic[d];
    }
    ++result.sgns_updates;
  };

  for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
    for (const auto& walk : walks.corpus) {
      for (size_t c = 0; c < walk.size(); ++c) {
        const VertexId center = walk[c];
        const size_t begin = c >= kWindow ? c - kWindow : 0;
        const size_t end = std::min(walk.size(), c + kWindow + 1);
        for (size_t x = begin; x < end; ++x) {
          if (x == c) continue;
          std::fill(grad_center.begin(), grad_center.end(), 0.0f);
          update_pair(center, walk[x], 1.0f);
          for (uint32_t k = 0; k < kNegatives; ++k) {
            update_pair(center,
                        negative_table[rng.Uniform(negative_table.size())],
                        0.0f);
          }
          float* ic = in.row(center);
          for (uint32_t d = 0; d < options.dim; ++d) {
            ic[d] += grad_center[d];
          }
        }
      }
    }
  }
  result.embeddings = std::move(in);
  return result;
}

}  // namespace gal
