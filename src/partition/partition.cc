#include "partition/partition.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"

namespace gal {

std::string PartitionQuality::ToString() const {
  std::ostringstream os;
  os << "cut=" << edge_cut << " (" << cut_ratio * 100 << "%), balance="
     << balance;
  return os.str();
}

PartitionQuality EvaluatePartition(const Graph& g, const VertexPartition& p) {
  GAL_CHECK(p.assignment.size() == g.NumVertices());
  PartitionQuality q;
  q.part_sizes.assign(p.num_parts, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    GAL_CHECK(p.assignment[v] < p.num_parts);
    ++q.part_sizes[p.assignment[v]];
  }
  for (const Edge& e : g.CollectEdges()) {
    if (p.assignment[e.src] != p.assignment[e.dst]) ++q.edge_cut;
  }
  q.cut_ratio = g.NumEdges() == 0
                    ? 0.0
                    : static_cast<double>(q.edge_cut) / g.NumEdges();
  const double avg =
      static_cast<double>(g.NumVertices()) / std::max(1u, p.num_parts);
  const uint64_t max_size =
      *std::max_element(q.part_sizes.begin(), q.part_sizes.end());
  q.balance = avg == 0.0 ? 1.0 : static_cast<double>(max_size) / avg;
  return q;
}

VertexPartition HashPartition(const Graph& g, uint32_t num_parts) {
  GAL_CHECK(num_parts >= 1);
  VertexPartition p;
  p.num_parts = num_parts;
  p.assignment.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    // Multiplicative hash so contiguous ids spread across parts.
    p.assignment[v] =
        static_cast<uint32_t>((v * 0x9E3779B97F4A7C15ull) >> 32) % num_parts;
  }
  return p;
}

VertexPartition RangePartition(const Graph& g, uint32_t num_parts) {
  GAL_CHECK(num_parts >= 1);
  VertexPartition p;
  p.num_parts = num_parts;
  p.assignment.resize(g.NumVertices());
  const uint64_t n = g.NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    p.assignment[v] = static_cast<uint32_t>(
        std::min<uint64_t>(num_parts - 1, v * num_parts / std::max<uint64_t>(n, 1)));
  }
  return p;
}

VertexPartition LdgPartition(const Graph& g, uint32_t num_parts,
                             uint64_t seed) {
  GAL_CHECK(num_parts >= 1);
  const VertexId n = g.NumVertices();
  VertexPartition p;
  p.num_parts = num_parts;
  p.assignment.assign(n, num_parts);  // num_parts = unassigned sentinel

  // Stream vertices in a random order so adversarial id orders don't
  // bias the greedy choice.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (VertexId i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }

  const double capacity =
      static_cast<double>(n) / num_parts + 1.0;
  std::vector<uint64_t> load(num_parts, 0);
  std::vector<uint32_t> neighbor_count(num_parts, 0);
  for (VertexId v : order) {
    std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (p.assignment[u] < num_parts) ++neighbor_count[p.assignment[u]];
    });
    double best_score = -1.0;
    uint32_t best_part = 0;
    for (uint32_t part = 0; part < num_parts; ++part) {
      const double penalty = 1.0 - load[part] / capacity;
      const double score = (neighbor_count[part] + 1.0) * penalty;
      if (score > best_score) {
        best_score = score;
        best_part = part;
      }
    }
    p.assignment[v] = best_part;
    ++load[best_part];
  }
  return p;
}

namespace {

/// One level of the multilevel hierarchy.
struct CoarseLevel {
  Graph graph;
  /// Maps each vertex of the finer graph to its coarse super-vertex.
  std::vector<VertexId> fine_to_coarse;
  /// Weight (number of original vertices) of each coarse vertex.
  std::vector<uint32_t> weight;
};

/// Heavy-edge matching based coarsening step. Returns a level whose
/// graph has (roughly) half the vertices; multi-edges between
/// super-vertices are collapsed.
CoarseLevel Coarsen(const Graph& g, const std::vector<uint32_t>& weight,
                    Rng& rng) {
  const VertexId n = g.NumVertices();
  std::vector<VertexId> match(n, kInvalidVertex);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (VertexId i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  // Unweighted edges: heavy-edge matching degenerates to matching with a
  // preference for low-weight partners (keeps coarse weights balanced).
  for (VertexId v : order) {
    if (match[v] != kInvalidVertex) continue;
    VertexId best = kInvalidVertex;
    uint32_t best_weight = std::numeric_limits<uint32_t>::max();
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (match[u] != kInvalidVertex || u == v) return;
      if (weight[u] < best_weight) {
        best_weight = weight[u];
        best = u;
      }
    });
    if (best == kInvalidVertex) {
      match[v] = v;  // unmatched: singleton super-vertex
    } else {
      match[v] = best;
      match[best] = v;
    }
  }

  CoarseLevel level;
  level.fine_to_coarse.assign(n, kInvalidVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (level.fine_to_coarse[v] != kInvalidVertex) continue;
    level.fine_to_coarse[v] = next;
    if (match[v] != v) level.fine_to_coarse[match[v]] = next;
    ++next;
  }
  level.weight.assign(next, 0);
  for (VertexId v = 0; v < n; ++v) {
    level.weight[level.fine_to_coarse[v]] += weight[v];
  }

  std::vector<Edge> coarse_edges;
  for (const Edge& e : g.CollectEdges()) {
    const VertexId cu = level.fine_to_coarse[e.src];
    const VertexId cv = level.fine_to_coarse[e.dst];
    if (cu != cv) coarse_edges.push_back({std::min(cu, cv), std::max(cu, cv)});
  }
  Result<Graph> cg = Graph::FromEdges(next, std::move(coarse_edges), {});
  GAL_CHECK(cg.ok()) << cg.status();
  level.graph = std::move(cg.value());
  return level;
}

/// Greedy BFS region growing initial partition on the coarsest graph.
std::vector<uint32_t> InitialPartition(const Graph& g,
                                       const std::vector<uint32_t>& weight,
                                       uint32_t num_parts, Rng& rng) {
  const VertexId n = g.NumVertices();
  std::vector<uint32_t> part(n, num_parts);
  uint64_t total_weight = 0;
  for (uint32_t w : weight) total_weight += w;
  const double target =
      static_cast<double>(total_weight) / num_parts;

  VertexId cursor = 0;
  for (uint32_t k = 0; k < num_parts; ++k) {
    // Find an unassigned start vertex.
    VertexId start = kInvalidVertex;
    for (VertexId probe = 0; probe < n; ++probe) {
      const VertexId v = (cursor + probe) % std::max<VertexId>(n, 1);
      if (part[v] == num_parts) {
        start = v;
        cursor = v;
        break;
      }
    }
    if (start == kInvalidVertex) break;
    // Last part absorbs everything left.
    if (k + 1 == num_parts) {
      for (VertexId v = 0; v < n; ++v) {
        if (part[v] == num_parts) part[v] = k;
      }
      break;
    }
    uint64_t grown = 0;
    std::deque<VertexId> frontier{start};
    part[start] = k;
    grown += weight[start];
    while (grown < target && !frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop_front();
      g.ForEachOutNeighbor(v, [&](VertexId u) {
        if (part[u] != num_parts || grown >= target) return;
        part[u] = k;
        grown += weight[u];
        frontier.push_back(u);
      });
      // If the region is exhausted but under target, jump to a random
      // unassigned vertex (disconnected graphs).
      if (frontier.empty() && grown < target) {
        for (VertexId probe = 0; probe < n; ++probe) {
          const VertexId u = static_cast<VertexId>(rng.Uniform(n));
          if (part[u] == num_parts) {
            part[u] = k;
            grown += weight[u];
            frontier.push_back(u);
            break;
          }
        }
        break;  // give up growing this part further if none found quickly
      }
    }
  }
  // Any stragglers go to the least-loaded part.
  std::vector<uint64_t> load(num_parts, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (part[v] < num_parts) load[part[v]] += weight[v];
  }
  for (VertexId v = 0; v < n; ++v) {
    if (part[v] == num_parts) {
      const uint32_t k = static_cast<uint32_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      part[v] = k;
      load[k] += weight[v];
    }
  }
  return part;
}

/// Greedy boundary refinement: move a vertex to the neighboring part
/// with the largest cut gain if balance allows.
void Refine(const Graph& g, const std::vector<uint32_t>& weight,
            uint32_t num_parts, std::vector<uint32_t>& part) {
  constexpr uint32_t kPasses = 4;
  constexpr double kImbalance = 1.05;  // allowed max-part / avg-part ratio
  const VertexId n = g.NumVertices();
  uint64_t total_weight = 0;
  for (uint32_t w : weight) total_weight += w;
  const double max_load =
      kImbalance * static_cast<double>(total_weight) / num_parts;
  std::vector<uint64_t> load(num_parts, 0);
  for (VertexId v = 0; v < n; ++v) load[part[v]] += weight[v];

  std::vector<int32_t> gain(num_parts);
  for (uint32_t pass = 0; pass < kPasses; ++pass) {
    bool moved = false;
    for (VertexId v = 0; v < n; ++v) {
      std::fill(gain.begin(), gain.end(), 0);
      g.ForEachOutNeighbor(v, [&](VertexId u) { ++gain[part[u]]; });
      const uint32_t from = part[v];
      uint32_t best = from;
      int32_t best_gain = gain[from];
      for (uint32_t k = 0; k < num_parts; ++k) {
        if (k == from || gain[k] <= best_gain) continue;
        if (load[k] + weight[v] > max_load) continue;
        best = k;
        best_gain = gain[k];
      }
      if (best != from) {
        load[from] -= weight[v];
        load[best] += weight[v];
        part[v] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

VertexPartition MultilevelPartition(const Graph& g, uint32_t num_parts) {
  constexpr uint32_t kCoarsenUntil = 256;  // stop coarsening below this
  constexpr uint64_t kSeed = 1;
  GAL_CHECK(num_parts >= 1);
  Rng rng(kSeed);

  // Coarsening phase.
  std::vector<CoarseLevel> levels;
  const Graph* current = &g;
  std::vector<uint32_t> weight(g.NumVertices(), 1);
  while (current->NumVertices() > kCoarsenUntil) {
    CoarseLevel level = Coarsen(*current, weight, rng);
    // Stop if coarsening stalls (e.g. star graphs match poorly).
    if (level.graph.NumVertices() >= current->NumVertices() * 95 / 100) break;
    weight = level.weight;
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }

  // Initial partition on the coarsest graph.
  std::vector<uint32_t> part =
      InitialPartition(*current, weight, num_parts, rng);
  Refine(*current, weight, num_parts, part);

  // Uncoarsen with refinement at every level.
  for (size_t i = levels.size(); i > 0; --i) {
    const CoarseLevel& level = levels[i - 1];
    const Graph& fine =
        (i >= 2) ? levels[i - 2].graph : g;
    std::vector<uint32_t> fine_part(fine.NumVertices());
    for (VertexId v = 0; v < fine.NumVertices(); ++v) {
      fine_part[v] = part[level.fine_to_coarse[v]];
    }
    std::vector<uint32_t> fine_weight(fine.NumVertices(), 1);
    if (i >= 2) fine_weight = levels[i - 2].weight;
    Refine(fine, fine_weight, num_parts, fine_part);
    part = std::move(fine_part);
  }

  VertexPartition result;
  result.num_parts = num_parts;
  result.assignment = std::move(part);
  return result;
}

VertexPartition BfsVoronoiPartition(const Graph& g, uint32_t num_parts,
                                    const std::vector<VertexId>& seeds) {
  GAL_CHECK(num_parts >= 1);
  const VertexId n = g.NumVertices();
  VertexPartition result;
  result.num_parts = num_parts;
  result.assignment.assign(n, 0);
  if (n == 0) return result;

  // Phase 1: multi-source BFS from the seeds; each vertex joins the block
  // of the first seed front to reach it (the graph Voronoi diagram).
  constexpr uint32_t kUnassigned = static_cast<uint32_t>(-1);
  std::vector<uint32_t> block(n, kUnassigned);
  std::deque<VertexId> frontier;
  uint32_t num_blocks = static_cast<uint32_t>(seeds.size());
  for (uint32_t i = 0; i < seeds.size(); ++i) {
    GAL_CHECK(seeds[i] < n);
    if (block[seeds[i]] == kUnassigned) {
      block[seeds[i]] = i;
      frontier.push_back(seeds[i]);
    }
  }
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop_front();
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (block[u] != kUnassigned) return;
      block[u] = block[v];
      frontier.push_back(u);
    });
  }
  // Vertices unreachable from any seed form singleton blocks.
  for (VertexId v = 0; v < n; ++v) {
    if (block[v] == kUnassigned) block[v] = num_blocks++;
  }

  // Phase 2: stream blocks (largest first) onto parts, balancing by the
  // number of *seeds* per part first, then by vertex count — ByteGNN's
  // insight that GNN load tracks training seeds, not raw vertices.
  std::vector<uint64_t> block_size(num_blocks, 0);
  std::vector<uint64_t> block_seeds(num_blocks, 0);
  for (VertexId v = 0; v < n; ++v) ++block_size[block[v]];
  for (VertexId s : seeds) ++block_seeds[block[s]];

  std::vector<uint32_t> block_order(num_blocks);
  std::iota(block_order.begin(), block_order.end(), 0);
  constexpr uint64_t kShuffleSeed = 1;
  Rng rng(kShuffleSeed);
  for (uint32_t i = num_blocks; i > 1; --i) {
    std::swap(block_order[i - 1], block_order[rng.Uniform(i)]);
  }
  std::stable_sort(block_order.begin(), block_order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return block_size[a] > block_size[b];
                   });

  std::vector<uint64_t> part_seeds(num_parts, 0);
  std::vector<uint64_t> part_size(num_parts, 0);
  std::vector<uint32_t> block_to_part(num_blocks, 0);
  for (uint32_t b : block_order) {
    uint32_t best = 0;
    for (uint32_t k = 1; k < num_parts; ++k) {
      if (part_seeds[k] < part_seeds[best] ||
          (part_seeds[k] == part_seeds[best] &&
           part_size[k] < part_size[best])) {
        best = k;
      }
    }
    block_to_part[b] = best;
    part_seeds[best] += block_seeds[b];
    part_size[best] += block_size[b];
  }
  for (VertexId v = 0; v < n; ++v) {
    result.assignment[v] = block_to_part[block[v]];
  }
  return result;
}

EdgePartition GreedyVertexCut(const Graph& g, uint32_t num_parts) {
  GAL_CHECK(num_parts >= 1);
  EdgePartition result;
  result.num_parts = num_parts;
  const std::vector<Edge> edges = g.CollectEdges();
  result.edge_assignment.resize(edges.size());

  // parts_of[v] = bitmask of parts already holding v (num_parts <= 64
  // supported; enough for a simulated cluster).
  GAL_CHECK(num_parts <= 64);
  std::vector<uint64_t> parts_of(g.NumVertices(), 0);
  std::vector<uint64_t> load(num_parts, 0);

  for (size_t i = 0; i < edges.size(); ++i) {
    const VertexId u = edges[i].src;
    const VertexId v = edges[i].dst;
    const uint64_t common = parts_of[u] & parts_of[v];
    const uint64_t either = parts_of[u] | parts_of[v];
    uint32_t best = num_parts;
    uint64_t best_load = std::numeric_limits<uint64_t>::max();
    auto consider_mask = [&](uint64_t mask) {
      for (uint32_t k = 0; k < num_parts; ++k) {
        if ((mask >> k) & 1u) {
          if (load[k] < best_load) {
            best_load = load[k];
            best = k;
          }
        }
      }
    };
    // PowerGraph greedy rules: prefer a part both endpoints touch, then
    // one either touches, then the least loaded.
    if (common != 0) {
      consider_mask(common);
    } else if (either != 0) {
      consider_mask(either);
    } else {
      consider_mask(~uint64_t{0} >> (64 - num_parts));
    }
    result.edge_assignment[i] = best;
    parts_of[u] |= uint64_t{1} << best;
    parts_of[v] |= uint64_t{1} << best;
    ++load[best];
  }

  result.replicas.assign(g.NumVertices(), 0);
  uint64_t replica_sum = 0;
  uint64_t counted = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    result.replicas[v] = static_cast<uint32_t>(__builtin_popcountll(parts_of[v]));
    if (g.Degree(v) > 0) {
      replica_sum += result.replicas[v];
      ++counted;
    }
  }
  result.replication_factor =
      counted == 0 ? 0.0 : static_cast<double>(replica_sum) / counted;
  return result;
}

std::vector<std::pair<uint32_t, uint32_t>> FeatureDimensionPartition(
    uint32_t feature_dim, uint32_t num_parts) {
  GAL_CHECK(num_parts >= 1);
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  ranges.reserve(num_parts);
  const uint32_t base = feature_dim / num_parts;
  const uint32_t extra = feature_dim % num_parts;
  uint32_t start = 0;
  for (uint32_t k = 0; k < num_parts; ++k) {
    const uint32_t len = base + (k < extra ? 1 : 0);
    ranges.emplace_back(start, start + len);
    start += len;
  }
  return ranges;
}

}  // namespace gal
