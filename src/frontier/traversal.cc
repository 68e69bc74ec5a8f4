#include "frontier/traversal.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "cluster/checkpoint.h"
#include "cluster/exchange.h"
#include "common/logging.h"
#include "frontier/frontier.h"
#include "ooc/sharded_graph.h"

namespace gal {
namespace {

constexpr uint32_t kUnvisited = std::numeric_limits<uint32_t>::max();

/// A traversal's recoverable state for the BSP runtime: the frontier,
/// the kernel's own state (`save`/`load`: everything else the next step
/// reads), and the pull-step count, which is step-indexed like
/// `per_step`. A migrating vertex ships `vertex_bytes` of state plus its
/// frontier flag.
template <NeighborSource G>
typename BspRuntime<G>::State TraversalState(
    const G& g, VertexFrontier& frontier, TlavStats& stats,
    std::function<void(BlobWriter&)> save,
    std::function<void(BlobReader&)> load, uint64_t vertex_bytes) {
  return {[&frontier, &stats, save = std::move(save)](BlobWriter& w) {
            w.Vec(std::vector<VertexId>(frontier.Vertices().begin(),
                                        frontier.Vertices().end()));
            save(w);
            w.Pod(stats.pull_supersteps);
          },
          [&g, &frontier, &stats, load = std::move(load)](BlobReader& r) {
            frontier.Clear();
            for (VertexId v : r.Vec<VertexId>()) frontier.Add(v, g.Degree(v));
            load(r);
            stats.pull_supersteps = r.Pod<uint32_t>();
          },
          [vertex_bytes](VertexId) { return vertex_bytes + 1; }};
}

/// Splits the frontier into per-owner buckets for a push step.
template <NeighborSource G>
void BucketByOwner(const BspRuntime<G>& rt,
                   std::span<const VertexId> frontier,
                   std::vector<std::vector<VertexId>>& buckets) {
  for (auto& b : buckets) b.clear();
  for (VertexId v : frontier) buckets[rt.OwnerOf(v)].push_back(v);
}

}  // namespace

Status CheckFrontierConfig(const TlavConfig& config) {
  if (config.mirror_degree_threshold != 0) {
    return Status::InvalidArgument(
        "mirror_degree_threshold=" +
        std::to_string(config.mirror_degree_threshold) +
        ": Pregel+ mirroring is a TlavEngine feature; BFS, SSSP and WCC "
        "run on the frontier substrate, which does not model it");
  }
  return Status::Ok();
}

std::vector<uint32_t> FrontierBfs(const Graph& g, VertexId source,
                                  const TlavConfig& config,
                                  const DirectionConfig& direction,
                                  TlavStats& stats) {
  GAL_CHECK_OK(CheckFrontierConfig(config));
  BspRuntime rt(g, config, sizeof(uint32_t));
  ExchangeChannel<uint32_t> channel(rt.cluster(),
                                    config.message_overhead_bytes);
  const VertexId n = g.NumVertices();
  const uint32_t W = rt.workers();

  std::vector<uint32_t> dist(n, kUnvisited);
  dist[source] = 0;
  VertexFrontier frontier(n), next(n);
  frontier.Add(source, g.Degree(source));
  uint64_t unexplored_edges = g.NumAdjacencyEntries() - g.Degree(source);
  DirectionController controller(direction, n);
  rt.Start(&stats, TraversalState(
                       g, frontier, stats,
                       [&](BlobWriter& w) {
                         w.Vec(dist);
                         w.Pod(controller);
                         w.Pod(unexplored_edges);
                       },
                       [&](BlobReader& r) {
                         dist = r.Vec<uint32_t>();
                         controller = r.Pod<DirectionController>();
                         unexplored_edges = r.Pod<uint64_t>();
                       },
                       sizeof(uint32_t)));
  const Graph* reversed = nullptr;  // in-neighbor view, built at first pull

  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  while (!frontier.Empty() && rt.step() < config.max_supersteps) {
    const uint32_t level = rt.step() + 1;
    const Direction dir = controller.Next(
        frontier.EdgeCount(), frontier.VertexCount(), unexplored_edges);

    if (dir == Direction::kPush) {
      BucketByOwner(rt, frontier.Vertices(), buckets);
      // Scatter: frontier vertices send the level to every still
      // unvisited out-neighbor's owner.
      rt.ForEachWorker([&](uint32_t w) {
        auto& c = rt.counters(w);
        for (VertexId v : buckets[w]) {
          ++c.active;
          g.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (dist[u] != kUnvisited) return;
            ++c.messages;
            channel.Send(w, rt.OwnerOf(u), u, level);
          });
        }
      });
    } else {
      if (reversed == nullptr) reversed = &g.ReversedView();
      const FrontierBitmap& bits = frontier.Bitmap();
      // A pull step's only wire traffic is the frontier bitmap: each
      // worker ships its |V|/W-vertex slice to every other worker once,
      // and all membership probes after that are local. This is the
      // comm-volume flip: a dense frontier costs O(|V|/8) bytes instead
      // of one message per unclaimed in-edge.
      for (uint32_t w = 0; w < W; ++w) {
        rt.cluster()->ledger().ChargeBroadcast(
            w, (n + W - 1) / W / 8 + 1 + config.message_overhead_bytes);
      }
      // Gather: every unvisited vertex probes its in-neighbors and
      // claims the level at the first frontier hit.
      rt.ForEachWorker([&](uint32_t d) {
        auto& c = rt.counters(d);
        for (VertexId v : rt.OwnedVertices(d)) {
          if (dist[v] != kUnvisited) continue;
          ++c.active;
          // Cursor, not callback: the whole point of the pull lane is
          // stopping at the first frontier hit, which a ForEach can't.
          for (Graph::NeighborCursor cur = reversed->OutNeighbors(v);
               cur.Valid(); cur.Next()) {
            ++c.edges;
            ++c.messages;
            if (bits.Test(cur.Get())) {
              dist[v] = level;
              next_lane[d].push_back(v);
              break;
            }
          }
        }
      });
      ++stats.pull_supersteps;
    }
    // Deliver: each owner claims its newly reached vertices in the
    // channel's deterministic order (a pull step buffered nothing).
    channel.Flush(&rt.pool(), [&](uint32_t d, VertexId u, uint32_t&& l) {
      if (dist[u] == kUnvisited) {
        dist[u] = l;
        next_lane[d].push_back(u);
      }
    });

    // Merge the next frontier in worker order — deterministic at any
    // host thread count.
    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) next.Add(v, g.Degree(v));
      next_lane[w].clear();
    }
    unexplored_edges -= next.EdgeCount();
    frontier.Swap(next);
    rt.EndStep();
  }

  rt.Finish();
  stats.direction_switches = controller.switches();
  return dist;
}

template <NeighborSource G>
std::vector<VertexId> FrontierWcc(const G& ug, const TlavConfig& config,
                                  const DirectionConfig& direction,
                                  TlavStats& stats) {
  GAL_CHECK_OK(CheckFrontierConfig(config));
  BspRuntime rt(ug, config, sizeof(VertexId));
  ExchangeChannel<VertexId> channel(rt.cluster(),
                                    config.message_overhead_bytes);
  const VertexId n = ug.NumVertices();
  const uint32_t W = rt.workers();

  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::vector<VertexId> next_label = label;
  VertexFrontier frontier(n), next(n);
  for (VertexId v = 0; v < n; ++v) frontier.Add(v, ug.Degree(v));
  // Labels keep improving anywhere, so Beamer's "unexplored" mass is the
  // whole edge set: pull once the frontier covers > 1/alpha of it.
  const uint64_t total_edges = ug.NumAdjacencyEntries();
  DirectionController controller(direction, n);
  // At a barrier every improved label has been merged, so next_label
  // equals label and is rebuilt from it on restore.
  rt.Start(&stats, TraversalState(
                       ug, frontier, stats,
                       [&](BlobWriter& w) {
                         w.Vec(label);
                         w.Pod(controller);
                       },
                       [&](BlobReader& r) {
                         label = r.Vec<VertexId>();
                         next_label = label;
                         controller = r.Pod<DirectionController>();
                       },
                       sizeof(VertexId)));

  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  while (!frontier.Empty() && rt.step() < config.max_supersteps) {
    const Direction dir = controller.Next(
        frontier.EdgeCount(), frontier.VertexCount(), total_edges);

    if (dir == Direction::kPush) {
      BucketByOwner(rt, frontier.Vertices(), buckets);
      rt.ForEachWorker([&](uint32_t w) {
        auto& c = rt.counters(w);
        RowReader<G>& rows = rt.reader(w);
        // Ascending, so a worker's sweep reads each of its shards once
        // and never reads a shard whose range has converged.
        std::sort(buckets[w].begin(), buckets[w].end());
        for (VertexId v : buckets[w]) {
          ++c.active;
          const VertexId lv = label[v];
          rows.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (lv >= label[u]) return;  // cannot improve u
            ++c.messages;
            channel.Send(w, rt.OwnerOf(u), u, lv);
          });
        }
      });
    } else {
      const FrontierBitmap& bits = frontier.Bitmap();
      // Gather: every vertex takes the minimum label over its frontier
      // neighbors. No early exit exists for a min-gather, but the scan
      // is sequential over the local CSR and pays wire cost only for
      // cross-partition probes.
      rt.ForEachWorker([&](uint32_t d) {
        auto& c = rt.counters(d);
        RowReader<G>& rows = rt.reader(d);
        for (VertexId v : rt.OwnedVertices(d)) {
          ++c.active;
          VertexId best = label[v];
          rows.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (!bits.Test(u)) return;
            ++c.messages;
            channel.AddWire(d, rt.OwnerOf(u));
            best = std::min(best, label[u]);
          });
          if (best < label[v]) {
            next_label[v] = best;
            next_lane[d].push_back(v);
          }
        }
      });
      ++stats.pull_supersteps;
    }
    // Deliver pushed labels; a pull step only charges its probes.
    channel.Flush(&rt.pool(), [&](uint32_t d, VertexId u, VertexId&& lu) {
      if (lu < next_label[u]) {
        // First improvement enrolls the vertex in the next frontier.
        if (next_label[u] == label[u]) next_lane[d].push_back(u);
        next_label[u] = lu;
      }
    });

    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) {
        label[v] = next_label[v];
        next.Add(v, ug.Degree(v));
      }
      next_lane[w].clear();
    }
    frontier.Swap(next);
    rt.EndStep();
  }

  rt.Finish();
  stats.direction_switches = controller.switches();
  return label;
}

template std::vector<VertexId> FrontierWcc(const Graph&, const TlavConfig&,
                                           const DirectionConfig&, TlavStats&);
template std::vector<VertexId> FrontierWcc(const ShardedGraph&,
                                           const TlavConfig&,
                                           const DirectionConfig&, TlavStats&);

std::vector<uint64_t> FrontierSssp(const Graph& g, VertexId source,
                                   EdgeWeightFn weight,
                                   const TlavConfig& config,
                                   TlavStats& stats) {
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  GAL_CHECK_OK(CheckFrontierConfig(config));
  BspRuntime rt(g, config, sizeof(uint64_t));
  ExchangeChannel<uint64_t> channel(rt.cluster(),
                                    config.message_overhead_bytes);
  const VertexId n = g.NumVertices();
  const uint32_t W = rt.workers();

  std::vector<uint64_t> dist(n, kInf);
  dist[source] = 0;
  // Weighted relaxation has no pull early-exit, so every step scatters;
  // the frontier substrate still carries the active set (sparse queue,
  // bitmap dedup of re-improved vertices).
  VertexFrontier frontier(n), next(n);
  frontier.Add(source, g.Degree(source));
  rt.Start(&stats, TraversalState(
                       g, frontier, stats,
                       [&](BlobWriter& w) { w.Vec(dist); },
                       [&](BlobReader& r) { dist = r.Vec<uint64_t>(); },
                       sizeof(uint64_t)));
  // One dedup bitmap PER drain worker: workers own disjoint vertices,
  // but bits of different owners share 64-bit words, so a single
  // shared bitmap would make the drain phase's read-modify-writes race
  // (a lost Set drops an improved vertex from the next frontier).
  std::vector<FrontierBitmap> in_next(W, FrontierBitmap(n));

  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  while (!frontier.Empty() && rt.step() < config.max_supersteps) {
    BucketByOwner(rt, frontier.Vertices(), buckets);
    rt.ForEachWorker([&](uint32_t w) {
      auto& c = rt.counters(w);
      for (VertexId v : buckets[w]) {
        ++c.active;
        const uint64_t dv = dist[v];
        g.ForEachOutNeighbor(v, [&](VertexId u) {
          ++c.edges;
          // Weights are a function of ORIGINAL ids so a reordered
          // layout traverses the same weighted graph.
          const uint64_t cand = dv + weight(g.OriginalId(v), g.OriginalId(u));
          if (cand >= dist[u]) return;  // stale reads only skip work
          ++c.messages;
          channel.Send(w, rt.OwnerOf(u), u, cand);
        });
      }
    });
    channel.Flush(&rt.pool(), [&](uint32_t d, VertexId u, uint64_t&& du) {
      if (du < dist[u]) {
        dist[u] = du;
        if (!in_next[d].Test(u)) {
          in_next[d].Set(u);
          next_lane[d].push_back(u);
        }
      }
    });

    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) {
        in_next[w].Clear(v);
        next.Add(v, g.Degree(v));
      }
      next_lane[w].clear();
    }
    frontier.Swap(next);
    rt.EndStep();
  }

  rt.Finish();
  return dist;
}

}  // namespace gal
