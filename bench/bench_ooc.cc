// Experiment C14 (DESIGN.md): out-of-core execution over the sharded
// compressed CSR — the GraphChi/GridGraph single-machine axis of §2.
// PageRank, WCC, and triangle counting run with the adjacency budget
// swept from unlimited down to one shard; results stay bit-identical to
// the in-memory engines while modeled I/O time traces the budget curve.

#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ooc/ooc_algos.h"
#include "ooc/sharded_graph.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/wcc.h"

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("C14", "out-of-core sharded execution vs in-memory (Sec. 2)");

  // R-MAT with the PR-7 cache layout and PR-8 compression applied —
  // the store shards exactly what the in-memory hot path traverses.
  Graph base = Rmat(14, 16, 42);
  GraphOptions options;
  options.reorder = ReorderMode::kHubCluster;
  options.compression = CompressionMode::kDeltaVarint;
  Graph g =
      Graph::FromEdges(base.NumVertices(), base.CollectEdges(), options)
          .value();
  const uint64_t adj_bytes = g.AdjacencyBytes();
  std::printf("%s, adjacency %.1f KB compressed (%.2f B/entry)\n",
              g.ToString().c_str(), adj_bytes / 1024.0,
              static_cast<double>(adj_bytes) /
                  static_cast<double>(g.NumAdjacencyEntries()));

  // In-memory references (also the bit-identity oracle below).
  Timer t_pr;
  const PageRankResult mem_pr = PageRank(g);
  const double pr_wall = t_pr.ElapsedSeconds();
  Timer t_wcc;
  const WccResult mem_wcc = Wcc(g);
  const double wcc_wall = t_wcc.ElapsedSeconds();
  Timer t_tri;
  const TriangleCountResult mem_tri = TaskTriangleCount(g, {});
  const double tri_wall = t_tri.ElapsedSeconds();
  std::printf("in-memory: pagerank %.0f ms, wcc %.0f ms (%u comps), "
              "triangles %.0f ms (%llu)\n\n",
              pr_wall * 1e3, wcc_wall * 1e3, mem_wcc.num_components,
              tri_wall * 1e3,
              static_cast<unsigned long long>(mem_tri.triangles));

  const std::string store =
      (std::filesystem::temp_directory_path() / "gal_bench_ooc").string();
  ShardWriterOptions wopt;
  wopt.target_shard_bytes = adj_bytes / 16;
  auto summary = WriteShardedGraph(g, store, wopt);
  GAL_CHECK(summary.ok()) << summary.status();
  std::printf("shard store: %u shards, %.1f KB adjacency, largest shard "
              "%.1f KB resident\n\n",
              summary.value().num_shards,
              summary.value().total_adj_bytes / 1024.0,
              summary.value().max_shard_resident_bytes / 1024.0);

  Table table({"budget", "algo", "loads", "hits", "evicts", "read MB",
               "peak KB", "io(model) ms", "total(model) ms", "wall ms",
               "identical"});
  // The budget sweep: unlimited, then 50% / 25% / 12.5% of the
  // in-memory adjacency footprint (floored at one shard, the smallest
  // budget that can run at all).
  for (uint64_t budget :
       {uint64_t{0}, adj_bytes / 2, adj_bytes / 4, adj_bytes / 8}) {
    OocOptions oopt;
    oopt.memory_budget_bytes =
        budget == 0
            ? 0
            : std::max(budget, summary.value().max_shard_resident_bytes);
    auto opened = ShardedGraph::Open(store, oopt);
    GAL_CHECK(opened.ok()) << opened.status();
    const ShardedGraph& sg = opened.value();
    const std::string label =
        budget == 0 ? "unlimited"
                    : Fmt("%.1f KB (%.0f%%)", oopt.memory_budget_bytes / 1024.0,
                          100.0 * static_cast<double>(budget) /
                              static_cast<double>(adj_bytes));

    auto add_row = [&](const char* algo, const OocStats& s, bool identical,
                       double wall) {
      GAL_CHECK(identical) << algo << " diverged from the in-memory run";
      if (s.budget_bytes > 0) {
        GAL_CHECK(s.peak_resident_bytes <= s.budget_bytes)
            << algo << " overshot the budget";
      }
      table.AddRow({label, algo, Human(s.shard_loads), Human(s.cache_hits),
                    Human(s.evictions),
                    Fmt("%.2f", s.shard_load_bytes / 1048576.0),
                    Fmt("%.1f", s.peak_resident_bytes / 1024.0),
                    Fmt("%.2f", s.modeled_io_seconds * 1e3),
                    Fmt("%.1f", s.modeled_seconds * 1e3),
                    Fmt("%.1f", wall * 1e3), identical ? "yes" : "NO"});
    };

    Timer tp;
    const OocPageRankResult pr = OocPageRank(sg);
    add_row("pagerank", pr.stats, pr.ranks == mem_pr.ranks,
            tp.ElapsedSeconds());
    Timer tw;
    const OocWccResult wcc = OocWcc(sg);
    add_row("wcc", wcc.stats,
            wcc.component == mem_wcc.component &&
                wcc.num_components == mem_wcc.num_components,
            tw.ElapsedSeconds());
    Timer tt;
    const OocTriangleResult tri = OocTriangleCount(sg);
    add_row("triangles", tri.stats,
            tri.triangles == mem_tri.triangles &&
                tri.intersection_ops == mem_tri.intersection_ops,
            tt.ElapsedSeconds());
  }
  table.Print();
  RemoveShardedGraphFiles(store);

  std::printf(
      "\nShape check: every row is bit-identical to the in-memory run and "
      "peak residency never exceeds the budget; shrinking the budget only "
      "moves time into modeled I/O (loads/evictions rise, the GraphChi "
      "trade). PageRank reads each shard once per sending superstep. WCC's "
      "dense supersteps pull and read every shard; its push supersteps read "
      "only the shards that hold frontier vertices, so its sparse late "
      "supersteps read almost nothing. Triangles pin each raw shard once, "
      "to orient it into the job's private oriented shard set, then read "
      "oriented shards under the same budget.\n");
  return 0;
}
