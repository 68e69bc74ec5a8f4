// Experiment C13 (DESIGN.md): subgraph matching under a shrinking
// device-memory budget — the GPU-system design axis of §2. BFS-join
// (GSI/cuTS) fails outright when partials overflow; host-memory
// spilling (PBE / VSGM / G2-AIMD) completes but ships the overflow;
// the BFS->DFS hybrid (EGSM) completes within budget by finishing hot
// partials depth-first.

#include <filesystem>

#include "bench_util.h"
#include "graph/generators.h"
#include "match/bfs_executor.h"
#include "match/executor.h"
#include "match/pattern.h"
#include "ooc/ooc_algos.h"
#include "ooc/sharded_graph.h"
#include "tlag/algos/triangles.h"

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("C13", "BFS / spill / hybrid matching under a memory budget "
                "(Sec. 2)");

  Graph data = ErdosRenyi(600, 0.05, 9);
  Graph query = DiamondPattern();
  std::printf("data: %s, query: diamond (4 vertices)\n", data.ToString().c_str());

  BfsMatchResult unlimited = BfsSubgraphMatch(data, query);
  std::printf("unbounded BFS join: %llu matches, peak %.1f KB\n\n",
              static_cast<unsigned long long>(unlimited.stats.matches),
              unlimited.bfs.peak_bytes / 1024.0);

  // Out-of-core comparison: the same budget spent on adjacency shards
  // instead of partial embeddings (GraphChi's answer to small memory).
  // Workload: triangle counting, the closest primitive this repo runs
  // out-of-core; its count doubles as the completion check.
  const std::string store =
      (std::filesystem::temp_directory_path() / "gal_bench_hybrid_ooc")
          .string();
  ShardWriterOptions shard_opt;
  shard_opt.target_shard_bytes = 2048;
  auto shard_summary = WriteShardedGraph(data, store, shard_opt);
  GAL_CHECK(shard_summary.ok()) << shard_summary.status();
  const TriangleCountResult serial_tri = SerialTriangleCount(data);

  Table table({"budget KB", "policy", "completed", "matches", "peak KB",
               "spilled KB", "dfs-finished"});
  for (uint64_t budget_kb : {1024u, 256u, 64u, 16u}) {
    for (MemoryPolicy policy : {MemoryPolicy::kStrict, MemoryPolicy::kSpill,
                                MemoryPolicy::kHybridDfs}) {
      BfsMatchOptions options;
      options.bfs.memory_budget_bytes = budget_kb * 1024;
      options.bfs.policy = policy;
      BfsMatchResult r = BfsSubgraphMatch(data, query, options);
      const char* policy_name =
          policy == MemoryPolicy::kStrict
              ? "strict (GSI)"
              : policy == MemoryPolicy::kSpill ? "spill (G2-AIMD)"
                                               : "hybrid (EGSM)";
      if (!r.bfs.budget_exceeded) {
        GAL_CHECK(r.stats.matches == unlimited.stats.matches);
      }
      table.AddRow({Fmt("%llu", static_cast<unsigned long long>(budget_kb)),
                    policy_name, r.bfs.budget_exceeded ? "NO (aborted)" : "yes",
                    r.bfs.budget_exceeded ? "-" : Human(r.stats.matches),
                    Fmt("%.1f", r.bfs.peak_bytes / 1024.0),
                    Fmt("%.1f", r.bfs.spilled_bytes / 1024.0),
                    Human(r.bfs.dfs_fallback_embeddings)});
    }
    // The out-of-core row bounds ADJACENCY bytes, not partials: shards
    // load and evict under the budget while triangle counting streams
    // them — completion never depends on the budget, only I/O does.
    OocOptions oopt;
    oopt.memory_budget_bytes =
        std::max<uint64_t>(budget_kb * 1024,
                           shard_summary.value().max_shard_resident_bytes);
    auto opened = ShardedGraph::Open(store, oopt);
    GAL_CHECK(opened.ok()) << opened.status();
    const OocTriangleResult tri = OocTriangleCount(opened.value());
    GAL_CHECK(tri.triangles == serial_tri.triangles);
    table.AddRow({Fmt("%llu", static_cast<unsigned long long>(budget_kb)),
                  "out-of-core (GraphChi)*", "yes",
                  Fmt("%llu tri", static_cast<unsigned long long>(
                                      tri.triangles)),
                  Fmt("%.1f", tri.stats.peak_resident_bytes / 1024.0),
                  Fmt("%.1f", tri.stats.shard_load_bytes / 1024.0), "-"});
  }
  table.Print();
  RemoveShardedGraphFiles(store);
  std::printf("\n* out-of-core row: triangle counting over the sharded "
              "store; its budget caps resident adjacency (spilled KB = "
              "shard bytes read from disk: each raw shard once, then the "
              "job's oriented shard set), where the matching rows cap "
              "partial embeddings.\n");

  // Reference: the pure-DFS executor needs no budget at all.
  MatchResult dfs = SubgraphMatch(data, query);
  std::printf("\npure DFS backtracking reference: %llu matches, O(depth) "
              "state per worker\n",
              static_cast<unsigned long long>(dfs.stats.matches));
  std::printf("\nShape check: strict BFS aborts once the budget drops below "
              "its peak; spilling completes but pushes the overflow to host\n"
              "memory; the hybrid stays within (about) the budget by "
              "finishing overflow embeddings depth-first — EGSM's design.\n");
  return 0;
}
