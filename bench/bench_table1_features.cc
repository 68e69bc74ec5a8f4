// Table 1 (DESIGN.md experiment T1): "Systems for Subgraph Search:
// Summary of Features". Every feature column of the survey's matrix is
// exercised *live* by the corresponding engine mode of this library,
// and the matrix is reprinted with the measured evidence per row.

#include <atomic>

#include "bench_util.h"
#include "fsm/fsm.h"
#include "graph/generators.h"
#include "match/bfs_executor.h"
#include "match/executor.h"
#include "match/online.h"
#include "match/pattern.h"
#include "tlag/algos/cliques.h"
#include "tlag/bfs_engine.h"

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("T1", "subgraph-search systems feature matrix, demonstrated live");

  Graph data = WithRandomLabels(Rmat(10, 6, 5), 4, 7);
  std::printf("data graph: %s\n\n", data.ToString().c_str());

  Table table({"surveyed systems", "model", "SF", "FSM", "extension",
               "load balance", "online", "evidence (this library)"});

  // --- BFS-extension family (Arabesque / RStream / Pangolin) ------------
  {
    BfsExtensionEngine engine(BfsEngineConfig{});
    std::vector<VertexId> roots(data.NumVertices());
    for (VertexId v = 0; v < data.NumVertices(); ++v) roots[v] = v;
    std::atomic<uint64_t> out{0};
    BfsEngineStats s = engine.Run(
        roots, 3,
        [&data](const Embedding& e, std::vector<VertexId>& cand) {
          data.ForEachOutNeighbor(e.back(), [&](VertexId u) {
            if (u <= e.back()) return;
            bool ok = true;
            for (VertexId w : e) {
              if (w != e.back() && !data.HasEdge(w, u)) { ok = false; break; }
            }
            if (ok) cand.push_back(u);
          });
        },
        [&out](const Embedding&) { out++; });
    table.AddRow({"Arabesque/RStream/Pangolin", "TLAG", "yes", "yes",
                  "BFS (materialized)", "level barrier", "no",
                  Fmt("%s triangles, peak %s embeds", Human(out).c_str(),
                      Human(s.peak_materialized).c_str())});
  }

  // --- DFS task family (G-thinker / G-Miner / Fractal) -------------------
  {
    MaximalCliqueOptions options;
    options.engine.num_threads = 8;
    options.split_depth = 3;
    MaximalCliqueResult r = MaximalCliques(data, options);
    table.AddRow({"G-thinker/G-Miner/Fractal", "TLAG task", "yes", "no",
                  "DFS backtracking", "work stealing", "no",
                  Fmt("%s maximal cliques, %s steals", Human(r.count).c_str(),
                      Human(r.task_stats.steals).c_str())});
  }

  // --- Online querying (G-thinkerQ) --------------------------------------
  {
    OnlineQueryServer server(&data, 4);
    auto f1 = server.Submit(TrianglePattern());
    auto f2 = server.Submit(CyclePattern(4));
    auto f3 = server.Submit(StarPattern(3));
    server.Drain();
    table.AddRow({"G-thinkerQ", "TLAG task", "yes", "no", "DFS backtracking",
                  "shared pool", "YES",
                  Fmt("3 concurrent queries, %.1f/%.1f/%.1f ms",
                      f1.get().latency_seconds * 1e3,
                      f2.get().latency_seconds * 1e3,
                      f3.get().latency_seconds * 1e3)});
  }

  // --- Compilation-based ordering (AutoMine / GraphPi / GraphZero) -------
  {
    MatchOptions worst;
    worst.order = OrderStrategy::kWorst;
    MatchOptions greedy;
    greedy.order = OrderStrategy::kGreedyCost;
    greedy.symmetry_breaking = true;
    MatchStats w = SubgraphMatch(data, TailedTrianglePattern(), worst).stats;
    MatchStats g = SubgraphMatch(data, TailedTrianglePattern(), greedy).stats;
    table.AddRow({"AutoMine/GraphPi/GraphZero", "compiled matching", "yes",
                  "no", "DFS, optimized order", "static", "no",
                  Fmt("search nodes %s -> %s w/ plan+symmetry",
                      Human(w.search_nodes).c_str(),
                      Human(g.search_nodes).c_str())});
  }

  // --- Single-graph FSM (ScaleMine / DistGraph / T-FSM) -------------------
  {
    SingleGraphFsmOptions options;
    options.min_support = 60;
    options.max_edges = 2;
    options.num_threads = 8;
    SingleGraphFsmResult r = MineSingleGraph(data, options);
    table.AddRow({"ScaleMine/DistGraph/T-FSM", "FSM (MNI)", "no", "YES",
                  "pattern growth", "parallel support eval", "no",
                  Fmt("%zu frequent patterns, %s checks", r.patterns.size(),
                      Human(r.stats.existence_checks).c_str())});
  }

  // --- Transaction FSM (PrefixFPM) ----------------------------------------
  {
    MoleculeDbOptions db_options;
    db_options.num_transactions = 60;
    TransactionDb db = SyntheticMoleculeDb(db_options, 5);
    TransactionFsmOptions options;
    options.min_support = 20;
    options.max_edges = 3;
    TransactionFsmResult r = MineTransactions(db, options);
    table.AddRow({"PrefixFPM", "FSM (transactions)", "no", "YES",
                  "DFS prefix projection", "task parallel", "no",
                  Fmt("%zu patterns over %zu molecules", r.patterns.size(),
                      db.size())});
  }

  // --- GPU BFS-join family (GSI / cuTS) -----------------------------------
  {
    BfsMatchResult r = BfsSubgraphMatch(data, DiamondPattern());
    table.AddRow({"GSI/cuTS (GPU)", "BFS join", "yes", "no",
                  "BFS (coalesced)", "level barrier", "no",
                  Fmt("%s matches, peak %s partials",
                      Human(r.stats.matches).c_str(),
                      Human(r.bfs.peak_materialized).c_str())});
  }

  // --- Partition / host-buffer family (PBE / VSGM / SGSI / G2-AIMD) -------
  {
    BfsMatchOptions options;
    options.bfs.memory_budget_bytes = 64 * 1024;
    options.bfs.policy = MemoryPolicy::kSpill;
    BfsMatchResult r = BfsSubgraphMatch(data, DiamondPattern(), options);
    table.AddRow({"PBE/VSGM/SGSI/G2-AIMD", "BFS + host buffer", "yes", "no",
                  "BFS, host-buffered", "spill to host", "no",
                  Fmt("completed with %.0f KB spilled",
                      r.bfs.spilled_bytes / 1024.0)});
  }

  // --- GPU DFS family (STMatch / T-DFS) ------------------------------------
  {
    MatchOptions options;
    options.engine.num_threads = 8;
    MatchResult r = SubgraphMatch(data, DiamondPattern(), options);
    table.AddRow({"STMatch/T-DFS (GPU)", "warp-DFS", "yes", "no",
                  "DFS, per-warp stacks", "work stealing", "no",
                  Fmt("%s matches, %s tasks", Human(r.stats.matches).c_str(),
                      Human(r.stats.task_stats.tasks_executed).c_str())});
  }

  // --- Hybrid (EGSM) ---------------------------------------------------------
  {
    BfsMatchOptions options;
    options.bfs.memory_budget_bytes = 64 * 1024;
    options.bfs.policy = MemoryPolicy::kHybridDfs;
    BfsMatchResult r = BfsSubgraphMatch(data, DiamondPattern(), options);
    table.AddRow({"EGSM", "hybrid", "yes", "no", "BFS->DFS fallback",
                  "memory-adaptive", "no",
                  Fmt("%s matches, %s finished by DFS",
                      Human(r.stats.matches).c_str(),
                      Human(r.bfs.dfs_fallback_embeddings).c_str())});
  }

  table.Print();
  std::printf("\nEach row's feature set was exercised by the engine mode in "
              "the evidence column — the live reproduction of Table 1.\n");
  return 0;
}
