// Experiment: the unified simulated-cluster substrate (src/cluster/).
// One ClusterRuntime runs several distributed engines in sequence —
// TLAV PageRank, TLAG task-based triangle counting, BFS both push-only
// and direction-optimizing (src/frontier/), and a dist-GNN training run
// — so their communication volumes come from the *same* TrafficLedger
// and their modeled times from the *same* VirtualClock: one comparable
// axis across the survey's workload families. The cluster has the
// default width of 4 workers.

#include <cstdio>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/timer.h"
#include "dist/dist_gcn.h"
#include "gnn/dataset.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/traversal.h"

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("CLUSTER", "three engines, one ledger, one clock");

  PlantedDatasetOptions data_options;
  data_options.num_vertices = 600;
  data_options.num_classes = 4;
  data_options.feature_dim = 32;
  NodeClassificationDataset ds = MakePlantedDataset(data_options);
  const Graph& g = ds.graph;

  ClusterRuntime runtime;  // the default width, 4
  std::printf("graph: %s, %u simulated workers\n\n", g.ToString().c_str(),
              runtime.num_workers());

  Table table({"job", "rounds", "cross MB", "wire msgs", "local MB",
               "modeled ms", "wall ms"});
  struct JobMarks {
    TrafficSnapshot ledger;
    size_t rounds;
  };
  auto mark = [&] {
    return JobMarks{runtime.ledger().Snapshot(), runtime.clock().rounds()};
  };
  auto add_row = [&](const char* name, const JobMarks& m, double wall_s) {
    const TrafficSnapshot now = runtime.ledger().Snapshot();
    table.AddRow({name, Fmt("%zu", runtime.clock().rounds() - m.rounds),
                  Fmt("%.3f", (now.cross_bytes - m.ledger.cross_bytes) / 1e6),
                  Human(now.cross_messages - m.ledger.cross_messages),
                  Fmt("%.3f", (now.local_bytes - m.ledger.local_bytes) / 1e6),
                  Fmt("%.3f", runtime.clock().SecondsSince(m.rounds) * 1e3),
                  Fmt("%.1f", wall_s * 1e3)});
  };

  // 1. TLAV PageRank: BSP supersteps through the exchange channel.
  JobMarks m = mark();
  PageRankOptions pr_options;
  pr_options.iterations = 10;
  pr_options.engine.cluster = &runtime;
  const PageRankResult pr = PageRank(g, pr_options);
  add_row("TLAV PageRank", m, pr.stats.wall_seconds);

  // 2. TLAG triangle counting: work-stealing tasks attributing the
  // partition homes of every adjacency row they intersect.
  m = mark();
  TaskEngineConfig tri_config;
  tri_config.cluster = &runtime;
  const TriangleCountResult tri = TaskTriangleCount(g, tri_config);
  add_row("TLAG triangles", m, tri.wall_seconds);

  // 3. BFS twice on the same runtime — push-only vs direction-optimizing
  // (src/frontier/) — so the ledger shows the comm-volume flip directly.
  TraversalOptions bfs_push;
  bfs_push.engine.cluster = &runtime;
  bfs_push.direction.mode = DirectionMode::kPushOnly;
  m = mark();
  const BfsResult bfs_a = TlavBfs(g, 0, bfs_push);
  add_row("BFS push-only", m, bfs_a.stats.wall_seconds);
  TraversalOptions bfs_opt;
  bfs_opt.engine.cluster = &runtime;
  bfs_opt.direction.mode = DirectionMode::kAuto;
  m = mark();
  const BfsResult bfs_b = TlavBfs(g, 0, bfs_opt);
  add_row("BFS dir-opt", m, bfs_b.stats.wall_seconds);

  // 4. Dist-GNN: halo exchanges + optimizer epochs on the same ledger.
  m = mark();
  DistGcnConfig gcn;
  gcn.cluster = &runtime;
  gcn.epochs = 10;
  Timer gcn_timer;
  const DistGcnReport gnn = TrainDistGcn(ds, gcn);
  add_row("dist-GCN (10 epochs)", m, gcn_timer.ElapsedSeconds());

  table.Print();
  GAL_CHECK(bfs_a.distance == bfs_b.distance);
  std::printf("dist-GCN accuracy: %.3f, triangles: %s; BFS dir-opt: "
              "%u/%u supersteps pulled, identical distances\n",
              gnn.final_test_accuracy, Human(tri.triangles).c_str(),
              bfs_b.stats.pull_supersteps, bfs_b.stats.supersteps);

  const TrafficSnapshot total = runtime.ledger().Snapshot();
  std::printf(
      "\ncluster totals: %.3f MB across the wire in %s messages, "
      "%zu rounds, %.3f modeled s\n",
      total.cross_bytes / 1e6, Human(total.cross_messages).c_str(),
      runtime.clock().rounds(), runtime.clock().seconds());

  std::printf("\nper-worker wire view (whole run):\n");
  Table workers({"worker", "sent MB", "recv MB", "local MB"});
  for (uint32_t w = 0; w < runtime.num_workers(); ++w) {
    const WorkerTraffic t = runtime.ledger().Worker(w);
    workers.AddRow({Fmt("%u", w), Fmt("%.3f", t.sent_bytes / 1e6),
                    Fmt("%.3f", t.recv_bytes / 1e6),
                    Fmt("%.3f", t.local_bytes / 1e6)});
  }
  workers.Print();
  std::printf("sent-bytes imbalance (max/mean): %.2f\n",
              runtime.ledger().SentBytesImbalance());

  std::printf(
      "\nShape check: PageRank's wire volume dwarfs its local traffic "
      "(every superstep crosses the cut), the mining job is the inverse "
      "(intersections mostly touch home rows), and the GNN epochs pay "
      "fat feature/embedding rows per exchange. One ledger, one clock — "
      "the numbers are directly comparable.\n");
  return 0;
}
