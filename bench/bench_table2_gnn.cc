// Table 2 (DESIGN.md experiment T2): "Techniques of Distributed GNN
// Training Systems". The survey's technique columns — graph data
// communication reduction (sampling / partitioning / k-hop
// materialization), operator scheduling (pipelining), model computation
// placement, model synchronization (staleness), and compression — each
// demonstrated by running the simulated trainer with the technique on
// vs off, then the per-system matrix reprinted with the measured gain.

#include "bench_util.h"
#include "cluster/network.h"
#include "dist/cost_model.h"
#include "dist/dist_gcn.h"
#include "gnn/dataset.h"
#include "gnn/sage.h"
#include "gnn/sampler.h"

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("T2", "distributed-GNN technique matrix, demonstrated live");

  PlantedDatasetOptions data_options;
  data_options.num_vertices = 900;
  data_options.num_classes = 4;
  data_options.feature_dim = 32;
  NodeClassificationDataset ds = MakePlantedDataset(data_options);
  std::printf("dataset: %s, 4 simulated workers\n\n",
              ds.graph.ToString().c_str());

  DistGcnConfig base;
  base.epochs = 15;
  DistGcnReport baseline = TrainDistGcn(ds, base);

  std::printf("-- technique ablations (vs BSP/hash/fp32 baseline: "
              "%.2f MB comm, accuracy %.3f) --\n",
              baseline.comm_bytes / 1e6, baseline.final_test_accuracy);
  Table ablate({"technique", "systems using it", "measured effect"});

  {  // Neighborhood sampling (needs a dense graph to have bite).
    PlantedDatasetOptions dense_options;
    dense_options.num_vertices = 2000;
    dense_options.num_classes = 4;
    dense_options.p_in = 0.1;
    dense_options.p_out = 0.005;
    NodeClassificationDataset dense = MakePlantedDataset(dense_options);
    SageConfig full;
    full.epochs = 2;
    full.batch_size = 16;
    full.fanouts = {0, 0};
    SageConfig sampled = full;
    sampled.fanouts = {5, 5};
    SageReport rf = TrainSageMinibatch(dense, full);
    SageReport rs = TrainSageMinibatch(dense, sampled);
    ablate.AddRow({"neighborhood sampling", "Euler, AliGraph, ByteGNN, "
                   "DistDGL, AGL, BGL",
                   Fmt("gathered %.1f -> %.1f MB (acc %.3f -> %.3f)",
                       rf.feature_bytes_gathered / 1e6,
                       rs.feature_bytes_gathered / 1e6,
                       rf.final_test_accuracy, rs.final_test_accuracy)});
  }
  {  // Partitioning.
    DistGcnConfig ml = base;
    ml.partition = PartitionScheme::kMultilevel;
    DistGcnReport r = TrainDistGcn(ds, ml);
    ablate.AddRow({"graph partitioning", "DistDGL, DGCL (METIS); ByteGNN, "
                   "BGL (seed blocks)",
                   Fmt("comm %.2f -> %.2f MB (cut %s -> %s)",
                       baseline.comm_bytes / 1e6, r.comm_bytes / 1e6,
                       Human(baseline.edge_cut).c_str(),
                       Human(r.edge_cut).c_str())});
  }
  {  // k-hop materialization (AGL).
    std::vector<VertexId> train = ds.TrainVertices();
    KHopMaterializationStats k =
        MaterializeKHop(ds.graph, train, {10, 10}, ds.features.cols(), 3);
    ablate.AddRow({"k-hop materialization", "AGL (MapReduce preprocessing)",
                   Fmt("zero train-time graph comm for %.1f MB storage "
                       "(%.1fx blowup)",
                       k.storage_bytes / 1e6, k.blowup_vs_graph)});
  }
  {  // Feature/model split (P3) — its sweet spot is fat raw features.
    PlantedDatasetOptions fat_options;
    fat_options.num_vertices = 900;
    fat_options.num_classes = 4;
    fat_options.feature_dim = 256;
    NodeClassificationDataset fat = MakePlantedDataset(fat_options);
    DistGcnConfig dp = base;
    DistGcnConfig p3 = base;
    p3.p3_feature_split = true;
    DistGcnReport rd = TrainDistGcn(fat, dp);
    DistGcnReport rp = TrainDistGcn(fat, p3);
    ablate.AddRow({"feature-dim partitioning", "P3 (push-pull hybrid "
                   "parallelism)",
                   Fmt("256-dim features: comm %.2f -> %.2f MB, same loss "
                       "curve", rd.comm_bytes / 1e6, rp.comm_bytes / 1e6)});
  }
  {  // Bounded staleness.
    DistGcnConfig stale = base;
    stale.sync = SyncMode::kBoundedStaleness;
    stale.staleness_bound = 4;
    DistGcnReport r = TrainDistGcn(ds, stale);
    ablate.AddRow({"bounded-staleness async", "P3, Dorylus",
                   Fmt("exchanges %s -> %s, acc %.3f -> %.3f",
                       Human(baseline.broadcasts_sent).c_str(),
                       Human(r.broadcasts_sent).c_str(),
                       baseline.final_test_accuracy,
                       r.final_test_accuracy)});
  }
  {  // Staleness-aware skipping (Sancus).
    DistGcnConfig sancus = base;
    sancus.sync = SyncMode::kSancus;
    DistGcnReport r = TrainDistGcn(ds, sancus);
    ablate.AddRow({"staleness-aware skipping", "Sancus",
                   Fmt("%s broadcasts skipped adaptively, acc %.3f",
                       Human(r.broadcasts_skipped).c_str(),
                       r.final_test_accuracy)});
  }
  {  // Quantization.
    DistGcnConfig q = base;
    q.quantization = Quantization::kInt8;
    q.error_compensation = true;
    DistGcnReport r = TrainDistGcn(ds, q);
    ablate.AddRow({"lossy message compression", "EC-Graph, EXACT, F2CGT, "
                   "Sylvie",
                   Fmt("comm %.2f -> %.2f MB with int8+EC, acc %.3f",
                       baseline.comm_bytes / 1e6, r.comm_bytes / 1e6,
                       r.final_test_accuracy)});
  }
  {  // High-bandwidth fabric (DGCL).
    DistGcnConfig nvlink = base;
    nvlink.network = NetworkCostModel::Nvlink();
    DistGcnReport r = TrainDistGcn(ds, nvlink);
    ablate.AddRow({"NVLink-aware comm plans", "DGCL",
                   Fmt("modeled comm time %.2f -> %.4f ms/epoch",
                       baseline.comm_seconds * 1e3 / base.epochs,
                       r.comm_seconds * 1e3 / base.epochs)});
  }
  {  // Serverless (Dorylus).
    CostReport lambda = EvaluateDeployment(
        CloudDeployment::CpuPlusServerless(),
        baseline.simulated_epoch_seconds / base.epochs);
    ablate.AddRow({"serverless compute", "Dorylus",
                   Fmt("value %.2fx the CPU baseline per dollar",
                       lambda.value)});
  }
  {  // CPU-memory offload (HongTu / DistGNN full-graph).
    ablate.AddRow({"full-graph on CPU cluster / offload", "DistGNN, HongTu, "
                   "NeutronStar",
                   Fmt("overlap: epoch %.2f -> %.2f ms simulated",
                       baseline.simulated_epoch_seconds * 1e3 / base.epochs,
                       baseline.modeled_overlap_epoch_seconds * 1e3 /
                           base.epochs)});
  }
  ablate.Print();

  // --- The Table 2 matrix itself -----------------------------------------
  std::printf("\n-- Table 2: systems x techniques (x = uses technique; all "
              "columns demonstrated above) --\n");
  Table matrix({"system", "sampling/partition", "scheduling/pipeline",
                "staleness/async", "compression", "offload/cloud"});
  matrix.AddRow({"Euler", "x (sampling)", "x (operators)", "", "", ""});
  matrix.AddRow({"AliGraph", "x (sampling+cache)", "x (operators)", "", "",
                 ""});
  matrix.AddRow({"DistDGL", "x (METIS+sampling)", "", "", "", ""});
  matrix.AddRow({"AGL", "x (k-hop materialization)", "", "", "", ""});
  matrix.AddRow({"P3", "x (feature split)", "x (pipeline)",
                 "x (bounded staleness)", "", ""});
  matrix.AddRow({"NeutronStar", "", "x (auto-diff dependency)", "", "", ""});
  matrix.AddRow({"ByteGNN", "x (BFS blocks+sampling)", "x (two-level)", "",
                 "", ""});
  matrix.AddRow({"DGCL", "x (METIS)", "", "", "", "x (NVLink plans)"});
  matrix.AddRow({"BGL", "x (BFS blocks+cache)", "x (factored pipeline)", "",
                 "", ""});
  matrix.AddRow({"Sancus", "", "", "x (staleness-aware)", "", ""});
  matrix.AddRow({"Dorylus", "", "x (pipeline)", "x (bounded staleness)", "",
                 "x (serverless)"});
  matrix.AddRow({"DistGNN", "x (min vertex-cut)", "", "x (delayed updates)",
                 "", "x (CPU full-graph)"});
  matrix.AddRow({"HongTu", "x (partition)", "", "", "",
                 "x (CPU-mem offload)"});
  matrix.AddRow({"EC-Graph/EXACT/F2CGT/Sylvie", "", "", "",
                 "x (quantization)", ""});
  matrix.Print();
  return 0;
}
