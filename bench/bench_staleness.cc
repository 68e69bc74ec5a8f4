// Experiment C9 (DESIGN.md): model-synchronization paradigms — BSP
// (fresh halo exchange every epoch), bounded staleness s ∈ {2,4,8}
// (P3 / Dorylus), and Sancus's drift-adaptive broadcast skipping. Same
// model, same data, same partition; only the freshness policy differs.

#include <thread>

#include "bench_util.h"
#include "dist/dist_gcn.h"
#include "dist/pipeline.h"
#include "gnn/dataset.h"

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("C9", "sync vs bounded staleness vs Sancus (Sec. 3)");

  PlantedDatasetOptions data_options;
  data_options.num_vertices = 900;
  data_options.num_classes = 4;
  data_options.noise = 2.0;
  NodeClassificationDataset ds = MakePlantedDataset(data_options);
  const uint32_t kEpochs = 40;
  std::printf("dataset: %s, 4 workers, %u epochs\n\n",
              ds.graph.ToString().c_str(), kEpochs);

  Table table({"paradigm", "comm MB", "exchanges", "skipped", "accuracy",
               "final loss", "sim total ms"});
  auto run = [&](const char* name, SyncMode mode, uint32_t bound,
                 double drift) {
    DistGcnConfig config;
    config.epochs = kEpochs;
    config.sync = mode;
    config.staleness_bound = bound;
    config.sancus_drift_threshold = drift;
    DistGcnReport r = TrainDistGcn(ds, config);
    table.AddRow({name, Fmt("%.2f", r.comm_bytes / 1e6),
                  Human(r.broadcasts_sent), Human(r.broadcasts_skipped),
                  Fmt("%.3f", r.final_test_accuracy),
                  Fmt("%.3f", r.epoch_loss.back()),
                  Fmt("%.1f", r.modeled_overlap_epoch_seconds * 1e3)});
    return r;
  };

  DistGcnReport bsp = run("BSP (sync)", SyncMode::kBsp, 0, 0.0);
  run("bounded s=2", SyncMode::kBoundedStaleness, 2, 0.0);
  run("bounded s=4", SyncMode::kBoundedStaleness, 4, 0.0);
  run("bounded s=8", SyncMode::kBoundedStaleness, 8, 0.0);
  run("Sancus (drift 5%)", SyncMode::kSancus, 0, 0.05);
  run("Sancus (drift 15%)", SyncMode::kSancus, 0, 0.15);
  table.Print();

  std::printf("\n-- convergence curve (loss at epoch k) --\n");
  Table curve({"epoch", "BSP", "bounded s=4", "Sancus 5%"});
  DistGcnConfig c4;
  c4.epochs = kEpochs;
  c4.sync = SyncMode::kBoundedStaleness;
  c4.staleness_bound = 4;
  DistGcnReport r4 = TrainDistGcn(ds, c4);
  DistGcnConfig cs;
  cs.epochs = kEpochs;
  cs.sync = SyncMode::kSancus;
  cs.sancus_drift_threshold = 0.05;
  DistGcnReport rs = TrainDistGcn(ds, cs);
  for (uint32_t e : {0u, 4u, 9u, 19u, 39u}) {
    curve.AddRow({Fmt("%u", e + 1), Fmt("%.3f", bsp.epoch_loss[e]),
                  Fmt("%.3f", r4.epoch_loss[e]),
                  Fmt("%.3f", rs.epoch_loss[e])});
  }
  curve.Print();

  std::printf("\n-- BSP per-stage observability (measured spans; modeled "
              "overlap on a virtual clock, hardware_concurrency %u) --\n",
              std::thread::hardware_concurrency());
  Table spans({"stage", "total ms", "p50 ms", "p95 ms", "max ms"});
  for (const StageTimingStat& st : bsp.stage_timings) {
    spans.AddRow({st.name, Fmt("%.1f", st.total_seconds * 1e3),
                  Fmt("%.2f", st.p50_seconds * 1e3),
                  Fmt("%.2f", st.p95_seconds * 1e3),
                  Fmt("%.2f", st.max_seconds * 1e3)});
  }
  spans.Print();

  std::printf("\n-- BSP kernel-class attribution (KernelContext spans across "
              "all four workers) --\n");
  Table kernels({"kernel class", "total ms", "p50 ms", "p95 ms", "max ms"});
  for (const StageTimingStat& st : bsp.kernel_timings) {
    kernels.AddRow({st.name, Fmt("%.1f", st.total_seconds * 1e3),
                    Fmt("%.2f", st.p50_seconds * 1e3),
                    Fmt("%.2f", st.p95_seconds * 1e3),
                    Fmt("%.2f", st.max_seconds * 1e3)});
  }
  kernels.Print();

  std::printf("modeled compute->comm overlap: %.1f ms total (%.2fx vs "
              "serial, %s-bound)\n",
              bsp.modeled_overlap_epoch_seconds * 1e3,
              bsp.modeled_overlap_speedup,
              bsp.overlap_bottleneck_stage == 0 ? "compute" : "comm");

  // -- modeled comm-channel sweep (k executors on the network stage) ---
  // Re-model BSP's compute->comm overlap from the report's per-epoch
  // traces with 1/2/4 parallel channels — the two-level scheduler's
  // k-executor scheduling applied to a modeled *network* stage, no
  // retraining needed.
  std::printf("\n-- modeled comm-channel sweep (BSP traces, k channels) --\n");
  DistGcnConfig bsp_config;  // the network cost model the run used
  Table channels({"channels", "modeled overlap ms", "bottleneck",
                  "comm occupancy"});
  for (uint32_t k : {1u, 2u, 4u}) {
    std::vector<ModeledStageSpec> overlap_stages = {
        {"compute", bsp.epoch_compute_trace, 1},
        ModeledNetworkStage("comm", bsp_config.network, bsp.epoch_comm_bytes,
                            bsp.epoch_comm_messages, k),
    };
    ModeledPipelineResult m = ModelPipelineSchedule(overlap_stages);
    channels.AddRow({Fmt("%u", k), Fmt("%.1f", m.pipelined_seconds * 1e3),
                     m.bottleneck_stage == 0 ? "compute" : "comm",
                     Fmt("%.0f%%", 100.0 * m.stage_occupancy[1])});
  }
  channels.Print();

  std::printf("\nShape check: staleness cuts exchanges (and simulated time) "
              "several-fold at a small accuracy/convergence cost that grows\n"
              "with the bound; Sancus lands near the best of both by "
              "skipping only low-drift broadcasts — the survey's §3 story.\n");
  return 0;
}
