// Experiment C1 (DESIGN.md): the survey's §1 anecdote — triangle
// counting on a vertex-centric (MapReduce/Pregel-style) engine vs a
// single machine doing oriented neighborhood intersections (Chu &
// Cheng's serial external-memory algorithm took 0.5 min where the
// 1636-machine MapReduce job took 5.33 min).
//
// Expected shape: the TLAV formulation moves one message per oriented
// wedge — orders of magnitude more "work units" and bytes than the
// intersection pass — and is correspondingly slower despite using the
// same number of cores.

#include <thread>

#include "bench_util.h"
#include "graph/generators.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/triangle_tlav.h"

namespace {

const char* ReorderName(gal::ReorderMode mode) {
  switch (mode) {
    case gal::ReorderMode::kNone: return "none";
    case gal::ReorderMode::kDegreeDesc: return "degree-desc";
    case gal::ReorderMode::kHubCluster: return "hub-cluster";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace gal;
  using namespace gal::bench;
  Banner("C1", "triangle counting: vertex-centric vs task-based (Sec. 1)");

  Table table({"graph", "triangles", "tlav msgs", "tlav MB", "tlav ms",
               "serial ops", "serial ms", "task(N) ms", "speedup vs tlav"});
  for (uint32_t scale : {10u, 11u, 12u, 13u, 14u}) {
    Graph g = Rmat(scale, 8, 42);
    const uint32_t cores = std::max(2u, std::thread::hardware_concurrency());
    TlavConfig tlav_config;
    tlav_config.num_workers = cores;
    TlavTriangleResult tlav = TlavTriangleCount(g, tlav_config);
    TriangleCountResult serial = SerialTriangleCount(g);
    TaskEngineConfig task_config;
    task_config.num_threads = cores;
    TriangleCountResult task = TaskTriangleCount(g, task_config);
    GAL_CHECK(tlav.triangles == serial.triangles);
    GAL_CHECK(task.triangles == serial.triangles);

    table.AddRow({Fmt("rmat-%u (|E|=%s)", scale, Human(g.NumEdges()).c_str()),
                  Human(serial.triangles),
                  Human(tlav.stats.total_messages),
                  Fmt("%.1f", tlav.stats.total_message_bytes / 1e6),
                  Fmt("%.1f", tlav.stats.wall_seconds * 1e3),
                  Human(serial.intersection_ops),
                  Fmt("%.1f", serial.wall_seconds * 1e3),
                  Fmt("%.1f", task.wall_seconds * 1e3),
                  Fmt("%.1fx", tlav.stats.wall_seconds /
                                   std::max(1e-9, task.wall_seconds))});
  }
  table.Print();

  // Second table: the cache-layout x codec matrix on the serial
  // triangle join itself. Rows are {reorder} x {raw/delta-varint}; the
  // baseline (none/raw) row is the "before", everything else is
  // "after". Triangle counts must agree across all cells — the knobs are
  // layout/codec policy only, and the join has no vector path, so
  // GAL_SIMD changes no cell. The B/edge column is
  // AdjacencyBytes()/NumAdjacencyEntries(): 4.00 for raw CSR, and the
  // delta-varint rows show the compression ratio the reordered, sorted
  // adjacency admits (hub-cluster shrinks the gaps, so the codec and the
  // reorder compose). The ms delta between a raw row and its compressed
  // twin at the same layout is the streaming-decode overhead of the
  // orientation pass.
  std::printf("\n");
  Banner("C1b", "reorder x compression sweep: serial triangle join");
  Table sweep({"layout", "codec", "triangles", "ops", "B/edge", "ms",
               "speedup"});
  Graph base = Rmat(13, 8, 42);
  const uint64_t expect_triangles = SerialTriangleCount(base).triangles;
  double baseline_ms = 0.0;
  for (ReorderMode mode : {ReorderMode::kNone, ReorderMode::kDegreeDesc,
                           ReorderMode::kHubCluster}) {
    for (CompressionMode codec :
         {CompressionMode::kNone, CompressionMode::kDeltaVarint}) {
      GraphOptions options;
      options.reorder = mode;
      options.compression = codec;
      Graph g =
          Graph::FromEdges(base.NumVertices(), base.CollectEdges(), options)
              .value();
      const double bytes_per_edge =
          static_cast<double>(g.AdjacencyBytes()) /
          std::max<uint64_t>(1, g.NumAdjacencyEntries());
      TriangleCountResult r = SerialTriangleCount(g);
      GAL_CHECK(r.triangles == expect_triangles);
      const double ms = r.wall_seconds * 1e3;
      if (mode == ReorderMode::kNone && codec == CompressionMode::kNone) {
        baseline_ms = ms;
      }
      sweep.AddRow({ReorderName(mode),
                    codec == CompressionMode::kDeltaVarint ? "delta-varint"
                                                           : "raw",
                    Human(r.triangles), Human(r.intersection_ops),
                    Fmt("%.2f", bytes_per_edge), Fmt("%.1f", ms),
                    Fmt("%.2fx", baseline_ms / std::max(1e-9, ms))});
    }
  }
  sweep.Print();

  std::printf("\nShape check: the vertex-centric engine ships one message "
              "per oriented wedge (megabytes buffered and routed through\n"
              "the BSP barrier) where the task engine does in-cache "
              "intersections; at equal core count the TLAV run is several\n"
              "times slower and the gap widens with scale — the survey's "
              "'1636 machines vs one' point in miniature.\n");
  return 0;
}
