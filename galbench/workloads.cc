// The benchmark workloads (README.md in this directory has why each exists
// and the layer -> end-to-end map):
//   memory  three in-memory parts, each on its own 4-worker ClusterRuntime:
//           traverse  PageRank + WCC + 32-source BFS: tlav message engine,
//                     frontier substrate, many tiny exchange messages;
//           mine      task-engine triangles + diamond / 4-cycle matching:
//                     intersection kernels, tlag task engine, match search;
//           gnn       distributed GCN training with a checkpoint/failure
//                     schedule: tensor kernels, few fat halo rows,
//                     checkpoint and restore.
//   ooc     PageRank, WCC and triangles over a 16-shard store at a 25%
//           adjacency budget: ShardCache, shard I/O, modeled disk time. It
//           bypasses tlav, frontier, match, tensor and the cluster.
// Every job goes through the public API of src/ and is checked against an
// oracle computed by an independent path outside any timed region. Every
// config sets its fault plan (and direction policy) explicitly rather than
// taking the environment-derived default.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "common/logging.h"
#include "common/timer.h"
#include "dist/dist_gcn.h"
#include "gnn/dataset.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "match/executor.h"
#include "match/pattern.h"
#include "ooc/ooc_algos.h"
#include "ooc/shard_format.h"
#include "ooc/sharded_graph.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/wcc.h"

namespace galbench {
namespace {

using gal::Graph;
using gal::VertexId;

constexpr uint32_t kClusterWorkers = 4;
constexpr uint32_t kPageRankIterations = 10;

/// FNV-1a offset basis: the digest of nothing, where digest chains start.
constexpr uint64_t kDigestStart = 1469598103934665603ull;

/// Output digests are over raw bytes, so a digest match is bit-identity.
template <typename T>
uint64_t Digest(const std::vector<T>& values, uint64_t seed = kDigestStart) {
  return gal::Fnv1a(values.data(), values.size() * sizeof(T), seed);
}

uint64_t Digest(uint64_t value, uint64_t seed = kDigestStart) {
  return gal::Fnv1a(&value, sizeof(value), seed);
}

/// Times layer calls. In a traced pass it also snapshots the ledger and
/// clock the calls charge (either may be null) around each call and keeps
/// one Span per call.
class Recorder {
 public:
  Recorder(bool traced, const gal::TrafficLedger* ledger,
           const gal::VirtualClock* clock)
      : traced_(traced), ledger_(ledger), clock_(clock) {}

  template <typename Fn>
  double Call(const char* name, Fn&& fn) {
    gal::TrafficSnapshot before;
    size_t mark = 0;
    if (traced_) {
      if (ledger_ != nullptr) before = ledger_->Snapshot();
      if (clock_ != nullptr) mark = clock_->rounds();
    }
    const double start = pass_timer_.ElapsedSeconds();
    gal::Timer timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (traced_) {
      Span span;
      span.name = name;
      span.start_s = start;
      span.end_s = start + seconds;
      if (ledger_ != nullptr) {
        const gal::TrafficSnapshot after = ledger_->Snapshot();
        span.cross_bytes = after.cross_bytes - before.cross_bytes;
        span.cross_messages = after.cross_messages - before.cross_messages;
      }
      if (clock_ != nullptr) {
        for (const gal::ClusterRound& r : clock_->RoundsSince(mark)) {
          ++span.clock_rounds;
          span.compute_s += r.compute_seconds;
          span.comm_s += r.comm_seconds;
        }
      }
      spans_.push_back(std::move(span));
    }
    return seconds;
  }

  /// Ledger and clock totals over every span of the pass as the
  /// cluster.* layer metrics.
  void AddClusterMetrics(Metrics& m) const {
    double compute_s = 0.0, comm_s = 0.0;
    for (const Span& s : spans_) {
      m["cluster.cross_msgs"] += static_cast<double>(s.cross_messages);
      m["cluster.rounds"] += static_cast<double>(s.clock_rounds);
      compute_s += s.compute_s;
      comm_s += s.comm_s;
    }
    AddRatio(m, "cluster.comm_share", comm_s, compute_s + comm_s);
  }

  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  bool traced_;
  const gal::TrafficLedger* ledger_;
  const gal::VirtualClock* clock_;
  gal::Timer pass_timer_;
  std::vector<Span> spans_;
};

/// Adds one task-engine run to the tlag.* metrics. Steals and parks are not
/// reported: with one host thread there are none.
void AddTaskStats(Metrics& m, const gal::TaskEngineStats& s) {
  m["tlag.tasks"] += static_cast<double>(s.tasks_executed);
  AddRatio(m, "tlag.busy_frac", s.TotalBusySeconds(),
           s.wall_seconds * static_cast<double>(s.busy_seconds.size()));
}

/// The layout the traversal and mining engines are tuned for: hub-cluster
/// reordering plus delta-varint adjacency.
gal::GraphOptions TunedLayout() {
  gal::GraphOptions options;
  options.reorder = gal::ReorderMode::kHubCluster;
  options.compression = gal::CompressionMode::kDeltaVarint;
  return options;
}

Graph Rebuild(const Graph& g, const gal::GraphOptions& options) {
  gal::Result<Graph> built =
      Graph::FromEdges(g.NumVertices(), g.CollectEdges(), options);
  GAL_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// graph.* probes over a workload's graphs: CSR build time from the edge
/// list in each graph's own layout, a full ForEachOutNeighbor sweep, and
/// adjacency bytes per adjacency entry. Times are medians of three.
Metrics GraphProbes(const std::vector<std::pair<const Graph*, gal::GraphOptions>>&
                        graphs) {
  constexpr int kReps = 3;
  double build_s = 0.0, scan_s = 0.0, bytes = 0.0, entries = 0.0;
  uint64_t checksum = 0;
  for (const auto& [g, options] : graphs) {
    std::vector<double> build, scan;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<gal::Edge> edges = g->CollectEdges();
      gal::Timer t;
      gal::Result<Graph> built =
          Graph::FromEdges(g->NumVertices(), std::move(edges), options);
      build.push_back(t.ElapsedSeconds());
      GAL_CHECK(built.ok()) << built.status().ToString();
    }
    for (int rep = 0; rep < kReps; ++rep) {
      gal::Timer t;
      for (VertexId v = 0; v < g->NumVertices(); ++v) {
        g->ForEachOutNeighbor(v, [&](VertexId u) { checksum += u; });
      }
      scan.push_back(t.ElapsedSeconds());
    }
    build_s += Median(build);
    scan_s += Median(scan);
    bytes += static_cast<double>(g->AdjacencyBytes());
    entries += static_cast<double>(g->NumAdjacencyEntries());
  }
  // Keeps the sweep observable so it cannot be optimized away.
  if (checksum == 1) std::fputc(' ', stderr);
  return {{"graph.build_s", build_s},
          {"graph.scan_s", scan_s},
          {"graph.bytes_per_edge", entries == 0.0 ? 0.0 : bytes / entries}};
}

gal::TaskEngineConfig TaskConfig(uint32_t threads) {
  gal::TaskEngineConfig config;
  config.num_threads = threads;
  config.faults = gal::FaultPlan();
  return config;
}

/// A part of the in-memory workload; its graph probes cover Graphs().
class InMemoryPart : public Workload {
 public:
  virtual std::vector<std::pair<const Graph*, gal::GraphOptions>> Graphs()
      const = 0;
  Metrics Probes() override { return GraphProbes(Graphs()); }
};

// ---------------------------------------------------------------------------

class TraversePart : public InMemoryPart {
 public:
  TraversePart(uint64_t seed, Size size) : seed_(seed) {
    scale_ = size == Size::kFull ? 14 : 10;
    edge_factor_ = size == Size::kFull ? 16 : 8;
    num_sources_ = size == Size::kFull ? 32 : 4;
  }

  void Setup() override {
    graph_ = Graph();
    const Graph raw = gal::Rmat(scale_, edge_factor_, seed_);
    graph_ = Rebuild(raw, TunedLayout());
    // Sources spread evenly over the id space, each moved forward to the
    // next vertex with an edge so no query is trivially empty.
    sources_.clear();
    const VertexId n = raw.NumVertices();
    for (uint32_t i = 0; i < num_sources_; ++i) {
      VertexId v = static_cast<VertexId>(uint64_t{i} * n / num_sources_);
      while (v + 1 < n && raw.Degree(v) == 0) ++v;
      sources_.push_back(v);
    }
  }

  PassResult Pass(bool traced) override {
    gal::ClusterRuntime cluster(gal::ClusterOptions{kClusterWorkers, {}});
    Recorder rec(traced, &cluster.ledger(), &cluster.clock());
    PassResult out;

    gal::PageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    pr_options.engine.cluster = &cluster;
    pr_options.engine.faults = gal::FaultPlan();
    gal::PageRankResult rank;
    JobOutcome pagerank{"pagerank"};
    pagerank.seconds =
        rec.Call("tlav.PageRank", [&] { rank = gal::PageRank(graph_, pr_options); });
    pagerank.digest = Digest(rank.ranks);

    gal::WccOptions wcc_options;
    wcc_options.engine.cluster = &cluster;
    wcc_options.engine.faults = gal::FaultPlan();
    wcc_options.direction = gal::DirectionConfig();
    gal::WccResult wcc;
    JobOutcome components{"wcc"};
    components.seconds =
        rec.Call("frontier.Wcc", [&] { wcc = gal::Wcc(graph_, wcc_options); });
    components.digest = Digest(wcc.component);

    gal::TraversalOptions bfs_options;
    bfs_options.engine.cluster = &cluster;
    bfs_options.engine.faults = gal::FaultPlan();
    bfs_options.direction = gal::DirectionConfig();
    JobOutcome bfs{"bfs"};
    bfs.digest = kDigestStart;
    uint64_t bfs_edges = 0, bfs_pulls = 0;
    for (VertexId source : sources_) {
      gal::BfsResult r;
      bfs.seconds += rec.Call("frontier.TlavBfs", [&] {
        r = gal::TlavBfs(graph_, source, bfs_options);
      });
      bfs.status_ok = bfs.status_ok && r.status.ok();
      bfs.digest = Digest(r.distance, bfs.digest);
      bfs_edges += r.stats.edge_scans;
      bfs_pulls += r.stats.pull_supersteps;
    }

    if (traced) {
      Metrics& m = out.layer;
      m["tlav.supersteps"] += rank.stats.supersteps;
      m["tlav.messages"] += static_cast<double>(rank.stats.total_messages);
      m["tlav.edge_scans"] += static_cast<double>(rank.stats.edge_scans);
      m["frontier.edges_scanned"] +=
          static_cast<double>(wcc.stats.edge_scans + bfs_edges);
      m["frontier.pull_steps"] +=
          static_cast<double>(wcc.stats.pull_supersteps + bfs_pulls);
      rec.AddClusterMetrics(m);
      out.spans = rec.TakeSpans();
    }
    out.jobs = {pagerank, components, bfs};
    return out;
  }

  std::map<std::string, uint64_t> Oracle() override {
    // Raw layout, one simulated worker, one host thread; WCC and BFS on
    // the push-only message engine.
    const Graph raw = gal::Rmat(scale_, edge_factor_, seed_);
    gal::PageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    pr_options.engine.num_workers = 1;
    pr_options.engine.faults = gal::FaultPlan();
    const gal::PageRankResult rank = gal::PageRank(raw, pr_options);

    gal::WccOptions wcc_options;
    wcc_options.engine.num_workers = 1;
    wcc_options.engine.faults = gal::FaultPlan();
    wcc_options.direction.mode = gal::DirectionMode::kPushOnly;
    const gal::WccResult wcc = gal::Wcc(raw, wcc_options);

    gal::TraversalOptions bfs_options;
    bfs_options.engine.num_workers = 1;
    bfs_options.engine.faults = gal::FaultPlan();
    bfs_options.direction.mode = gal::DirectionMode::kPushOnly;
    uint64_t bfs = kDigestStart;
    for (VertexId source : sources_) {
      const gal::BfsResult r = gal::TlavBfs(raw, source, bfs_options);
      GAL_CHECK(r.status.ok()) << r.status.ToString();
      bfs = Digest(r.distance, bfs);
    }
    return {{"pagerank", Digest(rank.ranks)},
            {"wcc", Digest(wcc.component)},
            {"bfs", bfs}};
  }

  std::vector<std::pair<const Graph*, gal::GraphOptions>> Graphs()
      const override {
    return {{&graph_, TunedLayout()}};
  }

 private:
  uint64_t seed_;
  uint32_t scale_, edge_factor_, num_sources_;
  Graph graph_;
  std::vector<VertexId> sources_;
};

// ---------------------------------------------------------------------------

class MinePart : public InMemoryPart {
 public:
  MinePart(uint64_t seed, Size size, uint32_t threads)
      : seed_(seed), threads_(threads) {
    scale_ = size == Size::kFull ? 16 : 10;
    edge_factor_ = size == Size::kFull ? 16 : 8;
    ba_vertices_ = size == Size::kFull ? 20000 : 1000;
    ba_attach_ = size == Size::kFull ? 4 : 3;
  }

  void Setup() override {
    rmat_ = Graph();
    ba_ = Graph();
    rmat_ = Rebuild(gal::Rmat(scale_, edge_factor_, seed_), TunedLayout());
    ba_ = gal::BarabasiAlbert(ba_vertices_, ba_attach_, seed_);
    patterns_ = {gal::DiamondPattern(), gal::CyclePattern(4)};
  }

  PassResult Pass(bool traced) override {
    // Triangles run as distributed mining: every adjacency row a task
    // intersects is charged to its home worker, and the job closes one
    // clock round.
    gal::ClusterRuntime cluster(gal::ClusterOptions{kClusterWorkers, {}});
    Recorder rec(traced, &cluster.ledger(), &cluster.clock());
    PassResult out;

    gal::TaskEngineConfig tri_config = TaskConfig(threads_);
    tri_config.cluster = &cluster;
    gal::TriangleCountResult tri;
    JobOutcome triangles{"triangles"};
    triangles.seconds = rec.Call("tlag.TaskTriangleCount", [&] {
      tri = gal::TaskTriangleCount(rmat_, tri_config);
    });
    triangles.digest = Digest(tri.triangles);

    JobOutcome match{"match"};
    match.digest = kDigestStart;
    uint64_t search_nodes = 0, candidates = 0;
    std::vector<gal::TaskEngineStats> match_tasks;
    for (const Graph& pattern : patterns_) {
      gal::MatchResult r;
      match.seconds += rec.Call("match.SubgraphMatch", [&] {
        r = gal::SubgraphMatch(ba_, pattern, MatchConfig(true));
      });
      match.digest = Digest(r.stats.matches, match.digest);
      search_nodes += r.stats.search_nodes;
      candidates += r.stats.candidate_total;
      match_tasks.push_back(r.stats.task_stats);
    }

    if (traced) {
      Metrics& m = out.layer;
      m["graph.intersection_ops"] += static_cast<double>(tri.intersection_ops);
      AddRatio(m, "graph.intersect_ops_per_s",
               static_cast<double>(tri.intersection_ops), triangles.seconds);
      m["match.search_nodes"] += static_cast<double>(search_nodes);
      m["match.candidate_total"] += static_cast<double>(candidates);
      AddTaskStats(m, tri.task_stats);
      for (const gal::TaskEngineStats& t : match_tasks) AddTaskStats(m, t);
      rec.AddClusterMetrics(m);
      out.spans = rec.TakeSpans();
    }
    out.jobs = {triangles, match};
    return out;
  }

  std::map<std::string, uint64_t> Oracle() override {
    // Serial count on the raw layout; matching without symmetry breaking
    // finds every automorphic image, so it must see count x |Aut|.
    const Graph raw = gal::Rmat(scale_, edge_factor_, seed_);
    const gal::TriangleCountResult tri = gal::SerialTriangleCount(raw);
    uint64_t match = kDigestStart;
    for (const Graph& pattern : patterns_) {
      const uint64_t images =
          gal::SubgraphMatch(ba_, pattern, MatchConfig(false)).stats.matches;
      const uint64_t aut = gal::Automorphisms(pattern).size();
      const uint64_t distinct = images % aut == 0 ? images / aut : UINT64_MAX;
      match = Digest(distinct, match);
    }
    return {{"triangles", Digest(tri.triangles)}, {"match", match}};
  }

  std::vector<std::pair<const Graph*, gal::GraphOptions>> Graphs()
      const override {
    return {{&rmat_, TunedLayout()}, {&ba_, gal::GraphOptions()}};
  }

 private:
  gal::MatchOptions MatchConfig(bool symmetry_breaking) const {
    gal::MatchOptions options;
    options.order = gal::OrderStrategy::kGreedyCost;
    options.symmetry_breaking = symmetry_breaking;
    options.engine = TaskConfig(threads_);
    return options;
  }

  uint64_t seed_;
  uint32_t threads_;
  uint32_t scale_, edge_factor_, ba_vertices_, ba_attach_;
  Graph rmat_, ba_;
  std::vector<Graph> patterns_;
};

// ---------------------------------------------------------------------------

class OocWorkload : public Workload {
 public:
  OocWorkload(uint64_t seed, Size size, uint32_t threads, std::string tmpdir)
      : seed_(seed), threads_(threads), tmpdir_(std::move(tmpdir)) {
    scale_ = size == Size::kFull ? 13 : 9;
    edge_factor_ = size == Size::kFull ? 16 : 8;
  }

  ~OocWorkload() override {
    if (!base_.empty()) gal::RemoveShardedGraphFiles(base_);
  }

  void Setup() override {
    store_.reset();
    if (!base_.empty()) gal::RemoveShardedGraphFiles(base_);
    base_ = tmpdir_ + "/rmat" + std::to_string(scale_) + "-" +
            std::to_string(setups_++);
    uint64_t adj_bytes = 0;
    gal::Result<gal::ShardWriteSummary> summary = [&] {
      const Graph g = Rebuild(gal::Rmat(scale_, edge_factor_, seed_), TunedLayout());
      adj_bytes = g.AdjacencyBytes();
      gal::ShardWriterOptions writer;
      writer.target_shard_bytes = std::max<uint64_t>(1, adj_bytes / kShards);
      return gal::WriteShardedGraph(g, base_, writer);
    }();
    GAL_CHECK(summary.ok()) << summary.status().ToString();
    budget_ = std::max(adj_bytes / 4, summary.value().max_shard_resident_bytes);
    gal::Result<gal::ShardedGraph> opened = Open();
    GAL_CHECK(opened.ok()) << opened.status().ToString();
    store_ = std::make_unique<gal::ShardedGraph>(std::move(opened).value());
  }

  PassResult Pass(bool traced) override {
    PassResult out;
    // Every pass starts from a freshly opened store: a cold cache and
    // fresh load histograms, so passes are alike however many ran before.
    gal::Result<gal::ShardedGraph> opened = Open();
    if (!opened.ok()) {
      for (const char* name : {"pagerank", "wcc", "triangles"}) {
        JobOutcome failed{name};
        failed.status_ok = false;
        out.jobs.push_back(failed);
      }
      return out;
    }
    store_ = std::make_unique<gal::ShardedGraph>(std::move(opened).value());
    const gal::ShardedGraph& store = *store_;
    Recorder rec(traced, nullptr, &store.clock());

    gal::OocPageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    pr_options.num_threads = threads_;
    gal::OocPageRankResult rank;
    JobOutcome pagerank{"pagerank"};
    pagerank.seconds = rec.Call("ooc.OocPageRank",
                                [&] { rank = gal::OocPageRank(store, pr_options); });
    pagerank.digest = Digest(rank.ranks);

    gal::OocWccOptions wcc_options;
    wcc_options.num_threads = threads_;
    gal::OocWccResult wcc;
    JobOutcome components{"wcc"};
    components.seconds =
        rec.Call("ooc.OocWcc", [&] { wcc = gal::OocWcc(store, wcc_options); });
    components.digest = Digest(wcc.component);

    gal::OocTriangleOptions tri_options;
    tri_options.engine = TaskConfig(threads_);
    gal::OocTriangleResult tri;
    JobOutcome triangles{"triangles"};
    triangles.seconds = rec.Call("ooc.OocTriangleCount", [&] {
      tri = gal::OocTriangleCount(store, tri_options);
    });
    triangles.digest = Digest(tri.triangles);

    if (traced) {
      Metrics& m = out.layer;
      uint64_t loads = 0, hits = 0, bytes = 0, evictions = 0;
      double io_s = 0.0, modeled_s = 0.0;
      for (const gal::OocStats* s : {&rank.stats, &wcc.stats, &tri.stats}) {
        loads += s->shard_loads;
        hits += s->cache_hits;
        bytes += s->shard_load_bytes;
        evictions += s->evictions;
        io_s += s->modeled_io_seconds;
        modeled_s += s->modeled_seconds;
      }
      m["ooc.shard_loads"] += static_cast<double>(loads);
      AddRatio(m, "ooc.hit_ratio", static_cast<double>(hits),
               static_cast<double>(loads + hits));
      m["ooc.load_mb"] += static_cast<double>(bytes) / 1e6;
      m["ooc.evictions"] += static_cast<double>(evictions);
      AddShareOfPass(m, "ooc.load_share",
                     store.cache().LoadTimings().total_seconds);
      AddRatio(m, "ooc.io_share", io_s, modeled_s);
      m["graph.intersection_ops"] += static_cast<double>(tri.intersection_ops);
      AddRatio(m, "graph.intersect_ops_per_s",
               static_cast<double>(tri.intersection_ops), triangles.seconds);
      AddTaskStats(m, tri.task_stats);
      out.spans = rec.TakeSpans();
    }
    out.jobs = {pagerank, components, triangles};
    return out;
  }

  std::map<std::string, uint64_t> Oracle() override {
    // The in-memory engines on the raw layout.
    const Graph raw = gal::Rmat(scale_, edge_factor_, seed_);
    gal::PageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    pr_options.engine.num_workers = 1;
    pr_options.engine.faults = gal::FaultPlan();
    gal::WccOptions wcc_options;
    wcc_options.engine.num_workers = 1;
    wcc_options.engine.faults = gal::FaultPlan();
    wcc_options.direction.mode = gal::DirectionMode::kPushOnly;
    return {{"pagerank", Digest(gal::PageRank(raw, pr_options).ranks)},
            {"wcc", Digest(gal::Wcc(raw, wcc_options).component)},
            {"triangles", Digest(gal::SerialTriangleCount(raw).triangles)}};
  }

  Metrics Probes() override {
    const Graph g = Rebuild(gal::Rmat(scale_, edge_factor_, seed_), TunedLayout());
    return GraphProbes({{&g, TunedLayout()}});
  }

 private:
  static constexpr uint64_t kShards = 16;

  gal::Result<gal::ShardedGraph> Open() const {
    gal::OocOptions options;
    options.memory_budget_bytes = budget_;
    return gal::ShardedGraph::Open(base_, options);
  }

  uint64_t seed_;
  uint32_t threads_;
  std::string tmpdir_;
  uint32_t scale_, edge_factor_;
  uint32_t setups_ = 0;
  std::string base_;
  uint64_t budget_ = 0;
  std::unique_ptr<gal::ShardedGraph> store_;
};

// ---------------------------------------------------------------------------

class GnnPart : public InMemoryPart {
 public:
  GnnPart(uint64_t seed, Size size) : seed_(seed) {
    const bool full = size == Size::kFull;
    data_.num_vertices = full ? 4000 : 400;
    data_.num_classes = full ? 8 : 4;
    data_.feature_dim = full ? 64 : 16;
    data_.seed = seed;
    hidden_ = full ? 64 : 16;
    epochs_ = full ? 30 : 10;
    checkpoint_every_ = full ? 5 : 3;
    fail_epoch_ = full ? 17 : 4;
  }

  void Setup() override {
    dataset_ = gal::NodeClassificationDataset();
    dataset_ = gal::MakePlantedDataset(data_);
  }

  PassResult Pass(bool traced) override {
    gal::ClusterRuntime cluster(gal::ClusterOptions{kClusterWorkers, {}});
    Recorder rec(traced, &cluster.ledger(), &cluster.clock());
    PassResult out;
    gal::DistGcnConfig config = Config(&cluster);
    config.faults =
        gal::FaultPlan().CheckpointEvery(checkpoint_every_).FailWorkerAt(1, fail_epoch_);
    gal::DistGcnReport report;
    JobOutcome train{"train"};
    train.seconds = rec.Call("dist.TrainDistGcn", [&] {
      report = gal::TrainDistGcn(dataset_, config);
    });
    train.digest = ReportDigest(report);
    if (traced) {
      Metrics& m = out.layer;
      for (const gal::StageTimingStat& k : report.kernel_timings) {
        AddShareOfPass(m, "tensor." + k.name + "_share", k.total_seconds);
      }
      m["dist.halo_rows"] += static_cast<double>(report.halo_rows_exchanged);
      m["cluster.checkpoint_mb"] +=
          static_cast<double>(report.checkpoint_bytes) / 1e6;
      m["cluster.restored_mb"] += static_cast<double>(report.restored_bytes) / 1e6;
      m["cluster.recomputed_rounds"] += report.recomputed_epochs;
      m["test_acc"] += report.final_test_accuracy;
      rec.AddClusterMetrics(m);
      out.spans = rec.TakeSpans();
    }
    out.jobs = {train};
    return out;
  }

  std::map<std::string, uint64_t> Oracle() override {
    // Training is epoch-deterministic, so the fault-free run's loss and
    // accuracy curves are what the recovered run must reproduce.
    return {{"train", ReportDigest(gal::TrainDistGcn(dataset_, Config(nullptr)))}};
  }

  std::vector<std::pair<const Graph*, gal::GraphOptions>> Graphs()
      const override {
    return {{&dataset_.graph, gal::GraphOptions()}};
  }

 private:
  gal::DistGcnConfig Config(gal::ClusterRuntime* cluster) const {
    gal::DistGcnConfig config;
    config.num_workers = kClusterWorkers;
    config.partition = gal::PartitionScheme::kHash;
    config.sync = gal::SyncMode::kBsp;
    config.hidden_dim = hidden_;
    config.epochs = epochs_;
    config.seed = seed_;
    config.cluster = cluster;
    config.faults = gal::FaultPlan();
    return config;
  }

  static uint64_t ReportDigest(const gal::DistGcnReport& report) {
    return Digest(report.epoch_test_accuracy, Digest(report.epoch_loss));
  }

  uint64_t seed_;
  gal::PlantedDatasetOptions data_;
  uint32_t hidden_, epochs_, checkpoint_every_, fail_epoch_;
  gal::NodeClassificationDataset dataset_;
};

// ---------------------------------------------------------------------------

/// The in-memory workload: traverse, mine and gnn run back to back in every
/// pass. They are one workload, not three, because on a shared host the
/// throughput-bound PageRank and GCN passes alone swung with the host's load
/// (cross-seed run_s spreads up to 0.20 and 0.28); the integer-heavy mining
/// part, about two thirds of the pass, damps that.
class MemoryWorkload : public Workload {
 public:
  MemoryWorkload(uint64_t seed, Size size, uint32_t threads) {
    parts_.push_back(std::make_unique<TraversePart>(seed, size));
    parts_.push_back(std::make_unique<MinePart>(seed, size, threads));
    parts_.push_back(std::make_unique<GnnPart>(seed, size));
  }

  void Setup() override {
    for (auto& part : parts_) part->Setup();
  }

  PassResult Pass(bool traced) override {
    PassResult out;
    for (auto& part : parts_) {
      PassResult r = part->Pass(traced);
      out.jobs.insert(out.jobs.end(), r.jobs.begin(), r.jobs.end());
      out.spans.insert(out.spans.end(), r.spans.begin(), r.spans.end());
      for (const auto& [name, value] : r.layer) out.layer[name] += value;
    }
    return out;
  }

  std::map<std::string, uint64_t> Oracle() override {
    std::map<std::string, uint64_t> expected;
    for (auto& part : parts_) expected.merge(part->Oracle());
    return expected;
  }

  Metrics Probes() override {
    std::vector<std::pair<const Graph*, gal::GraphOptions>> graphs;
    for (const auto& part : parts_) {
      for (const auto& g : part->Graphs()) graphs.push_back(g);
    }
    return GraphProbes(graphs);
  }

 private:
  std::vector<std::unique_ptr<InMemoryPart>> parts_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Size size, uint32_t threads,
                                       const std::string& tmpdir) {
  if (name == "memory") {
    return std::make_unique<MemoryWorkload>(seed, size, threads);
  }
  if (name == "ooc") {
    return std::make_unique<OocWorkload>(seed, size, threads, tmpdir);
  }
  return nullptr;
}

}  // namespace galbench
