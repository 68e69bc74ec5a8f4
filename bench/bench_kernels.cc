// Microbenchmarks (google-benchmark) of the kernels everything else is
// built from: CSR construction, neighborhood intersection, SpMM, dense
// matmul, sampling, and the TLAV superstep loop. These are the numbers
// to watch when optimizing the library itself.

#include <algorithm>
#include <thread>

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "gnn/sampler.h"
#include "graph/generators.h"
#include "tensor/kernel_context.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

// Thread-count sweep for the KernelContext-backed kernels: 1 / 2 / 4 /
// hardware_concurrency. The GFLOP/s and edges/s counters are the kernel
// throughput trajectory BENCH_*.json tracks across PRs.
void KernelThreadArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  if (hw != 1 && hw != 2 && hw != 4) b->Arg(hw);
}

void BM_CsrConstruction(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  Graph g = Rmat(scale, 8, 3);
  std::vector<Edge> edges = g.CollectEdges();
  for (auto _ : state) {
    auto copy = edges;
    Result<Graph> built = Graph::FromEdges(g.NumVertices(), std::move(copy), {});
    benchmark::DoNotOptimize(built.value().NumEdges());
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_CsrConstruction)->Arg(10)->Arg(12);

void BM_TriangleCountSerial(benchmark::State& state) {
  Graph g = Rmat(static_cast<uint32_t>(state.range(0)), 8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerialTriangleCount(g).triangles);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_TriangleCountSerial)->Arg(10)->Arg(12);

void BM_TriangleCountTask8(benchmark::State& state) {
  Graph g = Rmat(static_cast<uint32_t>(state.range(0)), 8, 3);
  TaskEngineConfig config;
  config.num_threads = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TaskTriangleCount(g, config).triangles);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_TriangleCountTask8)->Arg(10)->Arg(12);

void BM_SpMM(benchmark::State& state) {
  Graph g = Rmat(11, 8, 5);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  Rng rng(1);
  Matrix h = Matrix::Xavier(g.NumVertices(), static_cast<uint32_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(h).rows());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * state.range(0));
}
BENCHMARK(BM_SpMM)->Arg(16)->Arg(64);

void BM_DenseMatmul(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(2);
  Matrix a = Matrix::Xavier(n, n, rng);
  Matrix b = Matrix::Xavier(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b).rows());
  }
  state.SetItemsProcessed(state.iterations() * uint64_t{n} * n * n);
}
BENCHMARK(BM_DenseMatmul)->Arg(64)->Arg(128);

void BM_GemmThreadSweep(benchmark::State& state) {
  const uint32_t n = 256;  // >= the acceptance problem size (256^3)
  const size_t threads = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Matrix a = Matrix::Xavier(n, n, rng);
  Matrix b = Matrix::Xavier(n, n, rng);
  KernelContext::Get().SetNumThreads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b).rows());
  }
  KernelContext::Get().SetNumThreads(0);
  const double flops = 2.0 * n * n * n * state.iterations();
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_GemmThreadSweep)->Apply(KernelThreadArgs)->UseRealTime();

void BM_SpmmThreadSweep(benchmark::State& state) {
  // Power-law generator graph: the nnz-balanced shards are what keeps
  // the hub rows from serializing one shard.
  Graph g = Rmat(12, 8, 5);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  Rng rng(5);
  Matrix h = Matrix::Xavier(g.NumVertices(), 32, rng);
  const size_t threads = static_cast<size_t>(state.range(0));
  KernelContext::Get().SetNumThreads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(h).rows());
  }
  KernelContext::Get().SetNumThreads(0);
  const double edges = static_cast<double>(adj.nnz()) * state.iterations();
  state.counters["edges/s"] =
      benchmark::Counter(edges, benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() * adj.nnz() * h.cols());
}
BENCHMARK(BM_SpmmThreadSweep)->Apply(KernelThreadArgs)->UseRealTime();

// ---- reorder x compression x SIMD sweep ------------------------------
// The before/after rows for the cache-layout + codec + vector-kernel
// pass: each benchmark below carries `reorder` (0=none 1=degree-desc
// 2=hub-cluster), `compressed` (0=raw CSR 1=delta-varint), and `simd`
// (0=scalar 1=active ISA) counters so the speedup matrix is a recorded
// artifact, not a one-off measurement. The triangle join has no vector
// path, so its sweep has no `simd` axis. Compressed rows also report
// `B/edge` (adjacency bytes per entry; raw CSR is 4.00) — the time
// delta against the raw row at the same (reorder, simd) is the
// streaming-decode overhead.

Graph WithLayout(const Graph& g, ReorderMode mode,
                 CompressionMode codec = CompressionMode::kNone) {
  GraphOptions options;
  options.directed = g.directed();
  options.reorder = mode;
  options.compression = codec;
  return Graph::FromEdges(g.NumVertices(), g.CollectEdges(), options).value();
}

void BM_TriangleLayoutSweep(benchmark::State& state) {
  const auto mode = static_cast<ReorderMode>(state.range(0));
  const auto codec = static_cast<CompressionMode>(state.range(1));
  Graph raw = Rmat(12, 8, 3);
  const uint64_t expect = SerialTriangleCount(raw).triangles;
  Graph g = WithLayout(raw, mode, codec);
  for (auto _ : state) {
    const uint64_t triangles = SerialTriangleCount(g).triangles;
    GAL_CHECK(triangles == expect);
    benchmark::DoNotOptimize(triangles);
  }
  state.counters["reorder"] = static_cast<double>(state.range(0));
  state.counters["compressed"] = g.IsCompressed() ? 1.0 : 0.0;
  state.counters["B/edge"] =
      static_cast<double>(g.AdjacencyBytes()) /
      std::max<uint64_t>(1, g.NumAdjacencyEntries());
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_TriangleLayoutSweep)->ArgsProduct({{0, 1, 2}, {0, 1}});

void BM_GemmSimdSweep(benchmark::State& state) {
  const uint32_t n = 256;
  const bool want_simd = state.range(0) != 0;
  Rng rng(4);
  Matrix a = Matrix::Xavier(n, n, rng);
  Matrix b = Matrix::Xavier(n, n, rng);
  KernelContext::Get().SetNumThreads(1);  // isolate the inner-tile kernel
  const bool prev = simd::SetEnabled(want_simd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b).rows());
  }
  simd::SetEnabled(prev);
  KernelContext::Get().SetNumThreads(0);
  const double flops = 2.0 * n * n * n * state.iterations();
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
  state.counters["simd"] = simd::Available() && want_simd ? 1.0 : 0.0;
}
BENCHMARK(BM_GemmSimdSweep)->Arg(0)->Arg(1);

void BM_SpmmReorderSimdSweep(benchmark::State& state) {
  const auto mode = static_cast<ReorderMode>(state.range(0));
  const bool want_simd = state.range(1) != 0;
  Graph g = WithLayout(Rmat(12, 8, 5), mode);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  Rng rng(5);
  Matrix h = Matrix::Xavier(g.NumVertices(), 32, rng);
  KernelContext::Get().SetNumThreads(1);
  const bool prev = simd::SetEnabled(want_simd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(h).rows());
  }
  simd::SetEnabled(prev);
  KernelContext::Get().SetNumThreads(0);
  const double edges = static_cast<double>(adj.nnz()) * state.iterations();
  state.counters["edges/s"] =
      benchmark::Counter(edges, benchmark::Counter::kIsRate);
  state.counters["reorder"] = static_cast<double>(state.range(0));
  state.counters["simd"] = simd::Available() && want_simd ? 1.0 : 0.0;
}
BENCHMARK(BM_SpmmReorderSimdSweep)->ArgsProduct({{0, 1, 2}, {0, 1}});

void BM_WccSuperstepLoop(benchmark::State& state) {
  Graph g = Rmat(static_cast<uint32_t>(state.range(0)), 8, 7);
  TlavConfig config;
  config.num_workers = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Wcc(g, config).num_components);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_WccSuperstepLoop)->Arg(10)->Arg(12);

void BM_WccCompressedSweep(benchmark::State& state) {
  // End-to-end superstep loop over raw vs delta-varint adjacency: the
  // frontier substrate streams every scatter/gather through the codec,
  // so this is the decode overhead measured where it matters.
  Graph raw = Rmat(12, 8, 7);
  const auto codec = static_cast<CompressionMode>(state.range(0));
  Graph g = WithLayout(raw, ReorderMode::kNone, codec);
  TlavConfig config;
  config.num_workers = 8;
  const uint64_t expect = Wcc(raw, config).num_components;
  for (auto _ : state) {
    const uint64_t components = Wcc(g, config).num_components;
    GAL_CHECK(components == expect);
    benchmark::DoNotOptimize(components);
  }
  state.counters["compressed"] = g.IsCompressed() ? 1.0 : 0.0;
  state.counters["B/edge"] =
      static_cast<double>(g.AdjacencyBytes()) /
      std::max<uint64_t>(1, g.NumAdjacencyEntries());
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_WccCompressedSweep)->Arg(0)->Arg(1);

void BM_MiniBatchSampling(benchmark::State& state) {
  Graph g = Rmat(12, 8, 9);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 64; ++v) seeds.push_back(v * 17 % g.NumVertices());
  const uint32_t fanout = static_cast<uint32_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildMiniBatch(g, seeds, {fanout, fanout}, ++seed).input_rows);
  }
}
BENCHMARK(BM_MiniBatchSampling)->Arg(5)->Arg(25);

}  // namespace
}  // namespace gal

BENCHMARK_MAIN();
