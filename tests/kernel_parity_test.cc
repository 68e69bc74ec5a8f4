// Parity suite for the parallel tensor kernels: every kernel must be
// bit-identical to its single-threaded run at any thread count, because
// each output element is produced by exactly one shard with a fixed
// accumulation order. Also covers the degenerate shapes (empty, 1-row,
// 1-col) and the KernelContext thread-count policy itself.
// KernelReferenceTest pins that order: every GEMM and SpMM equals, by
// memcmp, a naive loop written here in the documented per-element
// order, with SIMD off and on and at 1 and 8 kernel threads; ReLU
// equals a branch-per-element loop the same way.

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/core_budget.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "nn/gat.h"
#include "tensor/kernel_context.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gal {
namespace {

// Restores the default thread policy when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { KernelContext::Get().SetNumThreads(0); }
};

const size_t kParityThreadCounts[] = {2, 8};

void ExpectBitIdentical(const Matrix& want, const Matrix& got,
                        const char* what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  if (want.data().empty()) return;
  EXPECT_EQ(0, std::memcmp(want.data().data(), got.data().data(),
                           want.data().size() * sizeof(float)))
      << what << " diverges from the serial reference";
}

TEST(KernelContextTest, ThreadCountPolicy) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(3);
  EXPECT_EQ(ctx.num_threads(), 3u);
  ctx.SetNumThreads(1);
  EXPECT_EQ(ctx.num_threads(), 1u);
  ctx.SetNumThreads(0);  // default policy: env override else hardware
  EXPECT_GE(ctx.num_threads(), 1u);
}

TEST(KernelContextTest, ShardCountRespectsGrainAndThreads) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(8);
  EXPECT_EQ(ctx.ShardCountFor(10), 1u);  // tiny job stays serial
  EXPECT_GE(ctx.ShardCountFor(uint64_t{1} << 30), 2u);
  EXPECT_LE(ctx.ShardCountFor(uint64_t{1} << 30), 8u);
  ctx.SetNumThreads(1);
  EXPECT_EQ(ctx.ShardCountFor(uint64_t{1} << 30), 1u);
}

TEST(KernelContextTest, ParallelFor1DCoversRangeOnce) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(4);
  std::vector<int> hits(1000, 0);
  // Large fake per-item work so the range actually shards.
  ctx.ParallelFor1D(hits.size(), 1 << 10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(KernelContextTest, ThreadCountChangesAfterFirstUseAreHonored) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(2);
  std::vector<int> hits(4096, 0);
  auto bump = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  };
  ctx.ParallelFor1D(hits.size(), 1 << 10, bump);
  // Resize after first use: the old pool is joined and the new width is
  // what subsequent dispatches shard against.
  ctx.SetNumThreads(5);
  EXPECT_EQ(ctx.num_threads(), 5u);
  EXPECT_LE(ctx.ShardCountFor(uint64_t{1} << 30), 5u);
  ctx.ParallelFor1D(hits.size(), 1 << 10, bump);
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 2) << i;

  // GAL_KERNEL_THREADS is re-resolved by SetNumThreads(0), also after
  // first use.
  setenv("GAL_KERNEL_THREADS", "3", 1);
  ctx.SetNumThreads(0);
  EXPECT_EQ(ctx.num_threads(), 3u);
  // A malformed value keeps the hardware default and warns once.
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  testing::internal::CaptureStderr();
  for (const char* bad : {"two", "3x", "0", "-3"}) {
    setenv("GAL_KERNEL_THREADS", bad, 1);
    ctx.SetNumThreads(0);
    EXPECT_EQ(ctx.num_threads(), hw) << bad;
  }
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("GAL_KERNEL_THREADS=\"two\""), std::string::npos) << log;
  EXPECT_EQ(log.find("GAL_KERNEL_THREADS", log.find("GAL_KERNEL_THREADS") + 1),
            std::string::npos)
      << log;
  unsetenv("GAL_KERNEL_THREADS");
  ctx.SetNumThreads(0);
  EXPECT_GE(ctx.num_threads(), 1u);
}

TEST(KernelContextDeathTest, SetNumThreadsRejectedWhileKernelInFlight) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(2);
  EXPECT_DEATH(
      ctx.ParallelFor1D(size_t{1} << 20, 1 << 10,
                        [&](size_t, size_t) { ctx.SetNumThreads(4); }),
      "in flight");
}

// Restores the real hardware-core count when a test exits.
struct CoreOverrideGuard {
  ~CoreOverrideGuard() { CoreBudget::Get().OverrideHardwareCoresForTest(0); }
};

TEST(CoreBudgetTest, LeaseShrinksKernelShardCap) {
  ThreadCountGuard guard;
  CoreOverrideGuard core_guard;
  CoreBudget& budget = CoreBudget::Get();
  budget.OverrideHardwareCoresForTest(8);
  KernelContext& ctx = KernelContext::Get();
  ctx.SetNumThreads(8);
  EXPECT_EQ(ctx.ShardCountFor(uint64_t{1} << 30), 8u);
  {
    StageExecutorLease lease(4);
    EXPECT_EQ(budget.live_stage_executors(), 4u);
    EXPECT_EQ(budget.KernelShardCap(), 2u);
    EXPECT_EQ(ctx.ShardCountFor(uint64_t{1} << 30), 2u);
  }
  // Lease released: the kernel pool owns the machine again.
  EXPECT_EQ(budget.live_stage_executors(), 0u);
  EXPECT_EQ(ctx.ShardCountFor(uint64_t{1} << 30), 8u);
  {
    // Oversubscribed lease (the warning path): still grants the
    // serial-safe minimum of one shard.
    StageExecutorLease lease(16);
    EXPECT_EQ(budget.KernelShardCap(), 1u);
    EXPECT_EQ(ctx.ShardCountFor(uint64_t{1} << 30), 1u);
  }
}

TEST(CoreBudgetTest, NestedLeasesCompose) {
  CoreOverrideGuard core_guard;
  CoreBudget& budget = CoreBudget::Get();
  budget.OverrideHardwareCoresForTest(12);
  StageExecutorLease a(2);
  EXPECT_EQ(budget.KernelShardCap(), 6u);
  {
    StageExecutorLease b(4);
    EXPECT_EQ(budget.live_stage_executors(), 6u);
    EXPECT_EQ(budget.KernelShardCap(), 2u);
  }
  EXPECT_EQ(budget.KernelShardCap(), 6u);
}

TEST(KernelParityTest, DenseGemmAllVariants) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  Rng rng(11);
  // Odd sizes past one k-tile (128) and one C-row panel (64) exercise
  // the tile/panel remainders; the op count is far above the serial
  // grain, so 2- and 8-thread runs genuinely shard.
  Matrix a = Matrix::Xavier(193, 157, rng);
  Matrix b = Matrix::Xavier(157, 141, rng);
  Matrix at_in = Matrix::Xavier(157, 193, rng);  // A^T B: (157x193)^T * 157x141
  Matrix bt_in = Matrix::Xavier(141, 157, rng);  // A B^T: 193x157 * (141x157)^T

  ctx.SetNumThreads(1);
  Matrix ref_mm = Matmul(a, b);
  Matrix ref_ta = MatmulTransposeA(at_in, b);
  Matrix ref_tb = MatmulTransposeB(a, bt_in);

  for (size_t t : kParityThreadCounts) {
    ctx.SetNumThreads(t);
    ExpectBitIdentical(ref_mm, Matmul(a, b), "Matmul");
    ExpectBitIdentical(ref_ta, MatmulTransposeA(at_in, b), "MatmulTransposeA");
    ExpectBitIdentical(ref_tb, MatmulTransposeB(a, bt_in), "MatmulTransposeB");
  }
}

TEST(KernelParityTest, SpmmPowerLawBothDirections) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  // R-MAT gives the skewed degree distribution the nnz-balanced shards
  // exist for; a hub row must not change results when it spans a shard
  // boundary.
  Graph g = Rmat(10, 8, 3);
  SparseMatrix adj = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  Rng rng(13);
  Matrix h = Matrix::Xavier(g.NumVertices(), 13, rng);

  ctx.SetNumThreads(1);
  Matrix ref_fwd = adj.Multiply(h);
  Matrix ref_bwd = adj.TransposeMultiply(h);

  for (size_t t : kParityThreadCounts) {
    ctx.SetNumThreads(t);
    ExpectBitIdentical(ref_fwd, adj.Multiply(h), "SpMM forward");
    ExpectBitIdentical(ref_bwd, adj.TransposeMultiply(h), "SpMM transpose");
  }
}

TEST(KernelParityTest, SpmmRectangularOperator) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  // Rectangular readout-style operator (graphs x vertices), with a hub
  // row concentrating most of the nnz.
  std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
  for (uint32_t c = 0; c < 300; ++c) triplets.emplace_back(0, c, 0.01f * c);
  for (uint32_t r = 1; r < 7; ++r) {
    triplets.emplace_back(r, 300 + r, 1.0f / r);
  }
  SparseMatrix m = SparseMatrix::FromTriplets(7, 400, std::move(triplets));
  Rng rng(17);
  Matrix h_fwd = Matrix::Xavier(400, 9, rng);
  Matrix h_bwd = Matrix::Xavier(7, 9, rng);

  ctx.SetNumThreads(1);
  Matrix ref_fwd = m.Multiply(h_fwd);
  Matrix ref_bwd = m.TransposeMultiply(h_bwd);
  for (size_t t : kParityThreadCounts) {
    ctx.SetNumThreads(t);
    ExpectBitIdentical(ref_fwd, m.Multiply(h_fwd), "rect SpMM forward");
    ExpectBitIdentical(ref_bwd, m.TransposeMultiply(h_bwd),
                       "rect SpMM transpose");
  }
}

TEST(KernelParityTest, ElementwiseOps) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  Rng rng(19);
  // Big enough that every elementwise op clears the serial grain and
  // actually shards at 2 and 8 threads.
  const uint32_t rows = 1200;
  const uint32_t cols = 60;
  Matrix z = Matrix::Xavier(rows, cols, rng);
  Matrix other = Matrix::Xavier(rows, cols, rng);
  std::vector<int32_t> labels(rows);
  std::vector<uint8_t> mask(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    labels[i] = static_cast<int32_t>(i % cols);
    mask[i] = (i % 3 != 0);
  }

  ctx.SetNumThreads(1);
  Matrix ref_add = z;
  ref_add.AddScaled(other, 0.37f);
  Matrix ref_mask;
  Matrix ref_relu = ReluForward(z, &ref_mask);
  Matrix ref_relu_bwd = ReluBackward(other, ref_mask);
  Matrix ref_softmax = SoftmaxRows(z);
  SoftmaxXentResult ref_xent = SoftmaxCrossEntropy(z, labels, mask);

  for (size_t t : kParityThreadCounts) {
    ctx.SetNumThreads(t);
    Matrix add = z;
    add.AddScaled(other, 0.37f);
    ExpectBitIdentical(ref_add, add, "AddScaled");
    Matrix relu_mask;
    ExpectBitIdentical(ref_relu, ReluForward(z, &relu_mask), "ReluForward");
    ExpectBitIdentical(ref_mask, relu_mask, "ReluForward mask");
    ExpectBitIdentical(ref_relu_bwd, ReluBackward(other, ref_mask),
                       "ReluBackward");
    ExpectBitIdentical(ref_softmax, SoftmaxRows(z), "SoftmaxRows");
    SoftmaxXentResult xent = SoftmaxCrossEntropy(z, labels, mask);
    EXPECT_EQ(ref_xent.loss, xent.loss) << "xent loss (exact)";
    EXPECT_EQ(ref_xent.correct, xent.correct);
    EXPECT_EQ(ref_xent.total, xent.total);
    ExpectBitIdentical(ref_xent.grad, xent.grad, "xent grad");
  }
}

TEST(KernelParityTest, DegenerateShapes) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  Rng rng(23);
  Matrix one_row = Matrix::Xavier(1, 40, rng);
  Matrix one_col = Matrix::Xavier(40, 1, rng);

  for (size_t t : {size_t{1}, size_t{2}, size_t{8}}) {
    ctx.SetNumThreads(t);
    // Empty results and empty inner dimensions must not touch memory.
    EXPECT_EQ(Matmul(Matrix(0, 5), Matrix(5, 3)).rows(), 0u);
    Matrix inner_empty = Matmul(Matrix(3, 0), Matrix(0, 4));
    EXPECT_EQ(inner_empty.rows(), 3u);
    EXPECT_EQ(inner_empty.cols(), 4u);
    EXPECT_EQ(inner_empty.FrobeniusNorm(), 0.0);
    EXPECT_EQ(MatmulTransposeA(Matrix(0, 3), Matrix(0, 2)).rows(), 3u);
    EXPECT_EQ(MatmulTransposeB(Matrix(2, 0), Matrix(3, 0)).cols(), 3u);

    // 1-row / 1-col products against the dot-product identity.
    Matrix outer = Matmul(one_col, one_row);  // 40x40 rank-1
    EXPECT_EQ(outer.rows(), 40u);
    EXPECT_FLOAT_EQ(outer.at(3, 7), one_col.at(3, 0) * one_row.at(0, 7));

    // Empty CSR in both directions.
    SparseMatrix empty = SparseMatrix::FromTriplets(5, 4, {});
    EXPECT_EQ(empty.nnz(), 0u);
    EXPECT_EQ(empty.Multiply(Matrix(4, 3)).FrobeniusNorm(), 0.0);
    EXPECT_EQ(empty.TransposeMultiply(Matrix(5, 2)).cols(), 2u);
    SparseMatrix zero = SparseMatrix::FromTriplets(0, 0, {});
    EXPECT_EQ(zero.Multiply(Matrix(0, 6)).rows(), 0u);
    EXPECT_EQ(zero.TransposeMultiply(Matrix(0, 6)).rows(), 0u);
    // Default-constructed (no FromTriplets) must behave like 0x0.
    SparseMatrix default_constructed;
    EXPECT_EQ(default_constructed.Multiply(Matrix(0, 2)).rows(), 0u);
    EXPECT_EQ(default_constructed.TransposeMultiply(Matrix(0, 2)).rows(), 0u);

    // Elementwise on empty / single-row shapes.
    Matrix empty_mask;
    EXPECT_EQ(ReluForward(Matrix(0, 4), &empty_mask).rows(), 0u);
    EXPECT_EQ(SoftmaxRows(Matrix(3, 0)).cols(), 0u);
    EXPECT_EQ(SoftmaxRows(Matrix(0, 0)).rows(), 0u);
    Matrix p = SoftmaxRows(one_row);
    float sum = 0.0f;
    for (uint32_t j = 0; j < p.cols(); ++j) sum += p.at(0, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    SoftmaxXentResult none =
        SoftmaxCrossEntropy(Matrix(2, 3), {0, 1}, {0, 0});
    EXPECT_EQ(none.total, 0u);
    EXPECT_EQ(none.loss, 0.0);
  }
}

TEST(KernelParityTest, GatBackwardAcrossThreadCounts) {
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  // Large enough that the backward's two gather phases genuinely shard:
  // n * per-row work is far above the serial grain at d = 32.
  Graph g = ErdosRenyi(400, 0.05, 13);
  GcnConfig config;
  config.dims = {16, 32, 8};
  config.seed = 3;
  GatModel model(&g, config);
  Rng rng(21);
  Matrix x = Matrix::Xavier(400, 16, rng);
  Matrix grad = Matrix::Xavier(400, 8, rng);

  ctx.SetNumThreads(1);
  model.Forward(x);
  const std::vector<Matrix> ref = model.Backward(grad);
  ASSERT_EQ(ref.size(), 6u);  // {W, a_src, a_dst} x 2 layers

  for (size_t t : kParityThreadCounts) {
    ctx.SetNumThreads(t);
    model.Forward(x);
    const std::vector<Matrix> got = model.Backward(grad);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t k = 0; k < ref.size(); ++k) {
      ExpectBitIdentical(ref[k], got[k], "GAT backward grad");
    }
  }
}

// --- reference arithmetic ----------------------------------------------------
//
// The parity tests above compare a kernel with its own one-thread run,
// so a kernel that changed its rounding everywhere would still pass
// them. These compare every product with a naive per-element loop in
// the order the kernels document:
//   - A B and A^T B: k ascending from +0, zero weights skipped;
//   - A B^T: per-128-wide k-tile partial sums from +0, each added to C;
//   - SpMM (one- and two-source, forward and transpose): CSR order.

struct SimdGuard {
  explicit SimdGuard(bool on) : prev(simd::SetEnabled(on)) {}
  ~SimdGuard() { simd::SetEnabled(prev); }
  bool prev;
};

const uint32_t kReferenceWidths[] = {1, 7, 8, 9, 31, 33, 64, 65, 141};
const uint32_t kReferenceDepths[] = {1, 128, 129, 300};
// Output rows of the dense products: enough to cut into 8 shards once
// the product clears the serial grain.
constexpr uint32_t kReferenceRows = 37;

/// Runs check(label) under SIMD {off, on} x kernel threads {1, 8}.
template <typename Check>
void ForEachKernelConfig(const Check& check) {
  for (bool simd_on : {false, true}) {
    SimdGuard simd_guard(simd_on);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      KernelContext::Get().SetNumThreads(threads);
      check("simd=" + std::to_string(simd_on) +
            " threads=" + std::to_string(threads));
    }
  }
}

/// A random matrix with about a quarter of its entries +0.0f or -0.0f.
Matrix WithZeros(uint32_t rows, uint32_t cols, Rng& rng) {
  Matrix m = Matrix::Xavier(rows, cols, rng);
  for (float& v : m.data()) {
    const uint64_t roll = rng.Uniform(8);
    if (roll < 2) v = 0.0f;
    if (roll == 2) v = -0.0f;
  }
  return m;
}

Matrix NaiveMatmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (uint32_t i = 0; i < a.rows(); ++i) {
    for (uint32_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (uint32_t k = 0; k < a.cols(); ++k) {
        if (a.at(i, k) == 0.0f) continue;
        acc += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix NaiveMatmulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (uint32_t i = 0; i < a.cols(); ++i) {
    for (uint32_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (uint32_t k = 0; k < a.rows(); ++k) {
        if (a.at(k, i) == 0.0f) continue;
        acc += a.at(k, i) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix NaiveMatmulTransposeB(const Matrix& a, const Matrix& b) {
  constexpr uint32_t kTile = 128;
  Matrix c(a.rows(), b.rows());
  for (uint32_t i = 0; i < a.rows(); ++i) {
    for (uint32_t j = 0; j < b.rows(); ++j) {
      float cij = 0.0f;
      for (uint32_t k0 = 0; k0 < a.cols(); k0 += kTile) {
        float partial = 0.0f;
        for (uint32_t k = k0; k < std::min(a.cols(), k0 + kTile); ++k) {
          partial += a.at(i, k) * b.at(j, k);
        }
        cij += partial;
      }
      c.at(i, j) = cij;
    }
  }
  return c;
}

/// out[r] = sum over row r's entries e, in CSR order, of
/// value(e) * source(r, col(e)).
template <typename Source>
Matrix NaiveSpmm(const SparseMatrix& m, uint32_t width,
                 const Source& source) {
  Matrix out(m.rows(), width);
  for (uint32_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowIndices(r);
    const auto values = m.RowValues(r);
    for (uint32_t j = 0; j < width; ++j) {
      float acc = 0.0f;
      for (size_t e = 0; e < cols.size(); ++e) {
        acc += values[e] * source(r, cols[e])[j];
      }
      out.at(r, j) = acc;
    }
  }
  return out;
}

/// out = m^T * source, as the serial scatter: entry (r, c) adds
/// value * source(c, r) to out row c, rows r ascending.
template <typename Source>
Matrix NaiveSpmmTranspose(const SparseMatrix& m, uint32_t width,
                          const Source& source) {
  Matrix out(m.cols(), width);
  for (uint32_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowIndices(r);
    const auto values = m.RowValues(r);
    for (size_t e = 0; e < cols.size(); ++e) {
      const float* src = source(cols[e], r);
      for (uint32_t j = 0; j < width; ++j) {
        out.at(cols[e], j) += values[e] * src[j];
      }
    }
  }
  return out;
}

TEST(KernelReferenceTest, GemmMatchesNaiveLoops) {
  ThreadCountGuard guard;
  Rng rng(59);
  const float inf = std::numeric_limits<float>::infinity();
  for (uint32_t depth : kReferenceDepths) {
    for (uint32_t width : kReferenceWidths) {
      // A B and A^T B skip zero weights. The weights of reduction index
      // `hole` are all zero and the B row they meet holds an infinity,
      // so a kernel that multiplied them in would produce NaN.
      const uint32_t hole = depth / 2;
      Matrix a = WithZeros(kReferenceRows, depth, rng);
      Matrix at = WithZeros(depth, kReferenceRows, rng);
      Matrix b = Matrix::Xavier(depth, width, rng);
      for (uint32_t i = 0; i < kReferenceRows; ++i) {
        a.at(i, hole) = 0.0f;
        at.at(hole, i) = 0.0f;
      }
      b.at(hole, 0) = inf;
      Matrix bt = WithZeros(width, depth, rng);
      const Matrix want_mm = NaiveMatmul(a, b);
      const Matrix want_ta = NaiveMatmulTransposeA(at, b);
      const Matrix want_tb = NaiveMatmulTransposeB(a, bt);
      const std::string shape = " K=" + std::to_string(depth) +
                                " N=" + std::to_string(width) + " ";
      ForEachKernelConfig([&](const std::string& config) {
        ExpectBitIdentical(want_mm, Matmul(a, b),
                           ("A B" + shape + config).c_str());
        ExpectBitIdentical(want_ta, MatmulTransposeA(at, b),
                           ("A^T B" + shape + config).c_str());
        ExpectBitIdentical(want_tb, MatmulTransposeB(a, bt),
                           ("A B^T" + shape + config).c_str());
      });
    }
  }
}

TEST(KernelReferenceTest, SpmmMatchesNaiveLoops) {
  ThreadCountGuard guard;
  Rng rng(61);
  // A square operator with a hub row, empty rows and explicit zeros.
  const uint32_t n = 150;
  std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
  for (uint32_t c = 0; c < n; c += 2) triplets.emplace_back(3, c, 0.01f * c);
  for (uint32_t r = 0; r < n; ++r) {
    if (r % 11 == 5) continue;
    const uint64_t entries = rng.Uniform(7);
    for (uint64_t e = 0; e < entries; ++e) {
      const float value =
          e == 3 ? 0.0f : static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
      triplets.emplace_back(r, static_cast<uint32_t>(rng.Uniform(n)), value);
    }
  }
  const SparseMatrix m = SparseMatrix::FromTriplets(n, n, std::move(triplets));
  std::vector<uint32_t> owner(n);
  for (uint32_t& o : owner) o = static_cast<uint32_t>(rng.Uniform(4));

  for (uint32_t width : kReferenceWidths) {
    const Matrix local = Matrix::Xavier(n, width, rng);
    const Matrix remote = Matrix::Xavier(n, width, rng);
    auto one = [&](uint32_t, uint32_t c) { return local.row(c); };
    auto two = [&](uint32_t r, uint32_t c) {
      return owner[r] == owner[c] ? local.row(c) : remote.row(c);
    };
    const Matrix want_fwd = NaiveSpmm(m, width, one);
    const Matrix want_bwd = NaiveSpmmTranspose(m, width, one);
    const Matrix want_fwd2 = NaiveSpmm(m, width, two);
    const Matrix want_bwd2 = NaiveSpmmTranspose(m, width, two);
    const std::string shape = " N=" + std::to_string(width) + " ";
    ForEachKernelConfig([&](const std::string& config) {
      ExpectBitIdentical(want_fwd, m.Multiply(local),
                         ("SpMM" + shape + config).c_str());
      ExpectBitIdentical(want_bwd, m.TransposeMultiply(local),
                         ("SpMM^T" + shape + config).c_str());
      ExpectBitIdentical(want_fwd2, m.Multiply(local, remote, owner),
                         ("two-source SpMM" + shape + config).c_str());
      ExpectBitIdentical(want_bwd2, m.TransposeMultiply(local, remote, owner),
                         ("two-source SpMM^T" + shape + config).c_str());
    });
  }
}

/// ReLU as one branch per element: h = z where z > 0 and +0 elsewhere,
/// with the mask 1 where z > 0 and +0 elsewhere.
Matrix BranchyRelu(const Matrix& z, Matrix* mask) {
  Matrix h = z;
  *mask = Matrix(z.rows(), z.cols());
  for (size_t i = 0; i < z.size(); ++i) {
    if (z.data()[i] > 0.0f) {
      mask->data()[i] = 1.0f;
    } else {
      h.data()[i] = 0.0f;
    }
  }
  return h;
}

TEST(KernelReferenceTest, ReluMatchesTheBranchyLoop) {
  ThreadCountGuard guard;
  Rng rng(67);
  // Random signs and magnitudes, with every eleventh element one of the
  // values a sign test can get wrong: signed zeros, infinities, NaNs of
  // both signs and a payload NaN, denormals, and the normal extremes.
  // Large enough for eight shards, with ragged shard boundaries.
  const float special[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::bit_cast<float>(uint32_t{0x7fc12345}),
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           1e-40f,
                           -1e-40f,
                           std::numeric_limits<float>::min(),
                           -std::numeric_limits<float>::min(),
                           std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::lowest()};
  Matrix z = Matrix::Xavier(4099, 67, rng);
  for (size_t i = 0; i < z.size(); i += 11) {
    z.data()[i] = special[rng.Uniform(std::size(special))];
  }
  Matrix want_mask;
  const Matrix want = BranchyRelu(z, &want_mask);
  ForEachKernelConfig([&](const std::string& config) {
    Matrix mask;
    ExpectBitIdentical(want, ReluForward(z, &mask),
                       ("ReLU " + config).c_str());
    ExpectBitIdentical(want_mask, mask, ("ReLU mask " + config).c_str());
    ExpectBitIdentical(want, ReluForward(z, nullptr),
                       ("ReLU without a mask " + config).c_str());
  });
}

// Wall-clock scaling check behind the acceptance criterion: >1.5x GEMM
// speedup at 4 threads on a 256^3 problem. Tagged `timing` in ctest;
// skipped (not failed) on hosts without 4 cores.
TEST(KernelScalingTest, GemmSpeedupAt4Threads) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  ThreadCountGuard guard;
  KernelContext& ctx = KernelContext::Get();
  const uint32_t n = 256;
  Rng rng(29);
  Matrix a = Matrix::Xavier(n, n, rng);
  Matrix b = Matrix::Xavier(n, n, rng);
  auto best_of = [&](size_t threads) {
    ctx.SetNumThreads(threads);
    Matmul(a, b);  // warm the pool and the caches
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      Matrix c = Matmul(a, b);
      best = std::min(best, t.ElapsedSeconds());
      EXPECT_EQ(c.rows(), n);
    }
    return best;
  };
  const double serial = best_of(1);
  const double parallel = best_of(4);
  EXPECT_GT(serial / parallel, 1.5)
      << "serial=" << serial << "s parallel4=" << parallel << "s";
}

}  // namespace
}  // namespace gal
