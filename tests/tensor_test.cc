#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "tensor/kernel_context.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gal {
namespace {

Matrix FromRows(std::vector<std::vector<float>> rows) {
  Matrix m(static_cast<uint32_t>(rows.size()),
           static_cast<uint32_t>(rows[0].size()));
  for (uint32_t i = 0; i < m.rows(); ++i) {
    for (uint32_t j = 0; j < m.cols(); ++j) m.at(i, j) = rows[i][j];
  }
  return m;
}

TEST(MatrixTest, MatmulSmallKnown) {
  Matrix a = FromRows({{1, 2}, {3, 4}});
  Matrix b = FromRows({{5, 6}, {7, 8}});
  Matrix c = Matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(MatrixTest, TransposeVariantsConsistent) {
  Rng rng(3);
  Matrix a = Matrix::Xavier(7, 5, rng);
  Matrix b = Matrix::Xavier(7, 4, rng);
  // A^T B  ==  manual transpose then matmul.
  Matrix at(5, 7);
  for (uint32_t i = 0; i < 7; ++i) {
    for (uint32_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  }
  Matrix expect = Matmul(at, b);
  Matrix got = MatmulTransposeA(a, b);
  EXPECT_LT(expect.MeanAbsDiff(got), 1e-6);

  Matrix c = Matrix::Xavier(6, 5, rng);
  Matrix ct(5, 6);
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 5; ++j) ct.at(j, i) = c.at(i, j);
  }
  Matrix expect2 = Matmul(a, ct);           // (7x5)*(5x6)
  Matrix got2 = MatmulTransposeB(a, c);     // A * C^T
  EXPECT_LT(expect2.MeanAbsDiff(got2), 1e-6);
}

TEST(MatrixTest, XavierBoundsAndDeterminism) {
  Rng r1(7);
  Rng r2(7);
  Matrix a = Matrix::Xavier(20, 30, r1);
  Matrix b = Matrix::Xavier(20, 30, r2);
  EXPECT_EQ(a.data(), b.data());
  const float bound = std::sqrt(6.0f / 50.0f);
  for (float v : a.data()) {
    EXPECT_LE(std::abs(v), bound);
  }
}

TEST(MatrixTest, ReluForwardBackward) {
  Matrix z = FromRows({{-1, 2}, {0, -3}});
  Matrix mask;
  Matrix h = ReluForward(z, &mask);
  EXPECT_FLOAT_EQ(h.at(0, 0), 0);
  EXPECT_FLOAT_EQ(h.at(0, 1), 2);
  EXPECT_FLOAT_EQ(mask.at(0, 1), 1);
  EXPECT_FLOAT_EQ(mask.at(1, 1), 0);
  Matrix grad = FromRows({{10, 10}, {10, 10}});
  Matrix dz = ReluBackward(grad, mask);
  EXPECT_FLOAT_EQ(dz.at(0, 0), 0);
  EXPECT_FLOAT_EQ(dz.at(0, 1), 10);
}

TEST(MatrixTest, SoftmaxRowsSumToOne) {
  Matrix z = FromRows({{1, 2, 3}, {-5, 0, 5}, {100, 100, 100}});
  Matrix p = SoftmaxRows(z);
  for (uint32_t i = 0; i < 3; ++i) {
    float s = 0;
    for (uint32_t j = 0; j < 3; ++j) {
      s += p.at(i, j);
      EXPECT_GE(p.at(i, j), 0.0f);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5);
  }
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
  EXPECT_NEAR(p.at(2, 0), 1.0f / 3, 1e-5);
}

TEST(MatrixTest, SoftmaxCrossEntropyGradAndAccuracy) {
  Matrix logits = FromRows({{10, 0}, {0, 10}, {10, 0}});
  std::vector<int32_t> labels = {0, 1, 1};  // last one wrong
  std::vector<uint8_t> mask = {1, 1, 1};
  SoftmaxXentResult r = SoftmaxCrossEntropy(logits, labels, mask);
  EXPECT_EQ(r.correct, 2u);
  EXPECT_EQ(r.total, 3u);
  EXPECT_GT(r.loss, 0.0);
  // Gradient rows sum to ~0 (softmax minus one-hot property).
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(r.grad.at(i, 0) + r.grad.at(i, 1), 0.0f, 1e-6);
  }
  // Masked-out rows contribute nothing.
  mask = {1, 0, 0};
  SoftmaxXentResult masked = SoftmaxCrossEntropy(logits, labels, mask);
  EXPECT_EQ(masked.total, 1u);
  EXPECT_FLOAT_EQ(masked.grad.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(masked.grad.at(2, 1), 0.0f);
}

TEST(MatrixTest, NumericalGradientOfXent) {
  // d loss / d logit matches finite differences.
  Matrix logits = FromRows({{0.3f, -0.2f, 0.5f}});
  std::vector<int32_t> labels = {2};
  std::vector<uint8_t> mask = {1};
  SoftmaxXentResult r = SoftmaxCrossEntropy(logits, labels, mask);
  const float eps = 1e-3f;
  for (uint32_t j = 0; j < 3; ++j) {
    Matrix plus = logits;
    plus.at(0, j) += eps;
    Matrix minus = logits;
    minus.at(0, j) -= eps;
    const double num =
        (SoftmaxCrossEntropy(plus, labels, mask).loss -
         SoftmaxCrossEntropy(minus, labels, mask).loss) /
        (2 * eps);
    EXPECT_NEAR(num, r.grad.at(0, j), 1e-3);
  }
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(5);
  Graph g = ErdosRenyi(40, 0.15, 9);
  SparseMatrix a = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  Matrix h = Matrix::Xavier(40, 8, rng);
  Matrix sparse_out = a.Multiply(h);
  // Dense reconstruction.
  Matrix dense(40, 40);
  for (uint32_t r = 0; r < 40; ++r) {
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t e = 0; e < idx.size(); ++e) dense.at(r, idx[e]) = val[e];
  }
  Matrix dense_out = Matmul(dense, h);
  EXPECT_LT(sparse_out.MeanAbsDiff(dense_out), 1e-6);

  Matrix tr_sparse = a.TransposeMultiply(h);
  Matrix tr_dense = MatmulTransposeA(dense, h);
  EXPECT_LT(tr_sparse.MeanAbsDiff(tr_dense), 1e-6);
}

TEST(SparseTest, RowMeanRowsSumToOne) {
  Graph g = Rmat(6, 4, 3);
  SparseMatrix a = NormalizedAdjacency(g, AdjNorm::kRowMean);
  for (uint32_t r = 0; r < a.rows(); ++r) {
    float s = 0;
    for (float v : a.RowValues(r)) s += v;
    EXPECT_NEAR(s, 1.0f, 1e-5);
  }
}

TEST(SparseTest, SymmetricNormalizationIsSymmetric) {
  Graph g = ErdosRenyi(30, 0.2, 2);
  SparseMatrix a = NormalizedAdjacency(g, AdjNorm::kSymmetric);
  // Reconstruct dense and check A == A^T.
  Matrix dense(30, 30);
  for (uint32_t r = 0; r < 30; ++r) {
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t e = 0; e < idx.size(); ++e) dense.at(r, idx[e]) = val[e];
  }
  for (uint32_t i = 0; i < 30; ++i) {
    for (uint32_t j = 0; j < 30; ++j) {
      EXPECT_NEAR(dense.at(i, j), dense.at(j, i), 1e-6);
    }
  }
}

TEST(SparseTest, FromTripletsCollapsesDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0f}, {0, 0, 2.0f}, {1, 1, 4.0f}});
  EXPECT_EQ(m.nnz(), 2u);
  Matrix h = FromRows({{1}, {1}});
  Matrix out = m.Multiply(h);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 4.0f);
}

// Inputs of the two-source gathers: a power-law operator, two sources
// and a random owner map. At four kernel threads the work is far above
// the serial grain, so the rows really shard.
struct TwoSourceInputs {
  TwoSourceInputs()
      : adj(NormalizedAdjacency(Rmat(9, 8, 4), AdjNorm::kSymmetric)) {
    Rng rng(17);
    local = Matrix::Xavier(adj.rows(), 24, rng);
    remote = Matrix::Xavier(adj.rows(), 24, rng);
    for (uint32_t v = 0; v < adj.rows(); ++v) {
      owner.push_back(static_cast<uint32_t>(rng.Uniform(4)));
    }
  }
  ~TwoSourceInputs() { KernelContext::Get().SetNumThreads(0); }

  SparseMatrix adj;
  Matrix local;
  Matrix remote;
  std::vector<uint32_t> owner;
};

TEST(SparseTest, TwoSourceWithEqualSourcesIsTheOneSourceGather) {
  const TwoSourceInputs in;
  for (size_t threads : {1, 4}) {
    KernelContext::Get().SetNumThreads(threads);
    EXPECT_EQ(in.adj.Multiply(in.local, in.local, in.owner).data(),
              in.adj.Multiply(in.local).data())
        << threads << " threads";
    EXPECT_EQ(in.adj.TransposeMultiply(in.local, in.local, in.owner).data(),
              in.adj.TransposeMultiply(in.local).data())
        << threads << " threads";
  }
}

TEST(SparseTest, TwoSourceReadsRemoteRowsAcrossOwners) {
  const TwoSourceInputs in;
  // Serial references in CSR order: the forward pass gathers row r's
  // entries left to right; the transpose scatters rows in ascending
  // order, which is the order the transposed gather sums in.
  const uint32_t n = in.adj.rows();
  const uint32_t d = in.local.cols();
  Matrix forward(n, d);
  Matrix transpose(n, d);
  for (uint32_t r = 0; r < n; ++r) {
    const auto idx = in.adj.RowIndices(r);
    const auto val = in.adj.RowValues(r);
    for (size_t e = 0; e < idx.size(); ++e) {
      const uint32_t c = idx[e];
      const Matrix& src = in.owner[r] == in.owner[c] ? in.local : in.remote;
      for (uint32_t j = 0; j < d; ++j) {
        forward.at(r, j) += val[e] * src.at(c, j);
        transpose.at(c, j) += val[e] * src.at(r, j);
      }
    }
  }
  for (size_t threads : {1, 4}) {
    KernelContext::Get().SetNumThreads(threads);
    EXPECT_EQ(in.adj.Multiply(in.local, in.remote, in.owner).data(),
              forward.data())
        << threads << " threads";
    EXPECT_EQ(in.adj.TransposeMultiply(in.local, in.remote, in.owner).data(),
              transpose.data())
        << threads << " threads";
  }
}

}  // namespace
}  // namespace gal
