#include "tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "common/simd.h"
#include "tensor/kernel_context.h"

namespace gal {
namespace {

/// Splits rows [0, rows) into `shards` contiguous ranges with roughly
/// equal nnz, via binary search on the CSR offset prefix sums. Returns
/// shards+1 row bounds. Row-count splitting would serialize on the hub
/// shard of a power-law graph; nnz splitting keeps shards balanced.
std::vector<uint32_t> NnzBalancedRowBounds(
    const std::vector<uint64_t>& offsets, uint32_t rows, size_t shards) {
  std::vector<uint32_t> bounds(shards + 1, rows);
  bounds[0] = 0;
  const uint64_t total = offsets.empty() ? 0 : offsets[rows];
  for (size_t s = 1; s < shards; ++s) {
    const uint64_t target = total * s / shards;
    const auto it =
        std::lower_bound(offsets.begin(), offsets.begin() + rows + 1, target);
    uint32_t row = static_cast<uint32_t>(it - offsets.begin());
    bounds[s] = std::max(bounds[s - 1], std::min(row, rows));
  }
  return bounds;
}

/// Row sources of the gather: one dense matrix, or the fresh/received
/// pair chosen per entry by whether its row and column share an owner.
auto OneSource(const Matrix& dense) {
  return [&dense](uint32_t, uint32_t c) { return dense.row(c); };
}
auto TwoSource(const Matrix& local, const Matrix& remote,
               std::span<const uint32_t> owner) {
  return [&local, &remote, owner](uint32_t r, uint32_t c) {
    return owner[r] == owner[c] ? local.row(c) : remote.row(c);
  };
}

void CheckTwoSource(const SparseMatrix& m, const Matrix& local,
                    const Matrix& remote, std::span<const uint32_t> owner) {
  GAL_CHECK(m.rows() == m.cols() && owner.size() == m.rows() &&
            local.rows() == m.rows() && remote.rows() == local.rows() &&
            remote.cols() == local.cols())
      << m.ShapeString() << " over " << local.ShapeString() << " / "
      << remote.ShapeString() << " with " << owner.size() << " owners";
}

}  // namespace

struct SparseMatrix::TransposeCache {
  std::once_flag once;
  SparseMatrix transposed;
};

SparseMatrix SparseMatrix::FromTriplets(
    uint32_t rows, uint32_t cols,
    std::vector<std::tuple<uint32_t, uint32_t, float>> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const auto& a, const auto& b) {
              return std::get<0>(a) != std::get<0>(b)
                         ? std::get<0>(a) < std::get<0>(b)
                         : std::get<1>(a) < std::get<1>(b);
            });
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.offsets_.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t i = 0; i < triplets.size(); ++i) {
    const auto& [r, c, v] = triplets[i];
    GAL_CHECK(r < rows && c < cols)
        << "triplet (" << r << "," << c << ") out of " << m.ShapeString();
    if (!m.cols_idx_.empty() && i > 0 &&
        std::get<0>(triplets[i - 1]) == r &&
        std::get<1>(triplets[i - 1]) == c) {
      m.values_.back() += v;  // collapse duplicates
      continue;
    }
    ++m.offsets_[r + 1];
    m.cols_idx_.push_back(c);
    m.values_.push_back(v);
  }
  for (uint32_t r = 0; r < rows; ++r) m.offsets_[r + 1] += m.offsets_[r];
  m.tcache_ = std::make_shared<TransposeCache>();
  return m;
}

std::string SparseMatrix::ShapeString() const {
  std::ostringstream os;
  os << "[" << rows_ << "x" << cols_ << " nnz=" << nnz() << "]";
  return os.str();
}

template <typename Source>
Matrix SparseMatrix::Gather(uint32_t out_cols, const Source& source) const {
  Matrix out(rows_, out_cols);
  if (rows_ == 0 || out_cols == 0 || nnz() == 0) return out;
  KernelContext& ctx = KernelContext::Get();
  ScopedSpan span(ctx.spmm_hist());
  const size_t shards =
      std::min<size_t>(rows_, ctx.ShardCountFor(nnz() * out_cols));
  const std::vector<uint32_t> bounds =
      NnzBalancedRowBounds(offsets_, rows_, shards);
  ctx.RunShards(shards, [&](size_t s) {
    // Row r is one row-kernel call: its values weigh the source rows its
    // entries pick, in CSR order.
    std::vector<const float*> picked;
    for (uint32_t r = bounds[s]; r < bounds[s + 1]; ++r) {
      const uint64_t begin = offsets_[r];
      picked.resize(offsets_[r + 1] - begin);
      for (size_t t = 0; t < picked.size(); ++t) {
        picked[t] = source(r, cols_idx_[begin + t]);
      }
      simd::AxpyRowsF32(out.row(r), out_cols, values_.data() + begin,
                        picked.data(), picked.size());
    }
  });
  return out;
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  GAL_CHECK(cols_ == dense.rows())
      << ShapeString() << " * " << dense.ShapeString();
  return Gather(dense.cols(), OneSource(dense));
}

Matrix SparseMatrix::Multiply(const Matrix& local, const Matrix& remote,
                              std::span<const uint32_t> owner) const {
  CheckTwoSource(*this, local, remote, owner);
  return Gather(local.cols(), TwoSource(local, remote, owner));
}

const SparseMatrix& SparseMatrix::Transposed() const {
  GAL_CHECK(tcache_ != nullptr);
  std::call_once(tcache_->once, [this] {
    SparseMatrix& t = tcache_->transposed;
    t.rows_ = cols_;
    t.cols_ = rows_;
    t.offsets_.assign(static_cast<size_t>(cols_) + 1, 0);
    for (uint32_t c : cols_idx_) ++t.offsets_[c + 1];
    for (uint32_t c = 0; c < cols_; ++c) t.offsets_[c + 1] += t.offsets_[c];
    t.cols_idx_.resize(cols_idx_.size());
    t.values_.resize(values_.size());
    // Counting sort preserves source-row order within each column, so a
    // gather over row c of the transpose accumulates contributions in
    // the same ascending-r order the serial scatter produced.
    std::vector<uint64_t> cursor(t.offsets_.begin(), t.offsets_.end() - 1);
    for (uint32_t r = 0; r < rows_; ++r) {
      for (uint64_t e = offsets_[r]; e < offsets_[r + 1]; ++e) {
        const uint64_t pos = cursor[cols_idx_[e]]++;
        t.cols_idx_[pos] = r;
        t.values_[pos] = values_[e];
      }
    }
  });
  return tcache_->transposed;
}

Matrix SparseMatrix::TransposeMultiply(const Matrix& dense) const {
  GAL_CHECK(rows_ == dense.rows())
      << ShapeString() << "^T * " << dense.ShapeString();
  if (nnz() == 0) return Matrix(cols_, dense.cols());
  // Gather over the cached transposed CSR: race-free under row sharding,
  // unlike scattering along this matrix's own rows.
  return Transposed().Gather(dense.cols(), OneSource(dense));
}

Matrix SparseMatrix::TransposeMultiply(const Matrix& local,
                                       const Matrix& remote,
                                       std::span<const uint32_t> owner) const {
  CheckTwoSource(*this, local, remote, owner);
  if (nnz() == 0) return Matrix(cols_, local.cols());
  // The owner test is symmetric, so the transpose's entry (c, r) picks
  // the same source as this matrix's entry (r, c).
  return Transposed().Gather(local.cols(), TwoSource(local, remote, owner));
}

SparseMatrix NormalizedAdjacency(const Graph& g, AdjNorm norm) {
  const uint32_t n = g.NumVertices();
  std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
  triplets.reserve(g.NumAdjacencyEntries() + n);
  if (norm == AdjNorm::kSymmetric) {
    std::vector<float> inv_sqrt(n);
    for (VertexId v = 0; v < n; ++v) {
      inv_sqrt[v] = 1.0f / std::sqrt(static_cast<float>(g.Degree(v)) + 1.0f);
    }
    for (VertexId v = 0; v < n; ++v) {
      triplets.emplace_back(v, v, inv_sqrt[v] * inv_sqrt[v]);
      g.ForEachOutNeighbor(v, [&](VertexId u) {
        triplets.emplace_back(v, u, inv_sqrt[v] * inv_sqrt[u]);
      });
    }
  } else if (norm == AdjNorm::kRowMean) {
    for (VertexId v = 0; v < n; ++v) {
      const float inv = 1.0f / (static_cast<float>(g.Degree(v)) + 1.0f);
      triplets.emplace_back(v, v, inv);
      g.ForEachOutNeighbor(
          v, [&](VertexId u) { triplets.emplace_back(v, u, inv); });
    }
  } else {  // kNeighborMean
    for (VertexId v = 0; v < n; ++v) {
      if (g.Degree(v) == 0) continue;
      const float inv = 1.0f / static_cast<float>(g.Degree(v));
      g.ForEachOutNeighbor(
          v, [&](VertexId u) { triplets.emplace_back(v, u, inv); });
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace gal
