#ifndef GAL_TENSOR_SPARSE_H_
#define GAL_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace gal {

/// A CSR float sparse matrix — the aggregation operator of GNN layers
/// (Â in GCN, the sampled-block operator in mini-batch training).
/// Immutable once built; Multiply / TransposeMultiply run on the shared
/// KernelContext with nnz-balanced row shards, bit-deterministic at any
/// thread count.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Builds from triplets (row, col, value); duplicates are summed.
  /// Degenerate shapes (0 rows / 0 cols / no triplets) are valid and
  /// produce an empty but well-formed CSR.
  static SparseMatrix FromTriplets(
      uint32_t rows, uint32_t cols,
      std::vector<std::tuple<uint32_t, uint32_t, float>> triplets);

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  uint64_t nnz() const { return values_.size(); }
  std::string ShapeString() const;

  /// Dense result of (*this) * dense. Parallel over row shards balanced
  /// by nnz (prefix-sum over the CSR offsets), so power-law degree skew
  /// does not serialize on the hub shard.
  Matrix Multiply(const Matrix& dense) const;
  /// Dense result of (*this)^T * dense. Gathers over a lazily built,
  /// cached transposed CSR instead of scattering, so the parallel path
  /// is race-free and bit-identical to the serial scatter.
  Matrix TransposeMultiply(const Matrix& dense) const;

  /// Two-source forms for a square operator over vertices placed by
  /// `owner`: entry (r, c) reads row c of `local` when owner[r] ==
  /// owner[c], else row c of `remote` — a worker's own fresh rows next
  /// to the received copies of its halo. Each output row still sums in
  /// CSR order, so when `remote` equals `local` the result is
  /// bit-identical to the one-source form under every `owner`.
  Matrix Multiply(const Matrix& local, const Matrix& remote,
                  std::span<const uint32_t> owner) const;
  Matrix TransposeMultiply(const Matrix& local, const Matrix& remote,
                           std::span<const uint32_t> owner) const;

  /// Row access (column indices + values, parallel arrays).
  std::span<const uint32_t> RowIndices(uint32_t r) const {
    GAL_DCHECK(r < rows_);
    return {cols_idx_.data() + offsets_[r], cols_idx_.data() + offsets_[r + 1]};
  }
  std::span<const float> RowValues(uint32_t r) const {
    GAL_DCHECK(r < rows_);
    return {values_.data() + offsets_[r], values_.data() + offsets_[r + 1]};
  }

 private:
  /// The transposed CSR, built on first use under a once_flag. Heap-held
  /// (and defined in the .cc, where SparseMatrix is complete) so
  /// SparseMatrix stays movable; copies share the cache — safe because
  /// the matrix is immutable after FromTriplets.
  struct TransposeCache;

  const SparseMatrix& Transposed() const;

  /// The one CSR row gather under every Multiply form: output row r
  /// sums values_[e] * source(r, cols_idx_[e]) over its entries in CSR
  /// order. Rows are sharded by nnz and each is reduced by exactly one
  /// shard, so the result is bit-identical at any thread count.
  template <typename Source>
  Matrix Gather(uint32_t out_cols, const Source& source) const;

  uint32_t rows_;
  uint32_t cols_;
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> cols_idx_;
  std::vector<float> values_;
  mutable std::shared_ptr<TransposeCache> tcache_;
};

/// GCN normalization choices.
enum class AdjNorm : uint8_t {
  /// D^-1/2 (A + I) D^-1/2 — the Kipf–Welling GCN operator.
  kSymmetric,
  /// D^-1 (A + I) — mean aggregation over the closed neighborhood
  /// (GraphSAGE-mean without concat).
  kRowMean,
  /// D^-1 A — mean over neighbors only, the AGGREGATE of the survey's
  /// GraphSAGE equations (the self vertex enters via CONCAT instead).
  /// Isolated vertices aggregate to zero.
  kNeighborMean,
};

/// The normalized adjacency of an undirected graph (self-loops added).
SparseMatrix NormalizedAdjacency(const Graph& g, AdjNorm norm);

}  // namespace gal

#endif  // GAL_TENSOR_SPARSE_H_
