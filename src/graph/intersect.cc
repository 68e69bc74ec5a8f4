#include "graph/intersect.h"

#include <algorithm>
#include <bit>

#include "common/simd.h"

namespace gal {
namespace {

/// One side this many times longer than the other -> gallop instead of
/// merging (merge is O(na+nb); gallop is O(na log nb) for na << nb).
constexpr size_t kGallopRatio = 32;

uint64_t MergeCount(std::span<const VertexId> a, std::span<const VertexId> b,
                    uint64_t* ops) {
  uint64_t count = 0;
  uint64_t work = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++work;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  if (ops != nullptr) *ops += work;
  return count;
}

size_t MergeInto(std::span<const VertexId> a, std::span<const VertexId> b,
                 VertexId* out, uint64_t* ops) {
  uint64_t work = 0;
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    ++work;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out[count++] = a[i];
      ++i;
      ++j;
    }
  }
  if (ops != nullptr) *ops += work;
  return count;
}

/// Galloping intersection: for each element of the short side, find it
/// in the long side by exponential search from the previous position
/// (both sides ascending, so the cursor only moves forward). `emit` is
/// called per common element; returns the number of matches.
template <typename Emit>
uint64_t Gallop(std::span<const VertexId> small_side,
                std::span<const VertexId> large_side, uint64_t* ops,
                Emit&& emit) {
  uint64_t count = 0;
  uint64_t work = 0;
  size_t pos = 0;  // invariant: large_side[0..pos) < current x
  for (const VertexId x : small_side) {
    size_t bound = 1;
    while (pos + bound < large_side.size() && large_side[pos + bound] < x) {
      bound <<= 1;
      ++work;
    }
    const size_t lo = pos + bound / 2;
    const size_t hi = std::min(pos + bound, large_side.size());
    pos = static_cast<size_t>(
        std::lower_bound(large_side.begin() + lo, large_side.begin() + hi, x) -
        large_side.begin());
    work += std::bit_width(hi - lo);
    if (pos < large_side.size() && large_side[pos] == x) {
      ++count;
      emit(x);
      ++pos;
    }
    if (pos >= large_side.size()) break;
  }
  if (ops != nullptr) *ops += work;
  return count;
}

bool PreferGallop(size_t na, size_t nb) {
  return na * kGallopRatio < nb || nb * kGallopRatio < na;
}

}  // namespace

uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b, uint64_t* ops) {
  if (!simd::Enabled()) return MergeCount(a, b, ops);
  if (PreferGallop(a.size(), b.size())) {
    if (a.size() > b.size()) std::swap(a, b);
    return Gallop(a, b, ops, [](VertexId) {});
  }
  if (ops != nullptr) *ops += a.size() + b.size();
  return simd::IntersectCountU32(a.data(), a.size(), b.data(), b.size());
}

void IntersectInto(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>& out, uint64_t* ops) {
  out.resize(std::min(a.size(), b.size()));
  size_t count;
  if (!simd::Enabled()) {
    count = MergeInto(a, b, out.data(), ops);
  } else if (PreferGallop(a.size(), b.size())) {
    // Gallop emits the short side's matches, which are the common
    // elements regardless of which side is which.
    std::span<const VertexId> s = a.size() <= b.size() ? a : b;
    std::span<const VertexId> l = a.size() <= b.size() ? b : a;
    VertexId* dst = out.data();
    count = Gallop(s, l, ops, [&dst](VertexId x) { *dst++ = x; });
  } else {
    if (ops != nullptr) *ops += a.size() + b.size();
    count = simd::IntersectIntoU32(a.data(), a.size(), b.data(), b.size(),
                                   out.data());
  }
  out.resize(count);
}

std::vector<VertexId> Intersect(std::span<const VertexId> a,
                                std::span<const VertexId> b) {
  std::vector<VertexId> out;
  IntersectInto(a, b, out);
  return out;
}

bool IntersectAny(std::span<const VertexId> a, std::span<const VertexId> b) {
  // Gallop when lopsided (candidate-set vs hub-adjacency probes),
  // otherwise an early-exit merge. Purely existential, so no SIMD
  // variant is needed for parity — every path stops at the first hit.
  if (PreferGallop(a.size(), b.size())) {
    if (a.size() > b.size()) std::swap(a, b);
    size_t pos = 0;
    for (const VertexId x : a) {
      size_t bound = 1;
      while (pos + bound < b.size() && b[pos + bound] < x) bound <<= 1;
      pos = static_cast<size_t>(
          std::lower_bound(b.begin() + pos + bound / 2,
                           b.begin() + std::min(pos + bound, b.size()), x) -
          b.begin());
      if (pos < b.size() && b[pos] == x) return true;
      if (pos >= b.size()) return false;
    }
    return false;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

std::span<const VertexId> NeighborSetInto(const Graph& g, VertexId v,
                                          std::vector<VertexId>& buf) {
  const std::span<const VertexId> row = g.NeighborsInto(v, buf);
  if (!g.HasRepeatedNeighbors()) return row;
  if (row.data() != buf.data()) buf.assign(row.begin(), row.end());
  buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
  return buf;
}

uint64_t IntersectCount(const Graph& g, VertexId u, VertexId v,
                        NeighborScratch& scratch, uint64_t* ops) {
  return IntersectCount(NeighborSetInto(g, u, scratch.a),
                        NeighborSetInto(g, v, scratch.b), ops);
}

uint64_t IntersectCount(std::span<const VertexId> a, const Graph& g,
                        VertexId v, NeighborScratch& scratch, uint64_t* ops) {
  return IntersectCount(a, NeighborSetInto(g, v, scratch.b), ops);
}

void IntersectInto(std::span<const VertexId> a, const Graph& g, VertexId v,
                   std::vector<VertexId>& out, NeighborScratch& scratch,
                   uint64_t* ops) {
  IntersectInto(a, NeighborSetInto(g, v, scratch.b), out, ops);
}

bool IntersectAny(std::span<const VertexId> a, const Graph& g, VertexId v,
                  NeighborScratch& scratch) {
  return IntersectAny(a, NeighborSetInto(g, v, scratch.b));
}

}  // namespace gal
