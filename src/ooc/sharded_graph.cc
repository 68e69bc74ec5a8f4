#include "ooc/sharded_graph.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/env.h"
#include "common/logging.h"
#include "graph/compressed_csr.h"

namespace gal {
namespace {

constexpr uint32_t kFlagDirected = 1u << 0;
constexpr uint32_t kFlagHasPermutation = 1u << 1;

/// Bounds-checked little-endian reader over one loaded buffer; any
/// overrun flips ok() instead of reading past the end, so a truncated
/// manifest degrades to a Status, not UB.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool ReadBytes(void* out, size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }
  uint32_t ReadU32() {
    uint8_t b[4] = {0, 0, 0, 0};
    ReadBytes(b, 4);
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 |
           static_cast<uint32_t>(b[3]) << 24;
  }
  uint64_t ReadU64() {
    const uint64_t lo = ReadU32();
    return lo | static_cast<uint64_t>(ReadU32()) << 32;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

/// Whether every adjacency row is strictly ascending (no repeated
/// neighbor) — decides the gap-minus-one bias exactly like FromEdges'
/// dedup path does, and uniformly for raw and compressed layouts, so
/// the same graph always shards to identical files.
bool RowsStrictlyAscending(const Graph& g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    bool first = true;
    VertexId prev = 0;
    bool strict = true;
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (!first && u <= prev) strict = false;
      prev = u;
      first = false;
    });
    if (!strict) return false;
  }
  return true;
}

}  // namespace

uint64_t ResolveOocShardBytes(uint64_t requested) {
  const auto env = env::Lookup(env::Knob::kOocShardBytes, requested);
  if (env) return env->integer;
  return requested == 0 ? 1 : requested;
}

uint64_t ResolveOocBudgetBytes(uint64_t requested, uint64_t min_feasible,
                               bool* env_forced) {
  const auto env = env::Lookup(env::Knob::kOocBudgetBytes, requested);
  if (env_forced != nullptr) *env_forced = env.has_value();
  if (!env) return requested;
  if (env->integer == 0) return 0;  // "0" = unlimited, like an unset option
  // Kill-switch semantics: a forced budget below feasibility clamps UP
  // to the smallest budget that can run (one largest shard), so
  // GAL_OOC_BUDGET_BYTES=1 forces every shard to be evicted between
  // touches without making any store unopenable.
  return std::max(env->integer, min_feasible);
}

Result<ShardWriteSummary> WriteShardedGraph(const Graph& g,
                                            const std::string& base_path,
                                            const ShardWriterOptions& options) {
  const uint64_t target = ResolveOocShardBytes(options.target_shard_bytes);
  const VertexId n = g.NumVertices();
  const uint32_t bias = RowsStrictlyAscending(g) ? 1 : 0;

  ShardWriteSummary summary;
  std::vector<ShardInfo> infos;
  std::vector<uint8_t> stream;
  std::vector<uint32_t> row_offsets{0};
  std::vector<uint8_t> row_buf;
  VertexId shard_begin = 0;
  uint64_t shard_edges = 0;

  auto flush_shard = [&](VertexId end_vertex) -> Status {
    ShardInfo info;
    info.begin = shard_begin;
    info.end = end_vertex;
    info.adj_bytes = stream.size();
    info.edge_count = shard_edges;
    const uint32_t index = static_cast<uint32_t>(infos.size());
    GAL_RETURN_IF_ERROR(WriteShardFile(ShardFileName(base_path, index), index,
                                       stream, row_offsets, info));
    summary.total_adj_bytes += info.adj_bytes;
    summary.max_shard_resident_bytes =
        std::max(summary.max_shard_resident_bytes, info.ResidentBytes());
    infos.push_back(info);
    stream.clear();
    row_offsets.assign(1, 0);
    shard_begin = end_vertex;
    shard_edges = 0;
    return Status::Ok();
  };

  for (VertexId v = 0; v < n; ++v) {
    row_buf.clear();
    bool first = true;
    VertexId prev = 0;
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (first) {
        AppendVarint(row_buf, u);
        first = false;
      } else {
        GAL_CHECK(u >= prev + bias) << "adjacency row not sorted at " << v;
        AppendVarint(row_buf, u - prev - bias);
      }
      prev = u;
    });
    // Close the shard BEFORE an overflowing row, so shards stay at or
    // under the target unless a single row alone exceeds it.
    if (!stream.empty() && stream.size() + row_buf.size() > target) {
      GAL_RETURN_IF_ERROR(flush_shard(v));
    }
    stream.insert(stream.end(), row_buf.begin(), row_buf.end());
    row_offsets.push_back(static_cast<uint32_t>(stream.size()));
    shard_edges += g.Degree(v);
  }
  if (n > 0) GAL_RETURN_IF_ERROR(flush_shard(n));
  summary.num_shards = static_cast<uint32_t>(infos.size());

  // Manifest: everything needed to answer Degree/ShardOf/MapToOriginal
  // without touching a shard, checksummed as one unit.
  std::vector<uint8_t> m(std::begin(kOocManifestMagic),
                         std::end(kOocManifestMagic));
  AppendU32(m, kOocFormatVersion);
  uint32_t flags = 0;
  if (g.directed()) flags |= kFlagDirected;
  if (g.IsReordered()) flags |= kFlagHasPermutation;
  AppendU32(m, flags);
  AppendU32(m, n);
  AppendU32(m, summary.num_shards);
  AppendU64(m, g.NumEdges());
  AppendU64(m, g.NumAdjacencyEntries());
  AppendU32(m, bias);
  AppendU32(m, g.MaxDegree());
  for (const ShardInfo& info : infos) {
    AppendU32(m, info.begin);
    AppendU32(m, info.end);
    AppendU64(m, info.adj_bytes);
    AppendU64(m, info.edge_count);
    AppendU64(m, info.checksum);
  }
  for (VertexId v = 0; v < n; ++v) AppendU32(m, g.Degree(v));
  if (g.IsReordered()) {
    for (VertexId v = 0; v < n; ++v) AppendU32(m, g.OriginalId(v));
  }
  AppendU64(m, Fnv1a(m.data(), m.size()));

  const std::string manifest_path = ManifestFileName(base_path);
  std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open " + manifest_path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size()));
  if (!out) return Status::IOError("write failed for " + manifest_path);
  return summary;
}

void RemoveShardedGraphFiles(const std::string& base_path) {
  std::error_code ec;
  std::filesystem::remove(ManifestFileName(base_path), ec);
  for (uint32_t s = 0;; ++s) {
    const std::string path = ShardFileName(base_path, s);
    if (!std::filesystem::remove(path, ec)) break;
  }
}

Result<ShardedGraph> ShardedGraph::Open(const std::string& base_path,
                                        const OocOptions& options) {
  const std::string manifest_path = ManifestFileName(base_path);
  std::ifstream in(manifest_path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open manifest " + manifest_path);
  const size_t size = static_cast<size_t>(in.tellg());
  if (size < sizeof(kOocManifestMagic) + 8) {
    return Status::IOError(manifest_path + ": too small to be a manifest");
  }
  std::vector<uint8_t> m(size);
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(m.data()),
               static_cast<std::streamsize>(size))) {
    return Status::IOError("short read on manifest " + manifest_path);
  }
  ByteReader r(m.data(), size - 8);
  {
    char magic[8];
    if (!r.ReadBytes(magic, 8) ||
        std::memcmp(magic, kOocManifestMagic, 8) != 0) {
      return Status::IOError(manifest_path + ": bad manifest magic");
    }
  }
  {
    ByteReader tail(m.data() + size - 8, 8);
    const uint64_t stored = tail.ReadU64();
    const uint64_t computed = Fnv1a(m.data(), size - 8);
    if (stored != computed) {
      return Status::IOError(manifest_path + ": manifest checksum mismatch");
    }
  }

  ShardedGraph g;
  const uint32_t version = r.ReadU32();
  if (version != kOocFormatVersion) {
    return Status::IOError(manifest_path + ": unsupported manifest version " +
                           std::to_string(version));
  }
  const uint32_t flags = r.ReadU32();
  g.directed_ = (flags & kFlagDirected) != 0;
  g.num_vertices_ = r.ReadU32();
  const uint32_t num_shards = r.ReadU32();
  g.num_edges_ = r.ReadU64();
  g.adjacency_entries_ = r.ReadU64();
  g.delta_bias_ = r.ReadU32();
  g.max_degree_ = r.ReadU32();

  g.infos_.resize(num_shards);
  VertexId expect_begin = 0;
  uint64_t total_edges = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardInfo& info = g.infos_[s];
    info.begin = r.ReadU32();
    info.end = r.ReadU32();
    info.adj_bytes = r.ReadU64();
    info.edge_count = r.ReadU64();
    info.checksum = r.ReadU64();
    if (!r.ok()) break;
    if (info.begin != expect_begin || info.end < info.begin ||
        info.end > g.num_vertices_) {
      return Status::IOError(manifest_path + ": shard " + std::to_string(s) +
                             " range is not contiguous");
    }
    expect_begin = info.end;
    total_edges += info.edge_count;
    g.total_adj_bytes_ += info.adj_bytes;
    g.max_shard_resident_bytes_ =
        std::max(g.max_shard_resident_bytes_, info.ResidentBytes());
  }
  g.degrees_.resize(g.num_vertices_);
  uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices_; ++v) {
    g.degrees_[v] = r.ReadU32();
    degree_sum += g.degrees_[v];
  }
  if ((flags & kFlagHasPermutation) != 0) {
    g.to_original_.resize(g.num_vertices_);
    for (VertexId v = 0; v < g.num_vertices_; ++v) {
      g.to_original_[v] = r.ReadU32();
    }
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::IOError(manifest_path + ": manifest payload truncated or "
                                           "trailing bytes");
  }
  if ((g.num_vertices_ > 0 && expect_begin != g.num_vertices_) ||
      total_edges != g.adjacency_entries_ ||
      degree_sum != g.adjacency_entries_) {
    return Status::IOError(manifest_path +
                           ": shard table / degrees inconsistent with "
                           "adjacency entry count");
  }
  if (!g.to_original_.empty()) {
    g.to_internal_.assign(g.num_vertices_, kInvalidVertex);
    for (VertexId v = 0; v < g.num_vertices_; ++v) {
      const VertexId o = g.to_original_[v];
      if (o >= g.num_vertices_ || g.to_internal_[o] != kInvalidVertex) {
        return Status::IOError(manifest_path +
                               ": reorder permutation is not a bijection");
      }
      g.to_internal_[o] = v;
    }
  }

  // Validate every shard file now (footer + checksum + offsets), so the
  // cache's load path may assume files are good for the store's
  // lifetime. One streaming pass; payloads are discarded, not retained.
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint8_t> bytes;
    std::vector<uint32_t> offsets;
    GAL_RETURN_IF_ERROR(ReadShardFile(ShardFileName(base_path, s), s,
                                      g.infos_[s], &bytes, &offsets));
  }

  bool env_forced = false;
  const uint64_t budget = ResolveOocBudgetBytes(
      options.memory_budget_bytes, g.max_shard_resident_bytes_, &env_forced);
  if (budget > 0 && budget < g.max_shard_resident_bytes_) {
    return Status::InvalidArgument(
        "ooc memory budget " + std::to_string(budget) +
        " B cannot admit the largest shard (" +
        std::to_string(g.max_shard_resident_bytes_) +
        " B resident); re-shard with a smaller GAL_OOC_SHARD_BYTES or "
        "raise the budget");
  }
  g.cache_ = std::make_unique<ShardCache>(base_path, g.infos_, budget);
  g.clock_ = std::make_unique<VirtualClock>(NetworkCostModel{
      options.disk_bandwidth_bytes_per_sec, options.disk_latency_seconds});
  return g;
}

}  // namespace gal
