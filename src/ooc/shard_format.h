#ifndef GAL_OOC_SHARD_FORMAT_H_
#define GAL_OOC_SHARD_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace gal {

/// On-disk format of the out-of-core shard store (GraphChi/GridGraph's
/// single-machine lane of the survey): a compressed CSR is cut into
/// contiguous vertex-range shards, each serialized as one file
///
///   [varint adjacency stream | relative row offsets (u32) | footer]
///
/// next to one manifest file holding the graph-wide metadata (vertex
/// count, per-vertex degrees, shard table, optional reorder
/// permutation). The adjacency stream reuses the delta-varint encoding
/// of compressed_csr.h byte-for-byte, so sharding a compressed graph is
/// a slice, not a transcode, and the bytes/edge economics PR 8 measured
/// carry over to disk unchanged. Footers live at the END of shard files
/// so the writer streams; every shard payload and the manifest are
/// checksummed (Xxh64, eight bytes a step) and every load validates
/// before anything is trusted — corrupt, truncated or version-1 files
/// surface as Status, never as a crash.

inline constexpr char kOocManifestMagic[8] = {'G', 'A', 'L', 'O',
                                              'O', 'C', 'M', '1'};
inline constexpr char kOocShardMagic[8] = {'G', 'A', 'L', 'O',
                                           'O', 'C', 'S', '1'};
/// Version 2 checksums with Xxh64; version 1 (FNV-1a) files are
/// rejected as unsupported.
inline constexpr uint32_t kOocFormatVersion = 2;
/// magic(8) + version(4) + shard_index(4) + begin(4) + end(4) +
/// adj_bytes(8) + checksum(8).
inline constexpr size_t kOocShardFooterBytes = 40;

/// One shard's manifest entry: the vertex range it covers and the
/// integrity data needed to admit it.
struct ShardInfo {
  VertexId begin = 0;        // first vertex of the range
  VertexId end = 0;          // one past the last vertex
  uint64_t adj_bytes = 0;    // varint adjacency stream length
  uint64_t edge_count = 0;   // adjacency entries in the range
  uint64_t checksum = 0;     // Xxh64 over stream, then row-offset bytes

  VertexId NumVertices() const { return end - begin; }

  /// Bytes the shard occupies once resident: the varint stream plus the
  /// relative row-offset array. This — not the raw file size — is what
  /// the ShardCache charges against the memory budget.
  uint64_t ResidentBytes() const {
    return adj_bytes +
           (static_cast<uint64_t>(NumVertices()) + 1) * sizeof(uint32_t);
  }
};

/// FNV-1a 64-bit; chainable by passing the previous digest as `seed`.
/// One byte per step: galbench's result digests use it, the shard
/// format does not.
inline uint64_t Fnv1a(const void* data, size_t len,
                      uint64_t seed = 1469598103934665603ull) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// XXH64 (the xxHash 64-bit digest): four lanes of 64-bit
/// multiply-rotate rounds over little-endian words, then an avalanche;
/// chainable by passing the previous digest as `seed`. The checksum of
/// every shard payload and manifest: a flipped bit anywhere in the
/// input reaches every output bit, where a bare FNV step per word lets
/// flips of bit 63 in any two words cancel.
uint64_t Xxh64(const void* data, size_t len, uint64_t seed = 0);

/// `<base>.manifest` and `<base>.shard00042` — a shard set is one base
/// path, so temp-dir cleanup is a prefix glob.
std::string ManifestFileName(const std::string& base_path);
std::string ShardFileName(const std::string& base_path, uint32_t shard);

/// Little-endian scalar append/read used by both the manifest and the
/// shard footers (fixed width, no struct punning — padding-safe).
void AppendU32(std::vector<uint8_t>& out, uint32_t v);
void AppendU64(std::vector<uint8_t>& out, uint64_t v);

/// Reads one shard file in one pass, straight into `bytes` (the varint
/// stream) and `row_offsets` (NumVertices()+1 offsets relative to the
/// stream start), and validates it against its manifest entry: exact
/// file size, footer magic/version/index/range/length, the checksum of
/// every payload byte, and the offsets' span. Any mismatch — missing
/// file, truncation, flipped bit, older format — is a Status, and the
/// buffers' contents are then unspecified.
Status ReadShardFile(const std::string& path, uint32_t expected_index,
                     const ShardInfo& expected, std::vector<uint8_t>& bytes,
                     std::vector<uint32_t>& row_offsets);

/// Writes one shard file (stream + relative offsets + footer) and
/// returns the payload checksum through `info` (info's range/bytes/edge
/// count must already be filled by the caller).
Status WriteShardFile(const std::string& path, uint32_t shard_index,
                      const std::vector<uint8_t>& stream,
                      const std::vector<uint32_t>& row_offsets,
                      ShardInfo& info);

}  // namespace gal

#endif  // GAL_OOC_SHARD_FORMAT_H_
