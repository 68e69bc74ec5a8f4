#include "ooc/shard_format.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace gal {
namespace {

constexpr uint64_t kPrime1 = 11400714785074694791ull;
constexpr uint64_t kPrime2 = 14029467366897019727ull;
constexpr uint64_t kPrime3 = 1609587929392839161ull;
constexpr uint64_t kPrime4 = 9650029242287828579ull;
constexpr uint64_t kPrime5 = 2870177450012600261ull;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// Little-endian loads (memcpy: no alignment or aliasing UB; one move
/// on a little-endian host).
uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

std::string ManifestFileName(const std::string& base_path) {
  return base_path + ".manifest";
}

std::string ShardFileName(const std::string& base_path, uint32_t shard) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard%05u", shard);
  return base_path + suffix;
}

uint64_t Xxh64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h = seed + kPrime5;
  if (len >= 32) {
    uint64_t lanes[4] = {seed + kPrime1 + kPrime2, seed + kPrime2, seed,
                         seed - kPrime1};
    for (; end - p >= 32; p += 32) {
      for (int i = 0; i < 4; ++i) {
        lanes[i] = Round(lanes[i], ReadU64(p + 8 * i));
      }
    }
    h = Rotl(lanes[0], 1) + Rotl(lanes[1], 7) + Rotl(lanes[2], 12) +
        Rotl(lanes[3], 18);
    for (const uint64_t lane : lanes) {
      h = (h ^ Round(0, lane)) * kPrime1 + kPrime4;
    }
  }
  h += len;
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, ReadU64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = Rotl(h ^ ReadU32(p) * kPrime1, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = Rotl(h ^ *p * kPrime5, 11) * kPrime1;
  // Avalanche: every input bit reaches every output bit.
  h = (h ^ (h >> 33)) * kPrime2;
  h = (h ^ (h >> 29)) * kPrime3;
  return h ^ (h >> 32);
}

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

Status ReadShardFile(const std::string& path, uint32_t expected_index,
                     const ShardInfo& expected, std::vector<uint8_t>& bytes,
                     std::vector<uint32_t>& row_offsets) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open shard file " + path);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  const size_t num_offsets = static_cast<size_t>(expected.NumVertices()) + 1;
  const uint64_t offsets_bytes = num_offsets * sizeof(uint32_t);
  const uint64_t want_size =
      expected.adj_bytes + offsets_bytes + kOocShardFooterBytes;
  if (file_size != want_size) {
    return Status::IOError(path + ": size " + std::to_string(file_size) +
                           " != expected " + std::to_string(want_size) +
                           " (truncated or foreign file)");
  }
  // One pass, straight into the resident buffers: the offsets are
  // little-endian u32s on disk, so they land as the host's words (and
  // are byte-swapped below on a big-endian host).
  bytes.resize(expected.adj_bytes);
  row_offsets.resize(num_offsets);
  uint8_t footer[kOocShardFooterBytes];
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(expected.adj_bytes)) ||
      !in.read(reinterpret_cast<char*>(row_offsets.data()),
               static_cast<std::streamsize>(offsets_bytes)) ||
      !in.read(reinterpret_cast<char*>(footer), sizeof(footer))) {
    return Status::IOError("short read on shard file " + path);
  }

  if (std::memcmp(footer, kOocShardMagic, sizeof(kOocShardMagic)) != 0) {
    return Status::IOError(path + ": bad shard magic");
  }
  const uint32_t version = ReadU32(footer + 8);
  if (version != kOocFormatVersion) {
    return Status::IOError(path + ": unsupported shard format version " +
                           std::to_string(version));
  }
  const uint32_t index = ReadU32(footer + 12);
  const VertexId begin = ReadU32(footer + 16);
  const VertexId end = ReadU32(footer + 20);
  const uint64_t adj_bytes = ReadU64(footer + 24);
  const uint64_t checksum = ReadU64(footer + 32);
  if (index != expected_index || begin != expected.begin ||
      end != expected.end || adj_bytes != expected.adj_bytes) {
    return Status::IOError(path + ": footer disagrees with manifest (index " +
                           std::to_string(index) + ", range [" +
                           std::to_string(begin) + "," + std::to_string(end) +
                           "), " + std::to_string(adj_bytes) + " bytes)");
  }
  const uint64_t computed = Xxh64(row_offsets.data(), offsets_bytes,
                                  Xxh64(bytes.data(), bytes.size()));
  if (checksum != expected.checksum || computed != checksum) {
    return Status::IOError(path + ": checksum mismatch (payload corrupt)");
  }
  if constexpr (std::endian::native == std::endian::big) {
    for (uint32_t& off : row_offsets) off = __builtin_bswap32(off);
  }
  if (row_offsets.back() != expected.adj_bytes) {
    return Status::IOError(path + ": row offsets do not span the stream");
  }
  return Status::Ok();
}

Status WriteShardFile(const std::string& path, uint32_t shard_index,
                      const std::vector<uint8_t>& stream,
                      const std::vector<uint32_t>& row_offsets,
                      ShardInfo& info) {
  std::vector<uint8_t> offsets_bytes;
  offsets_bytes.reserve(row_offsets.size() * sizeof(uint32_t));
  for (uint32_t off : row_offsets) AppendU32(offsets_bytes, off);
  info.checksum = Xxh64(offsets_bytes.data(), offsets_bytes.size(),
                        Xxh64(stream.data(), stream.size()));

  std::vector<uint8_t> footer;
  footer.reserve(kOocShardFooterBytes);
  footer.insert(footer.end(), kOocShardMagic,
                kOocShardMagic + sizeof(kOocShardMagic));
  AppendU32(footer, kOocFormatVersion);
  AppendU32(footer, shard_index);
  AppendU32(footer, info.begin);
  AppendU32(footer, info.end);
  AppendU64(footer, info.adj_bytes);
  AppendU64(footer, info.checksum);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(stream.data()),
            static_cast<std::streamsize>(stream.size()));
  out.write(reinterpret_cast<const char*>(offsets_bytes.data()),
            static_cast<std::streamsize>(offsets_bytes.size()));
  out.write(reinterpret_cast<const char*>(footer.data()),
            static_cast<std::streamsize>(footer.size()));
  if (!out) return Status::IOError("write failed for " + path);
  return Status::Ok();
}

}  // namespace gal
