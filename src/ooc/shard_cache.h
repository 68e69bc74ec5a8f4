#ifndef GAL_OOC_SHARD_CACHE_H_
#define GAL_OOC_SHARD_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "graph/compressed_csr.h"
#include "ooc/shard_format.h"

namespace gal {

/// One shard resident in memory: the varint adjacency stream and its
/// relative row offsets (row r of the shard spans stream bytes
/// [row_offsets[r], row_offsets[r+1])).
struct LoadedShard {
  ShardInfo info;
  std::vector<uint8_t> bytes;
  std::vector<uint32_t> row_offsets;
};

/// Point-in-time cache observables (monotone counters except
/// resident_bytes). `peak_resident_bytes` is the gauge the budget
/// contract is asserted on: it must never exceed the budget.
struct ShardCacheStats {
  uint64_t loads = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t bytes_loaded = 0;          // disk bytes admitted (resident cost)
  uint64_t resident_bytes = 0;        // current
  uint64_t peak_resident_bytes = 0;   // max ever
};

/// Pins and evicts whole shards under a byte budget — the bounded-memory
/// substrate of the out-of-core engines (GraphChi's memoryshard, scoped
/// to adjacency data; vertex state stays in RAM). Eviction is strict LRU
/// over unpinned shards with a monotone use counter, so a serial access
/// trace always evicts in the same order. Acquire blocks (condition
/// variable) when every byte of budget is pinned elsewhere, which makes
/// a one-shard budget safe at any thread count PROVIDED each thread
/// holds at most one pin at a time — the invariant RowReader and the
/// triangle counter keep. The constructor checks the budget admits the
/// largest shard; ShardedGraph::Open turns that into a Status first.
///
/// Loads run under the cache mutex (loads serialize; correctness and
/// the deterministic LRU trace first), each timed into a Histogram so
/// OocStats can report p50/p95 load spans.
class ShardCache {
 public:
  /// budget_bytes == 0 means unlimited.
  ShardCache(std::string base_path, std::vector<ShardInfo> shards,
             uint64_t budget_bytes);

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  /// Pins shard `s` resident and returns it; blocks until it fits.
  /// Every Acquire must be paired with a Release (use PinnedShard).
  const LoadedShard* Acquire(uint32_t s);
  void Release(uint32_t s);

  ShardCacheStats Stats() const;
  StageTimingStat LoadTimings() const {
    return StageTimingStat::FromHistogram("shard_load", load_hist_);
  }
  /// Ascending ids of currently resident shards (tests assert the LRU
  /// eviction trace through this).
  std::vector<uint32_t> ResidentShards() const;

  uint64_t budget_bytes() const { return budget_bytes_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(entries_.size()); }

 private:
  struct Entry {
    LoadedShard shard;  // payload vectors empty when not resident
    bool resident = false;
    uint32_t pins = 0;
    uint64_t last_use = 0;
  };

  uint64_t EffectiveBudgetLocked() const {
    return budget_bytes_ == 0 ? UINT64_MAX : budget_bytes_;
  }
  uint64_t PinnedBytesLocked() const;
  /// Evicts LRU unpinned shards until `incoming` more bytes fit.
  void EvictToFitLocked(uint64_t incoming);

  const std::string base_path_;
  const std::vector<ShardInfo> infos_;
  const uint64_t budget_bytes_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;
  std::vector<Entry> entries_;
  uint64_t use_counter_ = 0;
  ShardCacheStats stats_;
  Histogram load_hist_;
};

/// RAII pin over one shard, exposing the compression-oblivious access
/// forms for vertices inside the shard's range. Holding the pin is what
/// keeps the bytes valid — the "pin while iterating" contract: the
/// cache cannot evict a pinned shard no matter what other threads load.
class PinnedShard {
 public:
  /// Forward cursor over a row's sorted neighbors, mirroring
  /// Graph::NeighborCursor (Valid/Get/Next). Borrows the pin: valid only
  /// while the PinnedShard it came from is alive.
  class Cursor {
   public:
    bool Valid() const { return valid_; }
    VertexId Get() const { return current_; }
    void Next() {
      if (p_ == end_) {
        valid_ = false;
        return;
      }
      current_ += ReadVarint(p_) + bias_;
    }

   private:
    friend class PinnedShard;
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    VertexId current_ = 0;
    uint32_t bias_ = 0;
    bool valid_ = false;
  };

  PinnedShard() = default;
  PinnedShard(ShardCache* cache, uint32_t shard, uint32_t delta_bias)
      : cache_(cache),
        shard_index_(shard),
        bias_(delta_bias),
        shard_(cache->Acquire(shard)) {}
  ~PinnedShard() { reset(); }

  PinnedShard(PinnedShard&& other) noexcept { *this = std::move(other); }
  PinnedShard& operator=(PinnedShard&& other) noexcept {
    if (this != &other) {
      reset();
      cache_ = other.cache_;
      shard_index_ = other.shard_index_;
      bias_ = other.bias_;
      shard_ = other.shard_;
      other.cache_ = nullptr;
      other.shard_ = nullptr;
    }
    return *this;
  }
  PinnedShard(const PinnedShard&) = delete;
  PinnedShard& operator=(const PinnedShard&) = delete;

  VertexId begin() const { return shard_->info.begin; }
  VertexId end() const { return shard_->info.end; }
  /// Whether this handle pins the shard holding v (false when empty).
  bool Contains(VertexId v) const {
    return shard_ != nullptr && v >= begin() && v < end();
  }

  /// Streams v's sorted neighbors through fn without allocating —
  /// identical semantics to Graph::ForEachOutNeighbor. v must be in
  /// [begin(), end()).
  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) const {
    GAL_DCHECK(Contains(v));
    const uint32_t r = v - begin();
    const uint8_t* p = shard_->bytes.data() + shard_->row_offsets[r];
    const uint8_t* end = shard_->bytes.data() + shard_->row_offsets[r + 1];
    if (p == end) return;
    VertexId current = ReadVarint(p);
    fn(current);
    while (p < end) {
      current += ReadVarint(p) + bias_;
      fn(current);
    }
  }

  Cursor OutNeighbors(VertexId v) const {
    GAL_DCHECK(Contains(v));
    const uint32_t r = v - begin();
    Cursor c;
    c.p_ = shard_->bytes.data() + shard_->row_offsets[r];
    c.end_ = shard_->bytes.data() + shard_->row_offsets[r + 1];
    c.bias_ = bias_;
    if (c.p_ != c.end_) {
      c.current_ = ReadVarint(c.p_);
      c.valid_ = true;
    }
    return c;
  }

 private:
  void reset() {
    if (cache_ != nullptr && shard_ != nullptr) cache_->Release(shard_index_);
    cache_ = nullptr;
    shard_ = nullptr;
  }

  ShardCache* cache_ = nullptr;
  uint32_t shard_index_ = 0;
  uint32_t bias_ = 0;
  const LoadedShard* shard_ = nullptr;
};

}  // namespace gal

#endif  // GAL_OOC_SHARD_CACHE_H_
