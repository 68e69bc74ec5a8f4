#include "ooc/shard_cache.h"

#include <algorithm>

namespace gal {

ShardCache::ShardCache(std::string base_path, std::vector<ShardInfo> shards,
                       uint64_t budget_bytes, Histogram* load_spans)
    : base_path_(std::move(base_path)),
      infos_(std::move(shards)),
      budget_bytes_(budget_bytes),
      entries_(infos_.size()),
      load_hist_(load_spans != nullptr ? load_spans : &own_load_hist_) {
  for (size_t s = 0; s < infos_.size(); ++s) {
    entries_[s].shard.info = infos_[s];
    GAL_CHECK(budget_bytes_ == 0 || infos_[s].ResidentBytes() <= budget_bytes_)
        << "ooc budget " << budget_bytes_ << " B cannot admit shard " << s
        << " (" << infos_[s].ResidentBytes()
        << " B resident) — ShardedGraph::Open should have rejected this";
  }
}

uint64_t ShardCache::PinnedBytesLocked() const {
  uint64_t bytes = 0;
  for (const Entry& e : entries_) {
    if (e.resident && e.pins > 0) bytes += e.shard.info.ResidentBytes();
  }
  return bytes;
}

void ShardCache::EvictToFitLocked(uint64_t incoming) {
  const uint64_t budget = EffectiveBudgetLocked();
  while (stats_.resident_bytes + incoming > budget) {
    // Strict LRU over unpinned residents: smallest last_use goes first.
    size_t victim = entries_.size();
    for (size_t s = 0; s < entries_.size(); ++s) {
      const Entry& e = entries_[s];
      if (!e.resident || e.pins > 0) continue;
      if (victim == entries_.size() ||
          e.last_use < entries_[victim].last_use) {
        victim = s;
      }
    }
    GAL_CHECK(victim != entries_.size())
        << "ooc eviction found no unpinned shard (caller holds multiple "
           "pins per thread under a too-small budget?)";
    EvictLocked(entries_[victim]);
  }
}

void ShardCache::EvictLocked(Entry& e) {
  stats_.resident_bytes -= e.shard.info.ResidentBytes();
  // Swap-with-empty actually returns the memory, unlike clear().
  std::vector<uint8_t>().swap(e.shard.bytes);
  std::vector<uint32_t>().swap(e.shard.row_offsets);
  e.resident = false;
  ++stats_.evictions;
}

void ShardCache::DropUnpinned() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.resident && e.pins == 0) EvictLocked(e);
  }
}

const LoadedShard* ShardCache::Acquire(uint32_t s) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry& e = entries_[s];
  const uint64_t incoming = infos_[s].ResidentBytes();
  while (true) {
    if (e.resident) {
      ++e.pins;
      e.last_use = ++use_counter_;
      ++stats_.hits;
      return &e.shard;
    }
    // Admission needs `incoming` bytes that are not pinned elsewhere;
    // unpinned residents are evictable, so only pinned bytes block us.
    if (PinnedBytesLocked() + incoming <= EffectiveBudgetLocked()) break;
    space_cv_.wait(lock);
  }
  EvictToFitLocked(incoming);
  Status st;
  {
    ScopedSpan span(load_hist_);
    st = ReadShardFile(ShardFileName(base_path_, s), s, infos_[s],
                       e.shard.bytes, e.shard.row_offsets);
  }
  if (!st.ok()) {
    // Open() validated every shard file (a job's private set was just
    // written), so the file changed or vanished mid-run. The shard is
    // admitted with empty rows, so pins, residency and the budget stay
    // accounted as for a load.
    if (status_.ok()) status_ = std::move(st);
    e.shard.bytes.clear();
    e.shard.row_offsets.assign(size_t{infos_[s].NumVertices()} + 1, 0);
  }
  e.resident = true;
  e.pins = 1;
  e.last_use = ++use_counter_;
  ++stats_.loads;
  stats_.bytes_loaded += incoming;
  stats_.resident_bytes += incoming;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  // Waiters wanting THIS shard can now pin it instead of loading.
  space_cv_.notify_all();
  return &e.shard;
}

void ShardCache::Release(uint32_t s) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[s];
  GAL_CHECK(e.pins > 0) << "Release of unpinned shard " << s;
  if (--e.pins == 0) space_cv_.notify_all();
}

ShardCacheStats ShardCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status ShardCache::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

std::vector<uint32_t> ShardCache::ResidentShards() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> out;
  for (size_t s = 0; s < entries_.size(); ++s) {
    if (entries_[s].resident) out.push_back(static_cast<uint32_t>(s));
  }
  return out;
}

}  // namespace gal
