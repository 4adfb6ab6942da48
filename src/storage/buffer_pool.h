#ifndef TABBENCH_STORAGE_BUFFER_POOL_H_
#define TABBENCH_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "storage/page_store.h"

namespace tabbench {

/// Point-in-time accounting snapshot of one buffer pool.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t resident = 0;
  size_t capacity = 0;

  uint64_t accesses() const { return hits + misses; }
  /// Hits over accesses; 0 before any access.
  double HitRatio() const {
    uint64_t total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// LRU buffer pool. Tracks *which* pages are resident; the page bytes live
/// in the PageStore (memory is the simulated disk), so the pool's job is
/// purely to decide hit vs. miss for cost accounting — mirroring the paper's
/// setup where "the raw data size is an order of magnitude larger than the
/// main memory of the computers utilized" (Section 3.2.1).
///
/// Not internally synchronized: a pool is a single-threaded object. The
/// parallel runners give every worker its own private pool
/// (Database::MakeSessionContext) rather than locking this hot path.
class BufferPool {
 public:
  explicit BufferPool(size_t capacity_pages);

  /// Records an access to `id`. Returns true on hit; on miss the page is
  /// brought in (evicting the LRU page if full) and false is returned.
  bool Touch(PageId id);

  /// Forgets a page (e.g. when an index is dropped).
  void Evict(PageId id);

  /// Drops everything (cold cache between benchmark runs) and zeroes the
  /// hit/miss counters — a cleared pool starts a fresh accounting epoch.
  void Clear();

  /// Resizes the pool (the DBA knob). Shrinking evicts LRU pages.
  void SetCapacity(size_t capacity_pages);

  size_t capacity() const { return capacity_; }
  size_t resident() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetCounters() { hits_ = misses_ = 0; }
  BufferPoolStats stats() const {
    return {hits_, misses_, resident(), capacity_};
  }

 private:
  size_t capacity_;
  std::list<PageId> lru_;  // front = most recent
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_BUFFER_POOL_H_
