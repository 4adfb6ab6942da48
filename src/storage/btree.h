#ifndef TABBENCH_STORAGE_BTREE_H_
#define TABBENCH_STORAGE_BTREE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "types/value.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// Composite index key: one Value per indexed column, compared
/// lexicographically.
using IndexKey = std::vector<Value>;

/// Lexicographic three-way comparison; a shorter key that is a prefix of the
/// longer one compares equal on the shared prefix then shorter-first.
int CompareKeys(const IndexKey& a, const IndexKey& b);

/// True iff the first `prefix.size()` columns of `key` equal `prefix`.
bool KeyHasPrefix(const IndexKey& key, const IndexKey& prefix);

/// A B+-tree over composite keys, mapping key -> Rid (duplicates allowed).
///
/// Nodes are in-memory structures, but every node owns a page in the
/// PageStore: descending the tree or walking the leaf chain reports each
/// node's PageId through a PageTouchFn, so buffer-pool hits/misses and
/// simulated I/O time are accounted exactly as if nodes were serialized
/// 8 KiB pages. Node fanout is derived from the estimated key width so page
/// counts and heights match what a serialized tree would have.
///
/// Concurrency contract: structural mutations (Insert/Delete/Update/
/// BulkBuild/Drop) serialize on `mu_`, so any interleaving of writers is
/// safe. Readers (SeekPrefix/ScanAll/iterators) stay lock-free and are only
/// valid in phases with no concurrent writer — the engine never runs a
/// write (Database::Timed*, a configuration change) while queries read.
class BTree {
 public:
  /// `key_width_bytes`: average encoded key size, used to size node fanout.
  BTree(std::string name, size_t num_key_columns, size_t key_width_bytes,
        PageStore* store);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts one entry, reporting touched node pages (root-to-leaf path and
  /// any splits) through `touch`. Used by the engine's single-row writes
  /// (the paper's Section 4.4 insertion experiment). Fails only
  /// via the `storage.btree_insert` / `storage.btree_split` fault points;
  /// a faulted split aborts before any structural change.
  Status Insert(const IndexKey& key, const Rid& rid, const PageTouchFn& touch)
      TB_EXCLUDES(mu_);

  /// Removes the entry matching (key, rid) exactly; NotFound if absent.
  /// Underflowing leaves borrow from or merge with a sibling. The
  /// `storage.btree_merge` fault point fires before the erase that would
  /// underflow a leaf, so a faulted delete leaves the tree untouched, as a
  /// faulted split does.
  Status Delete(const IndexKey& key, const Rid& rid, const PageTouchFn& touch)
      TB_EXCLUDES(mu_);

  /// Delete(old_key, old_rid) + Insert(new_key, new_rid) under one lock
  /// hold — the index half of an UPDATE. The heap is append-only, so an
  /// updated row moves to a fresh Rid and every index entry follows it.
  Status Update(const IndexKey& old_key, const Rid& old_rid,
                const IndexKey& new_key, const Rid& new_rid,
                const PageTouchFn& touch) TB_EXCLUDES(mu_);

  /// Builds the tree from entries sorted by (key, rid). Much faster than
  /// repeated Insert; used by the configuration builder.
  void BulkBuild(std::vector<std::pair<IndexKey, Rid>> sorted_entries)
      TB_EXCLUDES(mu_);

  /// Iterator over entries with a given key prefix (equality probe), or over
  /// the whole tree (full index scan, for index-only plans).
  class Iterator {
   public:
    /// Advances; false at end. On true sets *rid and, unless `key` is
    /// null, *key (callers that only fetch by Rid skip the key copy).
    bool Next(IndexKey* key, Rid* rid);

    /// Next without the copy: the entry's key in place in its leaf, or null
    /// at end. Page touches are Next's. The pointer stays valid while the
    /// iterator moves on; like every reader it is invalidated by the next
    /// structural mutation of the tree.
    const IndexKey* NextKey(Rid* rid);

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    const void* leaf_ = nullptr;  // current leaf node
    size_t idx_ = 0;
    IndexKey prefix_;  // empty = unbounded
    PageTouchFn touch_;
    bool touched_current_ = false;
  };

  /// Equality probe: all entries whose key starts with `prefix`. The
  /// root-to-leaf descent pages are reported through `touch` immediately;
  /// leaf pages are reported as the iterator reaches them.
  Iterator SeekPrefix(const IndexKey& prefix, const PageTouchFn& touch) const;

  /// Full scan in key order (descends to the leftmost leaf).
  Iterator ScanAll(const PageTouchFn& touch) const;

  // -- Measured metadata (what the optimizer reads in a *built*
  //    configuration; hypothetical configurations must derive these). --
  const std::string& name() const { return name_; }
  size_t num_key_columns() const { return num_key_columns_; }
  uint64_t num_entries() const TB_EXCLUDES(mu_);
  uint64_t num_distinct_keys() const;
  size_t height() const;
  size_t num_leaf_pages() const;
  size_t num_pages() const TB_EXCLUDES(mu_);
  size_t leaf_fanout() const { return leaf_capacity_; }

  /// Oracle-style clustering factor: the number of heap-page switches when
  /// fetching every row in index-key order. Lower = better correlation
  /// between index order and heap order. Heap fetch cost per matched entry
  /// is approximately clustering_factor() / num_entries() pages.
  uint64_t clustering_factor() const;

  /// CRC-32C over the tree's logical content (leaf-chain keys + rids, in
  /// order) and shape (height, page and entry counts). Two trees holding
  /// the same entries with the same structure fingerprint identically
  /// regardless of which PageIds the store handed out, so a digest of
  /// simulated output can include an index's state after a run of writes.
  uint64_t Fingerprint() const TB_EXCLUDES(mu_);

  /// Frees all node pages.
  void Drop() TB_EXCLUDES(mu_);

  /// Content epoch (NextContentEpoch): renewed at construction and at the
  /// entry of Insert, Delete, Update, BulkBuild and Drop.
  uint64_t content_epoch() const { return epoch_.load(); }

 private:
  /// Tests replay the descent against a reference walk of the nodes.
  friend class BTreeTestPeer;

  struct Node {
    PageId page_id = kInvalidPageId;
    bool is_leaf = true;
    // Leaf: keys/rids are parallel entry arrays. Internal: keys[i] is the
    // smallest key reachable under children[i+1]; children.size() ==
    // keys.size() + 1.
    std::vector<IndexKey> keys;
    std::vector<Rid> rids;
    std::vector<std::unique_ptr<Node>> children;
    Node* next_leaf = nullptr;
  };

  Node* FindLeaf(const IndexKey& prefix, const PageTouchFn& touch) const;
  Status InsertLocked(const IndexKey& key, const Rid& rid,
                      const PageTouchFn& touch) TB_REQUIRES(mu_);
  Status InsertRec(Node* node, const IndexKey& key, const Rid& rid,
                   const PageTouchFn& touch, IndexKey* split_key,
                   std::unique_ptr<Node>* split_node) TB_REQUIRES(mu_);
  Status DeleteLocked(const IndexKey& key, const Rid& rid,
                      const PageTouchFn& touch) TB_REQUIRES(mu_);
  /// Recursive (key, rid) removal; `*found` reports whether anything was
  /// erased. Underflow in a child is repaired on the way back up.
  Status DeleteRec(Node* node, const IndexKey& key, const Rid& rid,
                   const PageTouchFn& touch, bool* found) TB_REQUIRES(mu_);
  /// Repairs an underfull children_[i]: borrow from an adjacent sibling
  /// with spare entries, else merge into the left (or right) sibling.
  void RebalanceChild(Node* parent, size_t i, const PageTouchFn& touch)
      TB_REQUIRES(mu_);
  /// Fewest entries (leaf) or children (internal) a non-root node keeps.
  size_t MinFill(bool leaf) const TB_REQUIRES(mu_);
  /// Takes a fresh content epoch; first step of every mutator.
  void RenewEpoch() { epoch_.store(NextContentEpoch()); }
  std::unique_ptr<Node> MakeNode(bool leaf) TB_REQUIRES(mu_);
  void FreeNode(Node* node) TB_REQUIRES(mu_);
  void DropLocked() TB_REQUIRES(mu_);

  /// Walks the leaf chain once to fill both cached metrics.
  void FillStatsCache() const TB_REQUIRES(cache_mu_);
  /// Marks the lazy metrics stale (called by every structural mutation).
  void InvalidateStatsCache() TB_EXCLUDES(cache_mu_);

  /// Immutable after construction: writers happen to read these under mu_,
  /// the lock-free query paths read them bare — not a guard relationship.
  /// NOLINTNEXTLINE(tabbench-lockset-inconsistent)
  std::string name_;
  /// NOLINTNEXTLINE(tabbench-lockset-inconsistent)
  size_t num_key_columns_;
  /// NOLINTNEXTLINE(tabbench-lockset-inconsistent)
  size_t leaf_capacity_;
  size_t internal_capacity_ TB_GUARDED_BY(mu_);
  PageStore* store_ TB_GUARDED_BY(mu_);
  /// Serializes structural mutation (and guards the shape counters below);
  /// always taken before cache_mu_ — mutations invalidate the stats cache
  /// while holding it.
  mutable Mutex mu_ TB_ACQUIRED_BEFORE("BTree::cache_mu_");
  /// Structurally mutated only under mu_; read lock-free by the query
  /// paths, which by the engine's contract never overlap a writer. The
  /// under-lock reads in FillStatsCache are incidental, not a guard
  /// relationship.
  /// NOLINTNEXTLINE(tabbench-lockset-inconsistent)
  std::unique_ptr<Node> root_;
  std::atomic<uint64_t> epoch_{NextContentEpoch()};
  uint64_t num_entries_ TB_GUARDED_BY(mu_) = 0;
  size_t num_pages_ TB_GUARDED_BY(mu_) = 0;
  /// Lazily computed distinct/clustering metrics. The mutex makes the lazy
  /// fill safe under concurrent read-only planning (many threads build
  /// ConfigViews of the same built tree at once); writes invalidate under
  /// the same mutex so the annotations (and TSan) can prove the protocol.
  mutable Mutex cache_mu_;
  mutable uint64_t cached_distinct_ TB_GUARDED_BY(cache_mu_) = 0;
  mutable uint64_t cached_clustering_ TB_GUARDED_BY(cache_mu_) = 0;
  mutable bool cache_valid_ TB_GUARDED_BY(cache_mu_) = false;
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_BTREE_H_
