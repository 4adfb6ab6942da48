#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32c.h"
#include "util/fault_injection.h"

namespace tabbench {

int CompareKeys(const IndexKey& a, const IndexKey& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool KeyHasPrefix(const IndexKey& key, const IndexKey& prefix) {
  if (prefix.size() > key.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (key[i] != prefix[i]) return false;
  }
  return true;
}

BTree::BTree(std::string name, size_t num_key_columns, size_t key_width_bytes,
             PageStore* store)
    : name_(std::move(name)),
      num_key_columns_(num_key_columns),
      store_(store) {
  const size_t entry_bytes = std::max<size_t>(key_width_bytes, 4) + 8;
  leaf_capacity_ = std::max<size_t>(8, (kPageSize - 64) / entry_bytes);
  internal_capacity_ =
      std::max<size_t>(8, (kPageSize - 64) / (std::max<size_t>(key_width_bytes, 4) + 8));
  MutexLock lock(&mu_);
  root_ = MakeNode(/*leaf=*/true);
}

BTree::~BTree() { Drop(); }

size_t BTree::MinFill(bool leaf) const {
  return leaf ? std::max<size_t>(1, leaf_capacity_ / 4)
              : std::max<size_t>(2, internal_capacity_ / 4);
}

std::unique_ptr<BTree::Node> BTree::MakeNode(bool leaf) {
  auto n = std::make_unique<Node>();
  n->is_leaf = leaf;
  n->page_id = store_->Allocate();
  ++num_pages_;
  return n;
}

void BTree::FreeNode(Node* node) {
  store_->Free(node->page_id);
  --num_pages_;
}

BTree::Node* BTree::FindLeaf(const IndexKey& prefix,
                             const PageTouchFn& touch) const {
  // Once per descent; latched (util/fault_injection.h).
  TB_FAULT_TRIGGER("storage.btree_descend");
  Node* node = root_.get();
  for (;;) {
    if (touch) touch(node->page_id);
    if (node->is_leaf) return node;
    // Descend to the first child that can contain `prefix`: the last
    // separator strictly below it. Strictness matters for duplicates — when
    // a run of equal keys straddles two leaves the separator equals the key,
    // and a non-strict comparison would skip the left part of the run. The
    // iterator walks rightward through the leaf chain from here.
    // Separators are sorted, so that child is the partition point of
    // "separator < prefix" (a binary search, same child as a linear walk).
    auto sep = std::partition_point(
        node->keys.begin(), node->keys.end(),
        [&prefix](const IndexKey& k) { return CompareKeys(k, prefix) < 0; });
    node = node->children[static_cast<size_t>(sep - node->keys.begin())].get();
  }
}

Status BTree::Insert(const IndexKey& key, const Rid& rid,
                     const PageTouchFn& touch) {
  MutexLock lock(&mu_);
  RenewEpoch();
  return InsertLocked(key, rid, touch);
}

Status BTree::InsertLocked(const IndexKey& key, const Rid& rid,
                           const PageTouchFn& touch) {
  assert(key.size() == num_key_columns_);
  TB_FAULT_POINT("storage.btree_insert");
  IndexKey split_key;
  std::unique_ptr<Node> split_node;
  TB_RETURN_IF_ERROR(
      InsertRec(root_.get(), key, rid, touch, &split_key, &split_node));
  if (split_node != nullptr) {
    auto new_root = MakeNode(/*leaf=*/false);
    new_root->keys.push_back(std::move(split_key));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split_node));
    root_ = std::move(new_root);
    if (touch) touch(root_->page_id);
  }
  ++num_entries_;
  InvalidateStatsCache();
  return Status::OK();
}

Status BTree::InsertRec(Node* node, const IndexKey& key, const Rid& rid,
                        const PageTouchFn& touch, IndexKey* split_key,
                        std::unique_ptr<Node>* split_node) {
  if (touch) touch(node->page_id);
  if (node->is_leaf) {
    // Any split cascade starts with a full leaf; fire the fault before the
    // entry lands so an injected split failure leaves the tree untouched.
    if (node->keys.size() >= leaf_capacity_) {
      TB_FAULT_POINT("storage.btree_split");
    }
    auto it = std::upper_bound(
        node->keys.begin(), node->keys.end(), key,
        [](const IndexKey& a, const IndexKey& b) { return CompareKeys(a, b) < 0; });
    size_t pos = static_cast<size_t>(it - node->keys.begin());
    node->keys.insert(it, key);
    node->rids.insert(node->rids.begin() + static_cast<long>(pos), rid);
    if (node->keys.size() > leaf_capacity_) {
      // Split: move the upper half into a new right sibling.
      size_t mid = node->keys.size() / 2;
      auto right = MakeNode(/*leaf=*/true);
      right->keys.assign(node->keys.begin() + static_cast<long>(mid),
                         node->keys.end());
      right->rids.assign(node->rids.begin() + static_cast<long>(mid),
                         node->rids.end());
      node->keys.resize(mid);
      node->rids.resize(mid);
      right->next_leaf = node->next_leaf;
      node->next_leaf = right.get();
      *split_key = right->keys.front();
      if (touch) touch(right->page_id);
      *split_node = std::move(right);
    }
    return Status::OK();
  }
  size_t i = 0;
  while (i < node->keys.size() && CompareKeys(node->keys[i], key) <= 0) ++i;
  IndexKey child_split_key;
  std::unique_ptr<Node> child_split;
  TB_RETURN_IF_ERROR(InsertRec(node->children[i].get(), key, rid, touch,
                               &child_split_key, &child_split));
  if (child_split != nullptr) {
    node->keys.insert(node->keys.begin() + static_cast<long>(i),
                      std::move(child_split_key));
    node->children.insert(node->children.begin() + static_cast<long>(i) + 1,
                          std::move(child_split));
    if (node->keys.size() > internal_capacity_) {
      size_t mid = node->keys.size() / 2;
      auto right = MakeNode(/*leaf=*/false);
      *split_key = node->keys[mid];
      right->keys.assign(node->keys.begin() + static_cast<long>(mid) + 1,
                         node->keys.end());
      for (size_t c = mid + 1; c < node->children.size(); ++c) {
        right->children.push_back(std::move(node->children[c]));
      }
      node->keys.resize(mid);
      node->children.resize(mid + 1);
      if (touch) touch(right->page_id);
      *split_node = std::move(right);
    }
  }
  return Status::OK();
}

Status BTree::Delete(const IndexKey& key, const Rid& rid,
                     const PageTouchFn& touch) {
  MutexLock lock(&mu_);
  RenewEpoch();
  return DeleteLocked(key, rid, touch);
}

Status BTree::DeleteLocked(const IndexKey& key, const Rid& rid,
                           const PageTouchFn& touch) {
  assert(key.size() == num_key_columns_);
  TB_FAULT_POINT("storage.btree_delete");
  bool found = false;
  TB_RETURN_IF_ERROR(DeleteRec(root_.get(), key, rid, touch, &found));
  if (!found) {
    return Status::NotFound("no entry for key in index " + name_);
  }
  // Collapse a single-child root chain so height() reflects the shrink.
  while (!root_->is_leaf && root_->children.size() == 1) {
    auto child = std::move(root_->children.front());
    FreeNode(root_.get());
    root_ = std::move(child);
    if (touch) touch(root_->page_id);
  }
  --num_entries_;
  InvalidateStatsCache();
  return Status::OK();
}

Status BTree::DeleteRec(Node* node, const IndexKey& key, const Rid& rid,
                        const PageTouchFn& touch, bool* found) {
  if (touch) touch(node->page_id);
  if (node->is_leaf) {
    auto it = std::lower_bound(
        node->keys.begin(), node->keys.end(), key,
        [](const IndexKey& a, const IndexKey& b) { return CompareKeys(a, b) < 0; });
    size_t i = static_cast<size_t>(it - node->keys.begin());
    while (i < node->keys.size() && CompareKeys(node->keys[i], key) == 0) {
      if (node->rids[i] == rid) {
        // Every rebalance cascade starts with this leaf underflowing, so
        // the merge fault fires here, before the erase: an injected failure
        // leaves the tree and its entry count untouched, and a retry of the
        // same delete succeeds.
        if (node != root_.get() &&
            node->keys.size() <= MinFill(/*leaf=*/true)) {
          TB_FAULT_POINT("storage.btree_merge");
        }
        node->keys.erase(node->keys.begin() + static_cast<long>(i));
        node->rids.erase(node->rids.begin() + static_cast<long>(i));
        *found = true;
        return Status::OK();
      }
      ++i;
    }
    return Status::OK();
  }
  // First child that can contain `key` (same strict descent as FindLeaf);
  // with duplicates the run may straddle equal separators, so on a miss keep
  // walking right while the separator still equals the key.
  size_t i = 0;
  while (i < node->keys.size() && CompareKeys(node->keys[i], key) < 0) ++i;
  for (;;) {
    TB_RETURN_IF_ERROR(DeleteRec(node->children[i].get(), key, rid, touch,
                                 found));
    if (*found) {
      RebalanceChild(node, i, touch);
      return Status::OK();
    }
    if (i < node->keys.size() && CompareKeys(node->keys[i], key) == 0) {
      ++i;
      continue;
    }
    return Status::OK();
  }
}

void BTree::RebalanceChild(Node* parent, size_t i, const PageTouchFn& touch) {
  Node* child = parent->children[i].get();
  const bool leaf = child->is_leaf;
  const size_t min_fill = MinFill(leaf);
  const size_t size = leaf ? child->keys.size() : child->children.size();
  if (size >= min_fill) return;
  // The `storage.btree_merge` fault point already fired in DeleteRec,
  // before the leaf erase that started this cascade: once begun, a
  // rebalance always completes.
  Node* left = i > 0 ? parent->children[i - 1].get() : nullptr;
  Node* right =
      i + 1 < parent->children.size() ? parent->children[i + 1].get() : nullptr;
  auto spare = [&](const Node* n) {
    return (leaf ? n->keys.size() : n->children.size()) > min_fill;
  };
  if (left != nullptr && spare(left)) {
    // Borrow the largest entry of the left sibling.
    if (touch) touch(left->page_id);
    if (leaf) {
      child->keys.insert(child->keys.begin(), std::move(left->keys.back()));
      child->rids.insert(child->rids.begin(), left->rids.back());
      left->keys.pop_back();
      left->rids.pop_back();
      parent->keys[i - 1] = child->keys.front();
    } else {
      child->children.insert(child->children.begin(),
                             std::move(left->children.back()));
      child->keys.insert(child->keys.begin(), std::move(parent->keys[i - 1]));
      parent->keys[i - 1] = std::move(left->keys.back());
      left->keys.pop_back();
      left->children.pop_back();
    }
    return;
  }
  if (right != nullptr && spare(right)) {
    // Borrow the smallest entry of the right sibling.
    if (touch) touch(right->page_id);
    if (leaf) {
      child->keys.push_back(std::move(right->keys.front()));
      child->rids.push_back(right->rids.front());
      right->keys.erase(right->keys.begin());
      right->rids.erase(right->rids.begin());
      parent->keys[i] = right->keys.front();
    } else {
      child->keys.push_back(std::move(parent->keys[i]));
      child->children.push_back(std::move(right->children.front()));
      parent->keys[i] = std::move(right->keys.front());
      right->keys.erase(right->keys.begin());
      right->children.erase(right->children.begin());
    }
    return;
  }
  // No sibling has spare entries: merge. Both neighbors are at (or below)
  // min_fill, so the combined node fits well under capacity.
  auto merge_into = [&](Node* dst, size_t dst_idx) {
    // Absorbs children_[dst_idx + 1] into dst (its left neighbor).
    Node* src = parent->children[dst_idx + 1].get();
    if (touch) touch(dst->page_id);
    if (leaf) {
      for (size_t k = 0; k < src->keys.size(); ++k) {
        dst->keys.push_back(std::move(src->keys[k]));
        dst->rids.push_back(src->rids[k]);
      }
      dst->next_leaf = src->next_leaf;
    } else {
      dst->keys.push_back(std::move(parent->keys[dst_idx]));
      for (auto& k : src->keys) dst->keys.push_back(std::move(k));
      for (auto& c : src->children) dst->children.push_back(std::move(c));
    }
    FreeNode(src);
    parent->keys.erase(parent->keys.begin() + static_cast<long>(dst_idx));
    parent->children.erase(parent->children.begin() +
                           static_cast<long>(dst_idx) + 1);
  };
  if (left != nullptr) {
    merge_into(left, i - 1);
  } else if (right != nullptr) {
    merge_into(child, i);
  }
  // A root with a single child is collapsed by DeleteLocked; any other
  // parent underflow is repaired one level up by our caller.
}

Status BTree::Update(const IndexKey& old_key, const Rid& old_rid,
                     const IndexKey& new_key, const Rid& new_rid,
                     const PageTouchFn& touch) {
  MutexLock lock(&mu_);
  RenewEpoch();
  TB_FAULT_POINT("storage.btree_update");
  TB_RETURN_IF_ERROR(DeleteLocked(old_key, old_rid, touch));
  return InsertLocked(new_key, new_rid, touch);
}

void BTree::BulkBuild(std::vector<std::pair<IndexKey, Rid>> sorted_entries) {
  MutexLock lock(&mu_);
  RenewEpoch();
  // Rebuild from scratch: pack leaves to ~90% fill, then stack internals.
  DropLocked();
  num_entries_ = sorted_entries.size();
  const size_t leaf_fill = std::max<size_t>(4, leaf_capacity_ * 9 / 10);

  std::vector<std::unique_ptr<Node>> level;
  Node* prev_leaf = nullptr;
  for (size_t i = 0; i < sorted_entries.size();) {
    auto leaf = MakeNode(/*leaf=*/true);
    size_t end = std::min(i + leaf_fill, sorted_entries.size());
    for (size_t j = i; j < end; ++j) {
      leaf->keys.push_back(std::move(sorted_entries[j].first));
      leaf->rids.push_back(sorted_entries[j].second);
    }
    if (prev_leaf != nullptr) prev_leaf->next_leaf = leaf.get();
    prev_leaf = leaf.get();
    level.push_back(std::move(leaf));
    i = end;
  }
  if (level.empty()) {
    root_ = MakeNode(/*leaf=*/true);
    return;
  }
  const size_t internal_fill = std::max<size_t>(4, internal_capacity_ * 9 / 10);
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> parents;
    for (size_t i = 0; i < level.size();) {
      auto parent = MakeNode(/*leaf=*/false);
      size_t end = std::min(i + internal_fill + 1, level.size());
      for (size_t j = i; j < end; ++j) {
        if (j > i) {
          // Separator: smallest key under this child.
          Node* c = level[j].get();
          while (!c->is_leaf) c = c->children.front().get();
          parent->keys.push_back(c->keys.front());
        }
        parent->children.push_back(std::move(level[j]));
      }
      parents.push_back(std::move(parent));
      i = end;
    }
    level = std::move(parents);
  }
  root_ = std::move(level.front());
}

BTree::Iterator BTree::SeekPrefix(const IndexKey& prefix,
                                  const PageTouchFn& touch) const {
  Iterator it;
  it.tree_ = this;
  it.prefix_ = prefix;
  it.touch_ = touch;
  Node* leaf = FindLeaf(prefix, touch);
  it.leaf_ = leaf;
  it.touched_current_ = true;  // FindLeaf already reported this leaf.
  // Position at the first entry >= prefix within the leaf.
  auto pos = std::lower_bound(
      leaf->keys.begin(), leaf->keys.end(), prefix,
      [](const IndexKey& a, const IndexKey& b) { return CompareKeys(a, b) < 0; });
  it.idx_ = static_cast<size_t>(pos - leaf->keys.begin());
  return it;
}

BTree::Iterator BTree::ScanAll(const PageTouchFn& touch) const {
  Iterator it;
  it.tree_ = this;
  it.touch_ = touch;
  Node* node = root_.get();
  for (;;) {
    if (touch) touch(node->page_id);
    if (node->is_leaf) break;
    node = node->children.front().get();
  }
  it.leaf_ = node;
  it.idx_ = 0;
  it.touched_current_ = true;
  return it;
}

bool BTree::Iterator::Next(IndexKey* key, Rid* rid) {
  const IndexKey* k = NextKey(rid);
  if (k == nullptr) return false;
  if (key != nullptr) *key = *k;
  return true;
}

const IndexKey* BTree::Iterator::NextKey(Rid* rid) {
  const Node* leaf = static_cast<const Node*>(leaf_);
  for (;;) {
    if (leaf == nullptr) return nullptr;
    if (!touched_current_) {
      if (touch_) touch_(leaf->page_id);
      touched_current_ = true;
    }
    if (idx_ < leaf->keys.size()) {
      const IndexKey& k = leaf->keys[idx_];
      if (!prefix_.empty()) {
        if (!KeyHasPrefix(k, prefix_)) {
          // Entries are sorted; once past the prefix range we are done.
          if (CompareKeys(k, prefix_) > 0) return nullptr;
          ++idx_;
          continue;
        }
      }
      *rid = leaf->rids[idx_];
      ++idx_;
      return &k;
    }
    leaf = leaf->next_leaf;
    leaf_ = leaf;
    idx_ = 0;
    touched_current_ = false;
  }
}

void BTree::FillStatsCache() const {
  if (cache_valid_) return;
  // Single leaf-chain walk computes both cached metrics.
  uint64_t distinct = 0, clustering = 0;
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  const IndexKey* prev_key = nullptr;
  const Rid* prev_rid = nullptr;
  for (const Node* leaf = node; leaf != nullptr; leaf = leaf->next_leaf) {
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      if (prev_key == nullptr || CompareKeys(*prev_key, leaf->keys[i]) != 0) {
        ++distinct;
      }
      if (prev_rid == nullptr ||
          prev_rid->page_ordinal != leaf->rids[i].page_ordinal) {
        ++clustering;
      }
      prev_key = &leaf->keys[i];
      prev_rid = &leaf->rids[i];
    }
  }
  cached_distinct_ = distinct;
  cached_clustering_ = clustering;
  cache_valid_ = true;
}

void BTree::InvalidateStatsCache() {
  MutexLock lock(&cache_mu_);
  cache_valid_ = false;
}

uint64_t BTree::num_distinct_keys() const {
  MutexLock lock(&cache_mu_);
  FillStatsCache();
  return cached_distinct_;
}

uint64_t BTree::clustering_factor() const {
  MutexLock lock(&cache_mu_);
  FillStatsCache();
  return cached_clustering_;
}

uint64_t BTree::num_entries() const {
  MutexLock lock(&mu_);
  return num_entries_;
}

size_t BTree::num_pages() const {
  MutexLock lock(&mu_);
  return num_pages_;
}

size_t BTree::height() const {
  size_t h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ++h;
    node = node->children.front().get();
  }
  return h;
}

size_t BTree::num_leaf_pages() const {
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  size_t n = 0;
  for (const Node* leaf = node; leaf != nullptr; leaf = leaf->next_leaf) ++n;
  return n;
}

uint64_t BTree::Fingerprint() const {
  MutexLock lock(&mu_);
  uint32_t crc = 0;
  auto mix64 = [&crc](uint64_t v) {
    uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    crc = Crc32cExtend(crc, buf, 8);
  };
  // Shape first: two trees with identical content but different packing
  // (incremental inserts vs a bulk build) must not collide.
  mix64(static_cast<uint64_t>(height()));
  mix64(static_cast<uint64_t>(num_pages_));
  mix64(num_entries_);
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  for (const Node* leaf = node; leaf != nullptr; leaf = leaf->next_leaf) {
    mix64(static_cast<uint64_t>(leaf->keys.size()));
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      for (const Value& v : leaf->keys[i]) {
        const std::string s = v.ToString();
        crc = Crc32cExtend(crc, s.data(), s.size());
        crc = Crc32cExtend(crc, "\x1f", 1);
      }
      mix64((static_cast<uint64_t>(leaf->rids[i].page_ordinal) << 32) |
            leaf->rids[i].slot);
    }
  }
  return (static_cast<uint64_t>(crc) << 32) | Crc32cExtend(crc, "fp", 2);
}

void BTree::Drop() {
  MutexLock lock(&mu_);
  RenewEpoch();
  DropLocked();
}

void BTree::DropLocked() {
  // Free pages via a post-order traversal.
  if (root_ == nullptr) return;
  std::vector<Node*> stack{root_.get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    store_->Free(n->page_id);
    for (auto& c : n->children) stack.push_back(c.get());
  }
  root_.reset();
  num_pages_ = 0;
  num_entries_ = 0;
  InvalidateStatsCache();
}

}  // namespace tabbench
