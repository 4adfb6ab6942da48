#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

#include "storage/btree.h"
#include "storage/page_store.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace tabbench {

/// Walks a tree's nodes directly to model an equality probe the way the
/// original linear separator scan did, so tests can pin the exact page
/// sequence (simulated I/O) a probe reports.
class BTreeTestPeer {
 public:
  /// Pages an equality probe for `key` touches, in order: the root-to-leaf
  /// descent into the first child whose range can hold `key` (the last
  /// separator strictly below it, found by a linear walk), then each further
  /// leaf the iterator reaches while entries still equal `key`.
  static std::vector<PageId> ReferenceProbeTouches(const BTree& tree,
                                                   const IndexKey& key) {
    std::vector<PageId> touches;
    const BTree::Node* node = tree.root_.get();
    for (;;) {
      touches.push_back(node->page_id);
      if (node->is_leaf) break;
      size_t i = 0;
      while (i < node->keys.size() && CompareKeys(node->keys[i], key) < 0) ++i;
      node = node->children[i].get();
    }
    size_t idx = 0;
    while (idx < node->keys.size() && CompareKeys(node->keys[idx], key) < 0) {
      ++idx;
    }
    for (;;) {
      for (; idx < node->keys.size(); ++idx) {
        if (CompareKeys(node->keys[idx], key) > 0) return touches;
      }
      node = node->next_leaf;
      if (node == nullptr) return touches;
      touches.push_back(node->page_id);
      idx = 0;
    }
  }

  /// Pages of the leaf chain, left to right.
  static std::vector<PageId> LeafPages(const BTree& tree) {
    const BTree::Node* node = tree.root_.get();
    while (!node->is_leaf) node = node->children.front().get();
    std::vector<PageId> pages;
    for (; node != nullptr; node = node->next_leaf) {
      pages.push_back(node->page_id);
    }
    return pages;
  }
};

namespace {

IndexKey IKey(int64_t a) { return {Value(a)}; }
IndexKey IKey2(int64_t a, int64_t b) { return {Value(a), Value(b)}; }

TEST(CompareKeysTest, Lexicographic) {
  EXPECT_LT(CompareKeys(IKey2(1, 5), IKey2(2, 0)), 0);
  EXPECT_GT(CompareKeys(IKey2(2, 0), IKey2(1, 9)), 0);
  EXPECT_EQ(CompareKeys(IKey2(3, 3), IKey2(3, 3)), 0);
}

TEST(CompareKeysTest, PrefixComparesShorterFirst) {
  EXPECT_LT(CompareKeys(IKey(1), IKey2(1, 0)), 0);
  EXPECT_GT(CompareKeys(IKey2(1, 0), IKey(1)), 0);
}

TEST(KeyHasPrefixTest, Basics) {
  EXPECT_TRUE(KeyHasPrefix(IKey2(4, 7), IKey(4)));
  EXPECT_FALSE(KeyHasPrefix(IKey2(4, 7), IKey(5)));
  EXPECT_FALSE(KeyHasPrefix(IKey(4), IKey2(4, 7)));
  EXPECT_TRUE(KeyHasPrefix(IKey2(4, 7), IKey2(4, 7)));
}

TEST(BTreeTest, EmptyTreeScans) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  EXPECT_FALSE(it.Next(&k, &r));
  EXPECT_EQ(tree.num_entries(), 0u);
}

TEST(BTreeTest, InsertAndScanSorted) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  Rng rng(1);
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    int64_t k = static_cast<int64_t>(rng.Uniform(100000));
    keys.push_back(k);
    ASSERT_TRUE(tree.Insert(IKey(k), Rid{static_cast<uint32_t>(i), 0}, nullptr).ok());
  }
  std::sort(keys.begin(), keys.end());
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  size_t i = 0;
  while (it.Next(&k, &r)) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(k[0].as_int(), keys[i]);
    ++i;
  }
  EXPECT_EQ(i, keys.size());
}

/// Probes every key in [lo, hi] and checks the matches (key `v` must
/// occur `count(v)` times) and the exact page sequence each probe reports.
template <typename CountFn>
void ExpectProbesMatchReference(const BTree& tree, int64_t lo, int64_t hi,
                                CountFn count) {
  for (int64_t v = lo; v <= hi; ++v) {
    std::vector<PageId> touches;
    auto it = tree.SeekPrefix(IKey(v),
                              [&touches](PageId id) { touches.push_back(id); });
    IndexKey k;
    Rid r;
    int64_t n = 0;
    while (it.Next(&k, &r)) {
      EXPECT_EQ(k[0].as_int(), v);
      ++n;
    }
    EXPECT_EQ(n, count(v)) << "key " << v;
    EXPECT_EQ(touches, BTreeTestPeer::ReferenceProbeTouches(tree, IKey(v)))
        << "key " << v;
  }
}

TEST(BTreeTest, SeekPrefixFindsAllDuplicates) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  // Value v occurs v times for v in 1..60.
  for (int64_t v = 1; v <= 60; ++v) {
    for (int64_t j = 0; j < v; ++j) {
      ASSERT_TRUE(tree.Insert(IKey(v),
                              Rid{static_cast<uint32_t>(v), static_cast<uint32_t>(j)},
                              nullptr)
                      .ok());
    }
  }
  ASSERT_GT(tree.height(), 1u);
  ExpectProbesMatchReference(tree, 0, 61, [](int64_t v) {
    return v >= 1 && v <= 60 ? v : int64_t{0};
  });

  // A bulk-built tree with the smallest fanout (8; leaves packed to 7), in
  // which every duplicate run spans at least 3 leaves, so equal separators
  // sit at every internal level.
  const int64_t kRun = 25;
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (int64_t v = 1; v <= 60; ++v) {
    for (int64_t j = 0; j < kRun; ++j) {
      entries.emplace_back(
          IKey(v), Rid{static_cast<uint32_t>(v), static_cast<uint32_t>(j)});
    }
  }
  BTree bulk("bulk", 1, /*key_width_bytes=*/4000, &store);
  bulk.BulkBuild(entries);
  ASSERT_EQ(bulk.leaf_fanout(), 8u);
  ASSERT_GE(bulk.height(), 3u);
  // Leaves per run: count the distinct leaves a full probe reaches.
  auto probe_leaves = [&bulk](int64_t v) {
    std::vector<PageId> leaves;
    std::vector<PageId> chain = BTreeTestPeer::LeafPages(bulk);
    auto it = bulk.SeekPrefix(IKey(v), [&](PageId id) {
      if (std::find(chain.begin(), chain.end(), id) != chain.end()) {
        leaves.push_back(id);
      }
    });
    IndexKey k;
    Rid r;
    while (it.Next(&k, &r)) {
    }
    return leaves.size();
  };
  for (int64_t v = 1; v <= 60; ++v) EXPECT_GE(probe_leaves(v), 3u) << v;
  ExpectProbesMatchReference(bulk, 0, 61, [kRun](int64_t v) {
    return v >= 1 && v <= 60 ? kRun : int64_t{0};
  });
}

TEST(BTreeTest, SeekPrefixMissingKeyYieldsNothing) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  for (int64_t v = 0; v < 100; v += 2) {
    ASSERT_TRUE(tree.Insert(IKey(v), Rid{0, static_cast<uint32_t>(v)}, nullptr).ok());
  }
  auto it = tree.SeekPrefix(IKey(51), nullptr);
  IndexKey k;
  Rid r;
  EXPECT_FALSE(it.Next(&k, &r));
}

TEST(BTreeTest, CompositePrefixSeek) {
  PageStore store;
  BTree tree("ix", 2, 16, &store);
  for (int64_t a = 0; a < 30; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      ASSERT_TRUE(tree.Insert(IKey2(a, b),
                              Rid{static_cast<uint32_t>(a), static_cast<uint32_t>(b)},
                              nullptr)
                      .ok());
    }
  }
  // Seek on the leading column only: all 10 b-values for a=17.
  auto it = tree.SeekPrefix(IKey(17), nullptr);
  IndexKey k;
  Rid r;
  int64_t expected_b = 0;
  while (it.Next(&k, &r)) {
    EXPECT_EQ(k[0].as_int(), 17);
    EXPECT_EQ(k[1].as_int(), expected_b++);
  }
  EXPECT_EQ(expected_b, 10);
  // Full-key seek: exactly one entry.
  auto it2 = tree.SeekPrefix(IKey2(3, 4), nullptr);
  int n = 0;
  while (it2.Next(&k, &r)) ++n;
  EXPECT_EQ(n, 1);
}

TEST(BTreeTest, BulkBuildMatchesInserts) {
  PageStore store;
  Rng rng(7);
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (uint32_t i = 0; i < 10000; ++i) {
    entries.emplace_back(IKey(static_cast<int64_t>(rng.Uniform(3000))),
                         Rid{i, 0});
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    int c = CompareKeys(a.first, b.first);
    if (c != 0) return c < 0;
    return a.second < b.second;
  });

  BTree bulk("bulk", 1, 8, &store);
  bulk.BulkBuild(entries);
  BTree incr("incr", 1, 8, &store);
  for (const auto& [k, r] : entries) ASSERT_TRUE(incr.Insert(k, r, nullptr).ok());

  EXPECT_EQ(bulk.num_entries(), incr.num_entries());
  EXPECT_EQ(bulk.num_distinct_keys(), incr.num_distinct_keys());

  auto bi = bulk.ScanAll(nullptr);
  auto ii = incr.ScanAll(nullptr);
  IndexKey bk, ik;
  Rid br, ir;
  while (true) {
    bool bmore = bi.Next(&bk, &br);
    bool imore = ii.Next(&ik, &ir);
    ASSERT_EQ(bmore, imore);
    if (!bmore) break;
    EXPECT_EQ(CompareKeys(bk, ik), 0);
  }
}

TEST(BTreeTest, HeightGrowsLogarithmically) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (uint32_t i = 0; i < 200000; ++i) {
    entries.emplace_back(IKey(static_cast<int64_t>(i)), Rid{i, 0});
  }
  tree.BulkBuild(std::move(entries));
  EXPECT_GE(tree.height(), 2u);
  EXPECT_LE(tree.height(), 4u);
  EXPECT_EQ(tree.num_entries(), 200000u);
}

TEST(BTreeTest, LeafPageCountTracksFanout) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (uint32_t i = 0; i < 50000; ++i) {
    entries.emplace_back(IKey(static_cast<int64_t>(i)), Rid{i, 0});
  }
  tree.BulkBuild(std::move(entries));
  double per_leaf =
      50000.0 / static_cast<double>(tree.num_leaf_pages());
  EXPECT_GT(per_leaf, 50.0);
  EXPECT_LT(per_leaf, 1000.0);
  EXPECT_GE(tree.num_pages(), tree.num_leaf_pages());
}

TEST(BTreeTest, ClusteringFactorDetectsCorrelation) {
  PageStore store;
  // Clustered: key order == heap order (few page switches).
  BTree clustered("c", 1, 8, &store);
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (uint32_t i = 0; i < 10000; ++i) {
    entries.emplace_back(IKey(static_cast<int64_t>(i)), Rid{i / 100, i % 100});
  }
  clustered.BulkBuild(entries);

  // Scattered: key order uncorrelated with heap pages.
  BTree scattered("s", 1, 8, &store);
  Rng rng(3);
  for (auto& [k, r] : entries) {
    r.page_ordinal = static_cast<uint32_t>(rng.Uniform(100));
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return CompareKeys(a.first, b.first) < 0;
  });
  scattered.BulkBuild(entries);

  EXPECT_LT(clustered.clustering_factor(), 200u);
  EXPECT_GT(scattered.clustering_factor(), 5000u);
}

TEST(BTreeTest, TouchReportsDescentPages) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (uint32_t i = 0; i < 100000; ++i) {
    entries.emplace_back(IKey(static_cast<int64_t>(i)), Rid{i, 0});
  }
  tree.BulkBuild(std::move(entries));
  size_t touched = 0;
  auto it = tree.SeekPrefix(IKey(54321), [&](PageId) { ++touched; });
  IndexKey k;
  Rid r;
  ASSERT_TRUE(it.Next(&k, &r));
  EXPECT_EQ(touched, tree.height());
}

TEST(BTreeTest, DropFreesAllPages) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(tree.Insert(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  EXPECT_GT(store.allocated_pages(), 0u);
  tree.Drop();
  EXPECT_EQ(store.allocated_pages(), 0u);
}

TEST(BTreeTest, StringKeys) {
  PageStore store;
  BTree tree("ix", 1, 20, &store);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert({Value("key" + std::to_string(i))},
                            Rid{static_cast<uint32_t>(i), 0}, nullptr)
                    .ok());
  }
  auto it = tree.SeekPrefix({Value(std::string("key500"))}, nullptr);
  IndexKey k;
  Rid r;
  ASSERT_TRUE(it.Next(&k, &r));
  EXPECT_EQ(k[0].as_string(), "key500");
  EXPECT_EQ(r.page_ordinal, 500u);
  EXPECT_FALSE(it.Next(&k, &r));
}

class BTreeSizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BTreeSizeSweep, OrderedAndComplete) {
  auto [n, dup] = GetParam();
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  Rng rng(static_cast<uint64_t>(n * 31 + dup));
  std::map<int64_t, int> expected;
  for (int i = 0; i < n; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
        std::max(1, n / dup))));
    ASSERT_TRUE(tree.Insert(IKey(key), Rid{static_cast<uint32_t>(i), 0}, nullptr).ok());
    expected[key]++;
  }
  // Scan is sorted and complete.
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  int64_t prev = -1;
  size_t total = 0;
  std::map<int64_t, int> seen;
  while (it.Next(&k, &r)) {
    EXPECT_GE(k[0].as_int(), prev);
    prev = k[0].as_int();
    seen[prev]++;
    ++total;
  }
  EXPECT_EQ(total, static_cast<size_t>(n));
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(tree.num_distinct_keys(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BTreeSizeSweep,
    ::testing::Combine(::testing::Values(10, 1000, 20000),
                       ::testing::Values(1, 4, 64)));

TEST(BTreeMutationTest, DeleteRemovesExactRidAmongDuplicates) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  for (uint32_t j = 0; j < 50; ++j) {
    ASSERT_TRUE(tree.Insert(IKey(7), Rid{j, 0}, nullptr).ok());
  }
  ASSERT_TRUE(tree.Delete(IKey(7), Rid{23, 0}, nullptr).ok());
  EXPECT_EQ(tree.num_entries(), 49u);
  auto it = tree.SeekPrefix(IKey(7), nullptr);
  IndexKey k;
  Rid r;
  while (it.Next(&k, &r)) EXPECT_NE(r.page_ordinal, 23u);
}

TEST(BTreeMutationTest, DeleteMissingIsNotFound) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  ASSERT_TRUE(tree.Insert(IKey(1), Rid{0, 0}, nullptr).ok());
  EXPECT_TRUE(tree.Delete(IKey(2), Rid{0, 0}, nullptr).IsNotFound());
  EXPECT_TRUE(tree.Delete(IKey(1), Rid{9, 9}, nullptr).IsNotFound());
  EXPECT_EQ(tree.num_entries(), 1u);
}

TEST(BTreeMutationTest, DeleteEverythingShrinksTreeToEmpty) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  const uint32_t n = 20000;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  size_t full_pages = tree.num_pages();
  EXPECT_GT(tree.height(), 1u);
  // Delete in an order uncorrelated with key order to exercise borrow and
  // merge on both siblings.
  Rng rng(11);
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (uint32_t i : order) {
    ASSERT_TRUE(tree.Delete(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  EXPECT_EQ(tree.num_entries(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_LT(tree.num_pages(), full_pages);
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  EXPECT_FALSE(it.Next(&k, &r));
}

TEST(BTreeMutationTest, InterleavedInsertDeleteStaysConsistent) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  Rng rng(29);
  std::multimap<int64_t, uint32_t> expected;
  uint32_t next_rid = 0;
  for (int round = 0; round < 30000; ++round) {
    if (expected.empty() || rng.Uniform(100) < 60) {
      int64_t key = static_cast<int64_t>(rng.Uniform(500));
      ASSERT_TRUE(tree.Insert(IKey(key), Rid{next_rid, 0}, nullptr).ok());
      expected.emplace(key, next_rid);
      ++next_rid;
    } else {
      auto victim = expected.begin();
      std::advance(victim,
                   static_cast<long>(rng.Uniform(expected.size())));
      ASSERT_TRUE(
          tree.Delete(IKey(victim->first), Rid{victim->second, 0}, nullptr).ok());
      expected.erase(victim);
    }
  }
  EXPECT_EQ(tree.num_entries(), expected.size());
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  std::multimap<int64_t, uint32_t> seen;
  int64_t prev = INT64_MIN;
  while (it.Next(&k, &r)) {
    EXPECT_GE(k[0].as_int(), prev);
    prev = k[0].as_int();
    seen.emplace(prev, r.page_ordinal);
  }
  EXPECT_EQ(seen, expected);
}

TEST(BTreeMutationTest, UpdateMovesEntry) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  ASSERT_TRUE(tree.Update(IKey(500), Rid{500, 0}, IKey(2000), Rid{1500, 0},
                          nullptr)
                  .ok());
  EXPECT_EQ(tree.num_entries(), 1000u);
  IndexKey k;
  Rid r;
  auto gone = tree.SeekPrefix(IKey(500), nullptr);
  EXPECT_FALSE(gone.Next(&k, &r));
  auto moved = tree.SeekPrefix(IKey(2000), nullptr);
  ASSERT_TRUE(moved.Next(&k, &r));
  EXPECT_EQ(r.page_ordinal, 1500u);
  // Updating a missing entry fails without touching the tree.
  EXPECT_TRUE(tree.Update(IKey(500), Rid{500, 0}, IKey(3000), Rid{1, 0},
                          nullptr)
                  .IsNotFound());
  EXPECT_EQ(tree.num_entries(), 1000u);
}

TEST(BTreeMutationTest, FingerprintTracksContentNotHistory) {
  PageStore store;
  // Same final content by two different mutation histories.
  BTree a("a", 1, 8, &store);
  BTree b("b", 1, 8, &store);
  for (uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(a.Insert(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  for (uint32_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(b.Insert(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  for (uint32_t i = 2000; i < 3000; ++i) {
    ASSERT_TRUE(b.Delete(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
  }
  // Insert-then-delete of the same entry must leave the fingerprint alone
  // (the kill-resume harness compares resumed vs. uninterrupted builds).
  uint64_t before = a.Fingerprint();
  ASSERT_TRUE(a.Insert(IKey(99999), Rid{7, 7}, nullptr).ok());
  ASSERT_TRUE(a.Delete(IKey(99999), Rid{7, 7}, nullptr).ok());
  EXPECT_EQ(a.Fingerprint(), before);
  EXPECT_NE(a.Fingerprint(), 0u);
  // a and b hold the same 2000 keys (page layouts may differ — the
  // fingerprint folds structure in, so we don't compare a to b): content
  // equality is what ScanAll says.
  auto ai = a.ScanAll(nullptr);
  auto bi = b.ScanAll(nullptr);
  IndexKey ak, bk;
  Rid ar, br;
  while (true) {
    bool am = ai.Next(&ak, &ar);
    bool bm = bi.Next(&bk, &br);
    ASSERT_EQ(am, bm);
    if (!am) break;
    EXPECT_EQ(CompareKeys(ak, bk), 0);
  }
}

TEST(BTreeMutationTest, FaultedMergeLeavesTreeUntouchedAndRetrySucceeds) {
  struct Disarm {
    ~Disarm() { FaultRegistry::Global().DisarmAll(); }
  } disarm;
  const uint32_t n = 4000;
  auto load = [&](BTree* tree) {
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          tree->Insert(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok());
    }
  };
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  load(&tree);
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromString("storage.btree_merge=unavailable@once")
                  .ok());
  // Deleting in key order underflows the leftmost leaf first.
  uint32_t faulted = n;
  for (uint32_t i = 0; i < n && faulted == n; ++i) {
    Status st = tree.Delete(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), Status::Code::kUnavailable);
      faulted = i;
    }
  }
  FaultRegistry::Global().DisarmAll();
  ASSERT_LT(faulted, n);

  // The faulted delete was a no-op: the entry is still there, the count
  // agrees with a scan, and the tree equals one that never saw the delete.
  EXPECT_EQ(tree.num_entries(), n - faulted);
  uint64_t scanned = 0;
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  while (it.Next(&k, &r)) ++scanned;
  EXPECT_EQ(scanned, n - faulted);
  BTree reference("ix", 1, 8, &store);
  load(&reference);
  for (uint32_t i = 0; i < faulted; ++i) {
    ASSERT_TRUE(reference.Delete(IKey(static_cast<int64_t>(i)), Rid{i, 0},
                                 nullptr)
                    .ok());
  }
  EXPECT_EQ(tree.Fingerprint(), reference.Fingerprint());

  // Retrying the same delete succeeds, and so does every later one.
  for (uint32_t i = faulted; i < n; ++i) {
    ASSERT_TRUE(
        tree.Delete(IKey(static_cast<int64_t>(i)), Rid{i, 0}, nullptr).ok())
        << i;
  }
  EXPECT_EQ(tree.num_entries(), 0u);
}

TEST(BTreeMutationTest, EveryMutatorRenewsTheContentEpoch) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  BTree other("ix", 1, 8, &store);
  EXPECT_NE(tree.content_epoch(), other.content_epoch());
  uint64_t last = tree.content_epoch();
  auto renewed = [&] {
    uint64_t now = tree.content_epoch();
    bool changed = now != last;
    last = now;
    return changed;
  };
  ASSERT_TRUE(tree.Insert(IKey(1), Rid{1, 0}, nullptr).ok());
  EXPECT_TRUE(renewed());
  ASSERT_TRUE(tree.Update(IKey(1), Rid{1, 0}, IKey(2), Rid{2, 0}, nullptr).ok());
  EXPECT_TRUE(renewed());
  ASSERT_TRUE(tree.Delete(IKey(2), Rid{2, 0}, nullptr).ok());
  EXPECT_TRUE(renewed());
  // A failed mutation renews it too: the epoch is taken before any change.
  EXPECT_TRUE(tree.Delete(IKey(2), Rid{2, 0}, nullptr).IsNotFound());
  EXPECT_TRUE(renewed());
  tree.BulkBuild({{IKey(5), Rid{5, 0}}});
  EXPECT_TRUE(renewed());
  // Reads leave it alone.
  auto it = tree.ScanAll(nullptr);
  IndexKey k;
  Rid r;
  while (it.Next(&k, &r)) {
  }
  EXPECT_EQ(tree.num_entries(), 1u);
  EXPECT_FALSE(renewed());
  tree.Drop();
  EXPECT_TRUE(renewed());
}

}  // namespace
}  // namespace tabbench
