#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "storage/tuple_codec.h"
#include "test_util.h"
#include "util/rng.h"

namespace tabbench {
namespace {

// --------------------------------------------------------------- PageStore

TEST(PageStoreTest, AllocateAndGet) {
  PageStore s;
  PageId a = s.Allocate();
  PageId b = s.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(s.allocated_pages(), 2u);
  s.GetPage(a)->used = 17;
  EXPECT_EQ(s.GetPage(a)->used, 17u);
}

TEST(PageStoreTest, FreeReducesLiveCountAndNeverReusesIds) {
  PageStore s;
  PageId a = s.Allocate();
  s.Free(a);
  EXPECT_EQ(s.allocated_pages(), 0u);
  PageId b = s.Allocate();
  EXPECT_NE(a, b);
}

TEST(PageStoreTest, DoubleFreeIsHarmless) {
  PageStore s;
  PageId a = s.Allocate();
  s.Free(a);
  s.Free(a);
  EXPECT_EQ(s.allocated_pages(), 0u);
}

// -------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, MissThenHit) {
  BufferPool p(4);
  EXPECT_FALSE(p.Touch(1));
  EXPECT_TRUE(p.Touch(1));
  EXPECT_EQ(p.misses(), 1u);
  EXPECT_EQ(p.hits(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool p(2);
  p.Touch(1);
  p.Touch(2);
  p.Touch(1);      // 1 is now MRU
  p.Touch(3);      // evicts 2
  EXPECT_TRUE(p.Touch(1));
  EXPECT_FALSE(p.Touch(2));  // was evicted
}

TEST(BufferPoolTest, CapacityRespected) {
  BufferPool p(8);
  for (PageId i = 0; i < 100; ++i) p.Touch(i);
  EXPECT_EQ(p.resident(), 8u);
}

TEST(BufferPoolTest, SequentialScanLargerThanPoolAlwaysMisses) {
  // Classic LRU sequential-flooding: a repeated scan of N+1 pages through
  // an N-page pool never hits.
  BufferPool p(4);
  for (int round = 0; round < 3; ++round) {
    for (PageId i = 0; i < 5; ++i) p.Touch(i);
  }
  EXPECT_EQ(p.hits(), 0u);
  EXPECT_EQ(p.misses(), 15u);
}

TEST(BufferPoolTest, ClearForgetsEverything) {
  BufferPool p(4);
  p.Touch(1);
  p.Clear();
  EXPECT_EQ(p.resident(), 0u);
  EXPECT_FALSE(p.Touch(1));
}

TEST(BufferPoolTest, EvictSpecificPage) {
  BufferPool p(4);
  p.Touch(1);
  p.Touch(2);
  p.Evict(1);
  EXPECT_EQ(p.resident(), 1u);
  EXPECT_FALSE(p.Touch(1));
  // Evicting an absent page is a no-op.
  p.Evict(99);
}

TEST(BufferPoolTest, ZeroCapacityClampsToOne) {
  BufferPool p(0);
  EXPECT_EQ(p.capacity(), 1u);
  p.Touch(1);
  EXPECT_TRUE(p.Touch(1));
}

TEST(BufferPoolTest, ClearResetsCounters) {
  // A cleared pool starts a fresh accounting epoch: hit/miss counters from
  // before the clear would otherwise leak one workload's ratio into the
  // next cold-start run.
  BufferPool p(4);
  p.Touch(1);
  p.Touch(1);
  ASSERT_EQ(p.stats().accesses(), 2u);
  p.Clear();
  EXPECT_EQ(p.hits(), 0u);
  EXPECT_EQ(p.misses(), 0u);
  EXPECT_DOUBLE_EQ(p.stats().HitRatio(), 0.0);
}

TEST(BufferPoolTest, StatsSnapshotAndHitRatio) {
  BufferPool p(4);
  EXPECT_DOUBLE_EQ(p.stats().HitRatio(), 0.0);  // no accesses yet
  p.Touch(1);  // miss
  p.Touch(1);  // hit
  p.Touch(2);  // miss
  p.Touch(1);  // hit
  BufferPoolStats s = p.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.capacity, 4u);
  EXPECT_DOUBLE_EQ(s.HitRatio(), 0.5);
}

TEST(BufferPoolTest, HitRatioAccountingPinnedAcrossShrink) {
  BufferPool p(4);
  for (PageId i = 0; i < 4; ++i) p.Touch(i);  // 4 misses, pool full
  for (PageId i = 0; i < 4; ++i) p.Touch(i);  // 4 hits
  ASSERT_DOUBLE_EQ(p.stats().HitRatio(), 0.5);

  // Shrinking evicts LRU pages but must not rewrite accounting history:
  // counters describe accesses, not residency.
  p.SetCapacity(2);
  EXPECT_EQ(p.resident(), 2u);
  BufferPoolStats s = p.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_DOUBLE_EQ(s.HitRatio(), 0.5);

  // The 2 MRU pages (2, 3) survived the shrink; 0 and 1 were evicted.
  EXPECT_TRUE(p.Touch(3));
  EXPECT_TRUE(p.Touch(2));
  EXPECT_FALSE(p.Touch(0));
  EXPECT_FALSE(p.Touch(1));
  EXPECT_DOUBLE_EQ(p.stats().HitRatio(), 0.5);  // 6 hits / 12 accesses
}

// -------------------------------------------------------------- TupleCodec

TEST(TupleCodecTest, RoundTripAllTypes) {
  TupleCodec codec({TypeId::kInt, TypeId::kDouble, TypeId::kString});
  Tuple t({Value(int64_t{-12345}), Value(3.75), Value(std::string("héllo"))});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  size_t off = 0;
  Tuple back = codec.Decode(buf.data(), &off);
  EXPECT_EQ(back, t);
  EXPECT_EQ(off, buf.size());
}

TEST(TupleCodecTest, RoundTripNulls) {
  TupleCodec codec({TypeId::kInt, TypeId::kString});
  Tuple t({Value(), Value()});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  size_t off = 0;
  Tuple back = codec.Decode(buf.data(), &off);
  EXPECT_TRUE(back.at(0).is_null());
  EXPECT_TRUE(back.at(1).is_null());
}

TEST(TupleCodecTest, EncodedSizeMatchesEncoding) {
  TupleCodec codec({TypeId::kInt, TypeId::kString, TypeId::kDouble});
  Tuple t({Value(int64_t{1}), Value(std::string("abcdef")), Value()});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  EXPECT_EQ(codec.EncodedSize(t), buf.size());
}

TEST(TupleCodecTest, BackToBackDecoding) {
  TupleCodec codec({TypeId::kInt});
  std::vector<uint8_t> buf;
  for (int64_t i = 0; i < 10; ++i) {
    codec.Encode(Tuple({Value(i)}), &buf);
  }
  size_t off = 0;
  for (int64_t i = 0; i < 10; ++i) {
    Tuple t = codec.Decode(buf.data(), &off);
    EXPECT_EQ(t.at(0).as_int(), i);
  }
}

class CodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzz, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  TupleCodec codec({TypeId::kInt, TypeId::kDouble, TypeId::kString,
                    TypeId::kInt});
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<Value> vals;
    vals.push_back(rng.Bernoulli(0.1)
                       ? Value()
                       : Value(static_cast<int64_t>(rng.Next())));
    vals.push_back(rng.Bernoulli(0.1) ? Value() : Value(rng.UniformDouble()));
    std::string s;
    for (size_t i = 0; i < rng.Uniform(40); ++i) {
      s += static_cast<char>('a' + rng.Uniform(26));
    }
    vals.push_back(Value(s));
    vals.push_back(Value(static_cast<int64_t>(rng.Uniform(100))));
    Tuple t(std::move(vals));
    std::vector<uint8_t> buf;
    codec.Encode(t, &buf);
    size_t off = 0;
    EXPECT_EQ(codec.Decode(buf.data(), &off), t);
  }
}

// One tuple decoded into row after row must always equal a fresh Decode:
// string columns cycle long -> short -> NULL -> long (growing, shrinking,
// dropping and re-creating their buffers) while the other columns flip
// between NULL and present at random, and the buffer starts out with the
// wrong arity and types. A column read in place (TupleCodec::Column) must
// be the encoded value, with its type and NULL tag.
TEST_P(CodecFuzz, DecodeIntoReusedTupleMatchesFreshDecode) {
  Rng rng(GetParam());
  TupleCodec codec({TypeId::kString, TypeId::kInt, TypeId::kString,
                    TypeId::kDouble});
  auto random_string = [&rng](size_t min_len, size_t max_len) {
    std::string s(min_len + rng.Uniform(max_len - min_len + 1), ' ');
    for (char& c : s) c = static_cast<char>('a' + rng.Uniform(26));
    return s;
  };
  auto string_value = [&](int phase) {
    switch (phase % 4) {
      case 1:
        return Value(random_string(0, 4));
      case 2:
        return Value();
      default:
        return Value(random_string(100, 300));
    }
  };
  Tuple reused({Value(3.5), Value(std::string(500, 'z')), Value(),
                Value(int64_t{7}), Value(std::string("extra")), Value()});
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Value> vals;
    vals.push_back(string_value(iter));
    vals.push_back(rng.Bernoulli(0.3)
                       ? Value()
                       : Value(static_cast<int64_t>(rng.Next())));
    vals.push_back(string_value(iter + static_cast<int>(rng.Uniform(4))));
    vals.push_back(rng.Bernoulli(0.3) ? Value() : Value(rng.UniformDouble()));
    Tuple t(std::move(vals));
    std::vector<uint8_t> buf;
    codec.Encode(t, &buf);
    size_t fresh_off = 0;
    Tuple fresh = codec.Decode(buf.data(), &fresh_off);
    size_t off = 0;
    codec.DecodeInto(buf.data(), &off, &reused);
    ASSERT_EQ(reused, fresh) << "iter " << iter;
    ASSERT_EQ(reused, t) << "iter " << iter;
    EXPECT_EQ(off, fresh_off);
    EXPECT_EQ(off, buf.size());
    for (size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(reused.at(i).is_null(), t.at(i).is_null()) << iter << "/" << i;
    }
    // Each column read in place, in a random order, is the encoded value.
    for (int k = 0; k < 4; ++k) {
      const size_t i = rng.Uniform(t.size());
      const ColumnView v = codec.Column(buf.data(), i);
      EXPECT_EQ(v.type, codec.types()[i]) << iter << "/" << i;
      EXPECT_EQ(v.null, t.at(i).is_null()) << iter << "/" << i;
      EXPECT_EQ(v.ToValue(), t.at(i)) << iter << "/" << i;
      EXPECT_TRUE(v == ColumnView::Of(t.at(i))) << iter << "/" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------- HeapTable

TEST(HeapTableTest, AppendAndScan) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t i = 0; i < 100; ++i) heap.Append(Tuple({Value(i)}));
  EXPECT_EQ(heap.num_rows(), 100u);

  auto cur = heap.Scan(nullptr);
  Tuple t;
  int64_t expected = 0;
  while (cur.Next(&t, nullptr)) {
    EXPECT_EQ(t.at(0).as_int(), expected++);
  }
  EXPECT_EQ(expected, 100);
}

TEST(HeapTableTest, EveryMutatorRenewsTheContentEpoch) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  HeapTable other("t", TupleCodec({TypeId::kInt}), &store);
  EXPECT_NE(heap.content_epoch(), other.content_epoch());
  uint64_t last = heap.content_epoch();
  auto renewed = [&] {
    uint64_t now = heap.content_epoch();
    bool changed = now != last;
    last = now;
    return changed;
  };
  Rid rid = heap.Append(Tuple({Value(int64_t{1})}));
  EXPECT_TRUE(renewed());
  ASSERT_TRUE(heap.Insert(Tuple({Value(int64_t{2})}), nullptr).ok());
  EXPECT_TRUE(renewed());
  ASSERT_TRUE(heap.Delete(rid, nullptr).ok());
  EXPECT_TRUE(renewed());
  // A failed mutation renews it too: the epoch is taken before any change.
  EXPECT_TRUE(heap.Delete(rid, nullptr).IsNotFound());
  EXPECT_TRUE(renewed());
  heap.Drop();
  EXPECT_TRUE(renewed());
  // Reads leave it alone.
  auto cur = heap.Scan(nullptr);
  Tuple t;
  while (cur.Next(&t, nullptr)) {
  }
  EXPECT_FALSE(heap.Fetch(rid, nullptr).ok());
  EXPECT_FALSE(renewed());
}

TEST(HeapTableTest, FetchByRid) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt, TypeId::kString}), &store);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 500; ++i) {
    rids.push_back(heap.Append(
        Tuple({Value(i), Value("row" + std::to_string(i))})));
  }
  for (int64_t i : {0, 123, 499}) {
    auto t = heap.Fetch(rids[static_cast<size_t>(i)], nullptr);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->at(0).as_int(), i);
    EXPECT_EQ(t->at(1).as_string(), "row" + std::to_string(i));
  }
}

TEST(HeapTableTest, FetchBadRidFails) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  heap.Append(Tuple({Value(int64_t{1})}));
  EXPECT_TRUE(heap.Fetch(Rid{9, 0}, nullptr).status().IsNotFound());
  EXPECT_TRUE(heap.Fetch(Rid{0, 9}, nullptr).status().IsNotFound());
}

TEST(HeapTableTest, MultiplePagesAllocated) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kString}), &store);
  for (int i = 0; i < 100; ++i) {
    heap.Append(Tuple({Value(std::string(500, 'x'))}));
  }
  EXPECT_GT(heap.num_pages(), 5u);
  // ~16 rows of 500B fit an 8 KiB page.
  EXPECT_LE(heap.num_pages(), 10u);
}

TEST(HeapTableTest, ScanTouchesEachPageOnce) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kString}), &store);
  for (int i = 0; i < 64; ++i) {
    heap.Append(Tuple({Value(std::string(1000, 'y'))}));
  }
  size_t touches = 0;
  auto cur = heap.Scan([&](PageId) { ++touches; });
  Tuple t;
  while (cur.Next(&t, nullptr)) {
  }
  EXPECT_EQ(touches, heap.num_pages());
}

TEST(HeapTableTest, ScanYieldsValidRids) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t i = 0; i < 200; ++i) heap.Append(Tuple({Value(i)}));
  auto cur = heap.Scan(nullptr);
  Tuple t;
  Rid rid;
  while (cur.Next(&t, &rid)) {
    auto fetched = heap.Fetch(rid, nullptr);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(*fetched, t);
  }
}

TEST(HeapTableTest, InsertReportsTailPageAndMatchesAppend) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  size_t touches = 0;
  for (int64_t i = 0; i < 300; ++i) {
    auto rid = heap.Insert(Tuple({Value(i)}), [&](PageId) { ++touches; });
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    // Insert lands rows where Append would: the same (page, slot) walk.
    auto fetched = heap.Fetch(*rid, nullptr);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched->at(0).as_int(), i);
  }
  // One tail-page touch per insert (write-path accounting).
  EXPECT_EQ(touches, 300u);
  EXPECT_EQ(heap.num_rows(), 300u);
}

TEST(HeapTableTest, DeleteTombstonesAndScansSkip) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 100; ++i) rids.push_back(heap.Append(Tuple({Value(i)})));

  // Tombstone every third row.
  for (size_t i = 0; i < rids.size(); i += 3) {
    EXPECT_TRUE(heap.IsLive(rids[i]));
    TB_ASSERT_OK(heap.Delete(rids[i], nullptr));
    EXPECT_FALSE(heap.IsLive(rids[i]));
    // The bytes stay but the row is dead to reads.
    EXPECT_TRUE(heap.Fetch(rids[i], nullptr).status().IsNotFound());
  }
  EXPECT_EQ(heap.num_rows(), 66u);
  EXPECT_EQ(heap.num_deleted(), 34u);

  // Double delete and out-of-range rids are NotFound, not corruption.
  EXPECT_TRUE(heap.Delete(rids[0], nullptr).IsNotFound());
  EXPECT_TRUE(heap.Delete(Rid{99, 0}, nullptr).IsNotFound());

  // Scans yield exactly the survivors, in order.
  auto cur = heap.Scan(nullptr);
  Tuple t;
  Rid rid;
  int64_t seen = 0;
  while (cur.Next(&t, &rid)) {
    EXPECT_NE(t.at(0).as_int() % 3, 0) << "tombstoned row leaked into scan";
    ++seen;
  }
  EXPECT_EQ(seen, 66);
}

// The slot directory must agree with the sequential record layout for
// every rid: live rows fetch exactly what the cursor yields at that rid,
// tombstones are NotFound, and the same holds after Drop and a re-append.
TEST(HeapTableTest, FetchEveryRidMatchesScan) {
  PageStore store;
  HeapTable heap(
      "t", TupleCodec({TypeId::kInt, TypeId::kString, TypeId::kDouble}),
      &store);
  Rng rng(11);
  auto fill = [&](int64_t n, size_t max_len) {
    std::vector<Rid> rids;
    for (int64_t i = 0; i < n; ++i) {
      Value s = rng.Bernoulli(0.1)
                    ? Value()
                    : Value(std::string(rng.Uniform(max_len + 1),
                                      static_cast<char>('a' + i % 26)));
      Value d = rng.Bernoulli(0.2) ? Value() : Value(rng.UniformDouble());
      rids.push_back(
          heap.Append(Tuple({Value(i), std::move(s), std::move(d)})));
    }
    return rids;
  };
  auto check_every_rid = [&](const std::vector<Rid>& rids) {
    std::map<std::pair<uint32_t, uint32_t>, Tuple> scanned;
    auto cur = heap.Scan(nullptr);
    Tuple t;
    Rid rid;
    while (cur.Next(&t, &rid)) scanned[{rid.page_ordinal, rid.slot}] = t;
    EXPECT_EQ(scanned.size(), heap.num_rows());
    // A scan that stops at each encoded row visits the same rows in the
    // same order, with the same page touches; a column read off the page is
    // the decoded one, and DecodeRow completes each row.
    std::vector<PageId> touches, record_touches;
    auto full = heap.Scan([&](PageId id) { touches.push_back(id); });
    auto part = heap.Scan([&](PageId id) { record_touches.push_back(id); });
    Tuple partial;
    while (full.Next(&t, nullptr)) {
      const uint8_t* row = part.NextRecord();
      ASSERT_NE(row, nullptr);
      EXPECT_EQ(heap.codec().Column(row, 0).ToValue(), t.at(0));
      part.DecodeRow(&partial);
      EXPECT_EQ(partial, t);
    }
    EXPECT_EQ(part.NextRecord(), nullptr);
    EXPECT_EQ(record_touches, touches);
    Tuple reused;
    for (const Rid& r : rids) {
      auto it = scanned.find({r.page_ordinal, r.slot});
      auto fetched = heap.Fetch(r, nullptr);
      Status into = heap.FetchInto(r, nullptr, &reused);
      auto record = heap.FetchRecord(r, nullptr);
      if (it == scanned.end()) {
        EXPECT_FALSE(heap.IsLive(r));
        EXPECT_TRUE(fetched.status().IsNotFound());
        EXPECT_TRUE(into.IsNotFound());
        EXPECT_TRUE(record.status().IsNotFound());
        continue;
      }
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      EXPECT_EQ(*fetched, it->second);
      TB_ASSERT_OK(into);
      EXPECT_EQ(reused, it->second);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      size_t off = 0;
      EXPECT_EQ(heap.codec().Decode(*record, &off), it->second);
    }
  };

  std::vector<Rid> rids = fill(3000, 200);
  ASSERT_GT(heap.num_pages(), 10u);
  for (size_t i = 0; i < rids.size(); i += 1 + rng.Uniform(5)) {
    TB_ASSERT_OK(heap.Delete(rids[i], nullptr));
  }
  // Whole pages of tombstones, the first and last slot of pages included.
  for (const Rid& r : rids) {
    if (r.page_ordinal == 3 && heap.IsLive(r)) {
      TB_ASSERT_OK(heap.Delete(r, nullptr));
    }
  }
  ASSERT_GT(heap.num_deleted(), 0u);
  check_every_rid(rids);

  heap.Drop();
  std::vector<Rid> again = fill(1500, 400);
  for (size_t i = 0; i < again.size(); i += 7) {
    TB_ASSERT_OK(heap.Delete(again[i], nullptr));
  }
  check_every_rid(again);
  // Rids from before the Drop only resolve if the new layout reaches them.
  for (const Rid& r : rids) {
    if (r.page_ordinal >= heap.num_pages()) {
      EXPECT_TRUE(heap.Fetch(r, nullptr).status().IsNotFound());
    }
  }
}

// A record must fit one page. An oversized row is rejected before any
// change: no epoch renewal, no page, no touch. A row at exactly the limit
// fills a fresh page.
TEST(HeapTableTest, InsertRejectsOversizedRecord) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt, TypeId::kString}), &store);
  heap.Append(Tuple({Value(int64_t{1}), Value(std::string("a"))}));
  const uint64_t epoch = heap.content_epoch();
  const size_t pages = store.allocated_pages();
  size_t touches = 0;
  auto count_touch = [&touches](PageId) { ++touches; };

  Tuple huge({Value(int64_t{2}), Value(std::string(9000, 'x'))});
  EXPECT_EQ(heap.CheckRecordFits(huge).code(), Status::Code::kInvalidArgument);
  auto r = heap.Insert(huge, count_touch);
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(heap.content_epoch(), epoch);
  EXPECT_EQ(store.allocated_pages(), pages);
  EXPECT_EQ(heap.num_rows(), 1u);
  EXPECT_EQ(touches, 0u);

  // Encoded size: 1 + 8 (int) + 1 + 4 + n (string).
  const size_t fit = HeapTable::kMaxRecordBytes - 14;
  Tuple at_limit({Value(int64_t{3}), Value(std::string(fit, 'y'))});
  Tuple over_limit({Value(int64_t{4}), Value(std::string(fit + 1, 'z'))});
  TB_ASSERT_OK(heap.CheckRecordFits(at_limit));
  EXPECT_EQ(heap.Insert(over_limit, count_touch).status().code(),
            Status::Code::kInvalidArgument);
  auto rid = heap.Insert(at_limit, count_touch);
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  EXPECT_EQ(rid->page_ordinal, 1u);
  EXPECT_EQ(store.GetPage(heap.pages()[1])->used, kPageSize);
  auto fetched = heap.Fetch(*rid, nullptr);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, at_limit);
  EXPECT_EQ(heap.num_rows(), 2u);
}

TEST(HeapTableTest, InsertAfterDeleteStaysAppendOnly) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 10; ++i) rids.push_back(heap.Append(Tuple({Value(i)})));
  TB_ASSERT_OK(heap.Delete(rids[4], nullptr));
  // The tombstoned slot is never reused: new rows append past the tail.
  auto rid = heap.Insert(Tuple({Value(int64_t{10})}), nullptr);
  ASSERT_TRUE(rid.ok());
  EXPECT_TRUE(rids.back() < *rid);
}

TEST(HeapTableTest, DropFreesPages) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t i = 0; i < 5000; ++i) heap.Append(Tuple({Value(i)}));
  size_t before = store.allocated_pages();
  EXPECT_GT(before, 0u);
  heap.Drop();
  EXPECT_EQ(store.allocated_pages(), 0u);
  EXPECT_EQ(heap.num_rows(), 0u);
}

}  // namespace
}  // namespace tabbench
