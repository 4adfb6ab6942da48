// The flat IN-set and the in-place predicate evaluator against their
// Value-based references: FlatInSet membership must be what an
// unordered_set<Value, ValueHash> answers, and CompiledPred::EvalEncoded on
// an encoded row must be Value::operator== / set membership on the decoded
// row.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/in_set.h"
#include "exec/operators.h"
#include "storage/tuple_codec.h"
#include "util/rng.h"

namespace tabbench {
namespace {

using RefSet = std::unordered_set<Value, ValueHash>;

std::string RandomBytes(Rng* rng, size_t len) {
  std::string s(len, '\0');
  // Mostly letters, with NULs and high bytes mixed in.
  for (char& c : s) {
    const uint64_t r = rng->Uniform(10);
    c = r == 0 ? '\0'
               : r == 1 ? static_cast<char>(0x80 + rng->Uniform(0x80))
                        : static_cast<char>('a' + rng->Uniform(4));
  }
  return s;
}

/// Candidate members and probes of one type, edge values first.
std::vector<Value> Pool(TypeId type, Rng* rng) {
  std::vector<Value> pool;
  switch (type) {
    case TypeId::kInt: {
      const int64_t lo = std::numeric_limits<int64_t>::min();
      const int64_t hi = std::numeric_limits<int64_t>::max();
      for (int64_t v : {lo, lo + 1, hi, hi - 1, int64_t{0}, int64_t{-1},
                        int64_t{1}, int64_t{1} << 32, (int64_t{1} << 32) + 1}) {
        pool.push_back(Value(v));
      }
      for (int i = 0; i < 300; ++i) pool.push_back(Value(rng->UniformInt(-200, 200)));
      for (int i = 0; i < 60; ++i) {
        pool.push_back(Value(static_cast<int64_t>(rng->Next())));
      }
      break;
    }
    case TypeId::kDouble: {
      const double inf = std::numeric_limits<double>::infinity();
      for (double v : {0.0, -0.0, 1.5, -1.5, DBL_MAX, -DBL_MAX, DBL_MIN,
                       std::numeric_limits<double>::denorm_min(), inf, -inf,
                       1.0 / 3.0}) {
        pool.push_back(Value(v));
      }
      for (int i = 0; i < 300; ++i) {
        pool.push_back(Value(static_cast<double>(rng->UniformInt(-100, 100)) / 4));
      }
      for (int i = 0; i < 60; ++i) pool.push_back(Value(rng->UniformDouble()));
      break;
    }
    case TypeId::kString: {
      const std::string shared(40, 'p');
      for (const std::string& s :
           {std::string(), std::string(1, '\0'), std::string(2, '\0'),
            std::string("a\0b", 3), std::string("a\0c", 3), std::string("a"),
            std::string("ab"), std::string("abcdefgh"), std::string("abcdefghi"),
            std::string("abcdefgh\0", 9), shared, shared + "x", shared + "y",
            shared.substr(0, 39), std::string(300, 'q')}) {
        pool.push_back(Value(s));
      }
      for (int i = 0; i < 300; ++i) {
        pool.push_back(Value(RandomBytes(rng, rng->Uniform(4))));
      }
      for (int i = 0; i < 60; ++i) {
        pool.push_back(Value(shared + RandomBytes(rng, rng->Uniform(12))));
      }
      break;
    }
  }
  return pool;
}

/// `v` as a one-column encoded row, so a probe can also read it in place.
std::vector<uint8_t> EncodeOne(TypeId type, const Value& v) {
  std::vector<uint8_t> buf;
  TupleCodec({type}).Encode(Tuple({v}), &buf);
  return buf;
}

class FlatInSetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatInSetTest, MembershipEqualsUnorderedSetCount) {
  Rng rng(GetParam());
  for (TypeId type : {TypeId::kInt, TypeId::kDouble, TypeId::kString}) {
    SCOPED_TRACE(TypeName(type));
    const std::vector<Value> pool = Pool(type, &rng);
    const TupleCodec codec({type});
    // Member densities from none to all, so sets grow through several
    // rehashes and probes both hit and miss.
    for (double density : {0.0, 0.02, 0.5, 1.0}) {
      FlatInSet set;
      RefSet ref;
      for (const Value& v : pool) {
        if (!rng.Bernoulli(density)) continue;
        const size_t before = set.size();
        const size_t ordinal = set.Insert(v);
        const bool added = ref.insert(v).second;
        EXPECT_EQ(set.size(), before + (added ? 1 : 0)) << v.ToString();
        ASSERT_LT(ordinal, set.size());
        EXPECT_TRUE(set.member(ordinal) == ColumnView::Of(v)) << v.ToString();
        // A second insert finds the member it added.
        EXPECT_EQ(set.Insert(v), ordinal);
      }
      ASSERT_EQ(set.size(), ref.size());
      for (size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(ref.count(set.member(i).ToValue()), 1u) << i;
      }
      for (const Value& v : pool) {
        const bool want = ref.count(v) > 0;
        EXPECT_EQ(set.Contains(v), want) << v.ToString();
        const std::vector<uint8_t> row = EncodeOne(type, v);
        EXPECT_EQ(set.Contains(codec.Column(row.data(), 0)), want)
            << v.ToString();
      }
      // NULL is never a member, nor inserted.
      EXPECT_FALSE(set.Contains(Value()));
      const std::vector<uint8_t> null_row = EncodeOne(type, Value());
      EXPECT_FALSE(set.Contains(codec.Column(null_row.data(), 0)));
      EXPECT_EQ(set.Insert(Value()), FlatInSet::kNoOrdinal);
      EXPECT_EQ(set.size(), ref.size());
    }
  }
}

TEST(FlatInSetEdgeTest, SignedZerosAreOneMember) {
  for (double first : {0.0, -0.0}) {
    FlatInSet set;
    set.Insert(Value(first));
    EXPECT_EQ(set.Insert(Value(-first)), 0u);
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.Contains(Value(0.0)));
    EXPECT_TRUE(set.Contains(Value(-0.0)));
  }
}

TEST(FlatInSetEdgeTest, EmptySetAndOtherTypesHoldNothing) {
  FlatInSet empty;
  EXPECT_EQ(empty.size(), 0u);
  Rng rng(5);
  for (TypeId type : {TypeId::kInt, TypeId::kDouble, TypeId::kString}) {
    for (const Value& v : Pool(type, &rng)) EXPECT_FALSE(empty.Contains(v));
  }
  EXPECT_FALSE(empty.Contains(Value()));

  FlatInSet ints;
  ints.Insert(Value(int64_t{7}));
  EXPECT_FALSE(ints.Contains(Value(7.0)));
  EXPECT_FALSE(ints.Contains(Value(std::string("7"))));
  EXPECT_TRUE(ints.Contains(Value(int64_t{7})));
}

TEST(FlatInSetEdgeTest, EqualityIgnoresInsertionOrder) {
  FlatInSet a, b, c;
  for (const char* s : {"x", "", "yy", "zzzzzzzzzz"}) a.Insert(Value(std::string(s)));
  for (const char* s : {"zzzzzzzzzz", "yy", "x", ""}) b.Insert(Value(std::string(s)));
  for (const char* s : {"x", "", "yy", "zzzzzzzzzy"}) c.Insert(Value(std::string(s)));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == FlatInSet());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatInSetTest, ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------- in-place evaluator

/// Small per-type domains, so equal pairs, NULL pairs and signed zeros come
/// up often.
Value SmallValue(TypeId type, Rng* rng) {
  if (rng->Bernoulli(0.15)) return Value();
  switch (type) {
    case TypeId::kInt: {
      const int64_t vals[] = {-1, 0, 1, 2, std::numeric_limits<int64_t>::min()};
      return Value(vals[rng->Uniform(5)]);
    }
    case TypeId::kDouble: {
      const double vals[] = {0.0, -0.0, 1.5, -1.5};
      return Value(vals[rng->Uniform(4)]);
    }
    case TypeId::kString: {
      const std::string vals[] = {"", std::string(1, '\0'), "a", "ab",
                                  "a-long-shared-prefix-1",
                                  "a-long-shared-prefix-2"};
      return Value(vals[rng->Uniform(6)]);
    }
  }
  return Value();
}

Tuple RandomRow(const std::vector<TypeId>& types, Rng* rng) {
  std::vector<Value> vals;
  for (TypeId t : types) vals.push_back(SmallValue(t, rng));
  return Tuple(std::move(vals));
}

class EvalEncodedTest : public ::testing::TestWithParam<uint64_t> {};

// On random (outer, row) pairs, every predicate kind read in place equals
// the Value semantics on the decoded concatenation, and so does the
// decoded evaluator (EvalJoined): kColEqCol pairs span outer-outer,
// outer-inner and inner-inner positions, and a scan (no outer) is covered
// by an empty outer row.
TEST_P(EvalEncodedTest, MatchesDecodedEvaluation) {
  Rng rng(GetParam());
  const std::vector<TypeId> outer_types = {TypeId::kInt, TypeId::kDouble,
                                           TypeId::kString};
  const std::vector<TypeId> row_types = {TypeId::kString, TypeId::kInt,
                                         TypeId::kDouble, TypeId::kString,
                                         TypeId::kInt, TypeId::kDouble};
  const TupleCodec codec(row_types);
  // One IN-set per type, from the same small domains.
  std::vector<std::shared_ptr<FlatInSet>> sets;
  std::vector<RefSet> refs;
  for (TypeId t : {TypeId::kInt, TypeId::kDouble, TypeId::kString}) {
    auto set = std::make_shared<FlatInSet>();
    RefSet ref;
    for (int i = 0; i < 3; ++i) {
      Value v = SmallValue(t, &rng);
      set->Insert(v);
      if (!v.is_null()) ref.insert(v);
    }
    sets.push_back(set);
    refs.push_back(std::move(ref));
  }
  size_t true_results = 0, null_pairs = 0, signed_zero_pairs = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const bool scan = rng.Bernoulli(0.3);
    const Tuple outer =
        scan ? Tuple() : RandomRow(outer_types, &rng);
    const Tuple row = RandomRow(row_types, &rng);
    std::vector<uint8_t> buf;
    codec.Encode(row, &buf);
    const Tuple joined = Tuple::Concat(outer, row);
    std::vector<TypeId> types = scan ? std::vector<TypeId>() : outer_types;
    types.insert(types.end(), row_types.begin(), row_types.end());
    auto random_pos = [&] { return static_cast<int>(rng.Uniform(types.size())); };

    CompiledPred p;
    bool want = false;
    p.pos_a = random_pos();
    const TypeId ta = types[static_cast<size_t>(p.pos_a)];
    const Value& a = joined.at(static_cast<size_t>(p.pos_a));
    switch (rng.Uniform(3)) {
      case 0:
        p.kind = ResidualPred::Kind::kColEqLit;
        p.literal = SmallValue(ta, &rng);
        want = a == p.literal;
        null_pairs += a.is_null() && p.literal.is_null();
        break;
      case 1: {
        p.kind = ResidualPred::Kind::kColEqCol;
        do {
          p.pos_b = random_pos();
        } while (types[static_cast<size_t>(p.pos_b)] != ta);
        const Value& b = joined.at(static_cast<size_t>(p.pos_b));
        want = a == b;
        null_pairs += a.is_null() && b.is_null();
        signed_zero_pairs += a.is_double() && b.is_double() &&
                             a.as_double() == 0.0 && b.as_double() == 0.0 &&
                             std::signbit(a.as_double()) !=
                                 std::signbit(b.as_double());
        break;
      }
      default: {
        p.kind = ResidualPred::Kind::kInSet;
        const size_t t = static_cast<size_t>(ta);
        p.in_set = sets[t].get();
        want = refs[t].count(a) > 0;
        break;
      }
    }
    true_results += want;
    ASSERT_EQ(p.EvalEncoded(outer, codec, buf.data()), want)
        << "iter " << iter << " outer " << outer.ToString() << " row "
        << row.ToString() << " kind " << static_cast<int>(p.kind) << " a "
        << p.pos_a << " b " << p.pos_b << " literal " << p.literal.ToString();
    ASSERT_EQ(p.EvalJoined(outer, row), want) << "iter " << iter;
  }
  // The draws exercised both outcomes and the equality edge cases.
  EXPECT_GT(true_results, 300u);
  EXPECT_LT(true_results, 2700u);
  EXPECT_GT(null_pairs, 10u);
  EXPECT_GT(signed_zero_pairs, 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalEncodedTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tabbench
