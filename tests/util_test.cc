#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/zipf.h"

namespace tabbench {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table foo");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "table foo");
  EXPECT_EQ(st.ToString(), "NotFound: table foo");
}

TEST(StatusTest, TimeoutIsDistinguished) {
  Status st = Status::Timeout("q");
  EXPECT_TRUE(st.IsTimeout());
  EXPECT_FALSE(st.IsNotFound());
  EXPECT_FALSE(Status::OK().IsTimeout());
}

TEST(StatusTest, AllCodesRenderDistinctNames) {
  std::set<std::string> names;
  names.insert(Status::InvalidArgument("").ToString());
  names.insert(Status::NotFound("").ToString());
  names.insert(Status::AlreadyExists("").ToString());
  names.insert(Status::Unsupported("").ToString());
  names.insert(Status::Timeout("").ToString());
  names.insert(Status::ResourceExhausted("").ToString());
  names.insert(Status::Internal("").ToString());
  names.insert(Status::DataLoss("").ToString());
  EXPECT_EQ(names.size(), 8u);
}

TEST(StatusTest, DataLossIsDistinguishedAndPermanent) {
  Status st = Status::DataLoss("checksum mismatch at offset 12");
  EXPECT_TRUE(st.IsDataLoss());
  EXPECT_EQ(st.ToString(), "DataLoss: checksum mismatch at offset 12");
}

TEST(StatusTest, FromCodeRoundTripsAndRejectsGarbage) {
  Status dl = Status::DataLoss("x");
  Status rt = Status::FromCode(dl.code(), "x");
  EXPECT_TRUE(rt.IsDataLoss());
  EXPECT_TRUE(Status::FromCode(Status::Code::kOk, "").ok());
  // An out-of-range code (e.g. from a corrupt serialized record) must not
  // alias a real one.
  EXPECT_EQ(Status::FromCode(static_cast<Status::Code>(250), "x").code(),
            Status::Code::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.TakeValue(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "boom");
}

namespace {
Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("nonpositive");
  return x;
}
Result<int> Doubled(int x) {
  int v = 0;
  TB_ASSIGN_OR_RETURN(v, ParsePositive(x));
  return v * 2;
}
Status Use(int x) {
  TB_RETURN_IF_ERROR(Doubled(x).status());
  return Status::OK();
}
}  // namespace

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(-1).status().IsInvalidArgument());
  EXPECT_TRUE(Use(5).ok());
  EXPECT_FALSE(Use(-5).ok());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversBothEndpoints) {
  Rng rng(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    lo |= (v == 3);
    hi |= (v == 7);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIsRoughlyUnbiased) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------------ Zipf

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 1.0);
  double sum = 0;
  for (size_t i = 0; i < 100; ++i) sum += z.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroIsMostFrequent) {
  ZipfSampler z(1000, 1.0);
  EXPECT_GT(z.Pmf(0), z.Pmf(1));
  EXPECT_GT(z.Pmf(1), z.Pmf(10));
  EXPECT_GT(z.Pmf(10), z.Pmf(999));
}

TEST(ZipfTest, ThetaOneRatioIsHarmonic) {
  ZipfSampler z(100, 1.0);
  EXPECT_NEAR(z.Pmf(0) / z.Pmf(9), 10.0, 1e-6);
}

TEST(ZipfTest, SamplesMatchPmf) {
  ZipfSampler z(50, 1.0);
  Rng rng(13);
  std::vector<int> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  for (size_t r : {0u, 1u, 5u, 20u}) {
    double expected = z.Pmf(r) * n;
    EXPECT_NEAR(counts[r], expected, std::max(60.0, expected * 0.1))
        << "rank " << r;
  }
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-9);
}

class ZipfSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewTest, HeavierThetaConcentratesMass) {
  double theta = GetParam();
  ZipfSampler z(1000, theta);
  double top10 = 0;
  for (size_t i = 0; i < 10; ++i) top10 += z.Pmf(i);
  // Monotone-in-theta sanity: the top-10 share grows with skew.
  ZipfSampler flat(1000, theta / 2);
  double top10_flat = 0;
  for (size_t i = 0; i < 10; ++i) top10_flat += flat.Pmf(i);
  EXPECT_GT(top10, top10_flat);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfSkewTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2));

// --------------------------------------------------------------- strings

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(StartsWith("lineitem", "line"));
  EXPECT_FALSE(StartsWith("line", "lineitem"));
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.5), "500.0ms");
  EXPECT_EQ(HumanSeconds(5.0), "5.0s");
  EXPECT_EQ(HumanSeconds(600.0), "10.0min");
  EXPECT_EQ(HumanSeconds(7200.0), "2.0h");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.5 MB");
}

}  // namespace
}  // namespace tabbench
