#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace seco {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("service 'X'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "service 'X'");
  EXPECT_EQ(s.ToString(), "not found: service 'X'");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::ParseError("bad token");
  Status copy = s;
  EXPECT_EQ(copy.code(), StatusCode::kParseError);
  EXPECT_EQ(copy.message(), "bad token");
  // Original unaffected.
  EXPECT_EQ(s.message(), "bad token");
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status s = Status::Internal("boom");
  Status moved = std::move(s);
  EXPECT_EQ(moved.code(), StatusCode::kInternal);
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::ParseError("").code(),
      Status::Infeasible("").code(),      Status::TypeError("").code(),
      Status::Internal("").code(),        Status::Unsupported("").code(),
      Status::ResourceExhausted("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    SECO_RETURN_IF_ERROR(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::Internal("bad");
  };
  auto outer = [&](bool ok) -> Result<int> {
    SECO_ASSIGN_OR_RETURN(int v, inner(ok));
    return v + 1;
  };
  EXPECT_EQ(*outer(true), 8);
  EXPECT_EQ(outer(false).status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Random --

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64Test, NextDoubleInUnitInterval) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64Test, UniformRangeInclusive) {
  SplitMix64 rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(SplitMix64Test, ForkIsIndependentAndStable) {
  SplitMix64 parent(42);
  SplitMix64 c1 = parent.Fork(1);
  SplitMix64 c2 = parent.Fork(1);
  EXPECT_EQ(c1.Next(), c2.Next());  // same tag -> same stream
  SplitMix64 c3 = parent.Fork(2);
  EXPECT_NE(c1.Next(), c3.Next());
}

TEST(ZipfSamplerTest, SkewConcentratesMass) {
  SplitMix64 rng(7);
  ZipfSampler zipf(100, 1.2);
  int low_rank = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++low_rank;
  }
  // With skew 1.2, the top 10 of 100 ranks should dominate.
  EXPECT_GT(low_rank, n / 2);
}

TEST(ZipfSamplerTest, ZeroSkewIsUniformish) {
  SplitMix64 rng(8);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(ZipfSamplerTest, SamplesInRange) {
  SplitMix64 rng(9);
  ZipfSampler zipf(5, 2.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 5u);
  }
}

// ----------------------------------------------------------- string_util --

TEST(StringUtilTest, StrSplitBasic) {
  EXPECT_EQ(StrSplit("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, StrJoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiToLower("123_ABC"), "123_abc");
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

// Names the test instance by its content, not by the pointer bytes gtest
// prints for a struct without a printer.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' like '" << c.pattern << "' is "
      << (c.expected ? "true" : "false");
}

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.expected)
      << "'" << c.text << "' like '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true}, LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true}, LikeCase{"hello", "h__lo", true},
        LikeCase{"hello", "", false}, LikeCase{"", "", true},
        LikeCase{"", "%", true}, LikeCase{"hello", "hell", false},
        LikeCase{"hello", "helloo", false}, LikeCase{"hello", "%x%", false},
        LikeCase{"aaa", "a%a", true}, LikeCase{"ab", "a%b%", true},
        LikeCase{"Milano", "Mil%", true}, LikeCase{"Milano", "mil%", false},
        LikeCase{"abc", "___", true}, LikeCase{"abc", "____", false},
        LikeCase{"abcabc", "%abc", true}, LikeCase{"abcabc", "abc%abc", true}));

}  // namespace
}  // namespace seco
