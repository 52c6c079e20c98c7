#include <gtest/gtest.h>

#include "service/value.h"

namespace seco {
namespace {

TEST(ValueTest, TypesAreReported) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{3}).type(), ValueType::kInt);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("x").type(), ValueType::kString);
}

TEST(ValueTest, NullChecks) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_FALSE(Value(1).is_null());
}

TEST(ValueTest, AsDoubleCoercesInt) {
  EXPECT_DOUBLE_EQ(Value(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value(7.25).AsDouble(), 7.25);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(ValueTest, TypeCompatibility) {
  EXPECT_TRUE(Value(1).TypeCompatibleWith(Value(2.0)));
  EXPECT_TRUE(Value("a").TypeCompatibleWith(Value("b")));
  EXPECT_FALSE(Value(1).TypeCompatibleWith(Value("1")));
  EXPECT_FALSE(Value(true).TypeCompatibleWith(Value(1)));
}

struct CompareCase {
  Value lhs;
  Comparator op;
  Value rhs;
  bool expected;
};

// Names the test instance by its content, not by the bytes (string buffer
// pointers, padding) gtest prints for a struct without a printer.
void PrintTo(const CompareCase& c, std::ostream* os) {
  *os << c.lhs.ToString() << " " << ComparatorToString(c.op) << " "
      << c.rhs.ToString() << " is " << (c.expected ? "true" : "false");
}

class ValueCompareTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(ValueCompareTest, Evaluates) {
  const CompareCase& c = GetParam();
  Result<bool> r = c.lhs.Compare(c.op, c.rhs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, c.expected)
      << c.lhs.ToString() << " " << ComparatorToString(c.op) << " "
      << c.rhs.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Numeric, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value(1), Comparator::kEq, Value(1), true},
        CompareCase{Value(1), Comparator::kEq, Value(2), false},
        CompareCase{Value(1), Comparator::kNe, Value(2), true},
        CompareCase{Value(1), Comparator::kLt, Value(2), true},
        CompareCase{Value(2), Comparator::kLe, Value(2), true},
        CompareCase{Value(3), Comparator::kGt, Value(2), true},
        CompareCase{Value(2), Comparator::kGe, Value(3), false},
        // Cross int/double comparisons coerce.
        CompareCase{Value(2), Comparator::kEq, Value(2.0), true},
        CompareCase{Value(2.5), Comparator::kGt, Value(2), true},
        CompareCase{Value(-1), Comparator::kLt, Value(0.5), true}));

INSTANTIATE_TEST_SUITE_P(
    Strings, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value("abc"), Comparator::kEq, Value("abc"), true},
        CompareCase{Value("abc"), Comparator::kLt, Value("abd"), true},
        CompareCase{Value("b"), Comparator::kGe, Value("a"), true},
        CompareCase{Value("2009-05-02"), Comparator::kGt, Value("2009-05-01"),
                    true},
        CompareCase{Value("hello"), Comparator::kLike, Value("he%"), true},
        CompareCase{Value("hello"), Comparator::kLike, Value("x%"), false}));

INSTANTIATE_TEST_SUITE_P(
    Nulls, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value(), Comparator::kEq, Value(), true},
        CompareCase{Value(), Comparator::kNe, Value(), false},
        CompareCase{Value(), Comparator::kEq, Value(1), false},
        CompareCase{Value(), Comparator::kNe, Value(1), true},
        CompareCase{Value(), Comparator::kLt, Value(1), false},
        CompareCase{Value(1), Comparator::kGe, Value(), false}));

TEST(ValueTest, IncompatibleComparisonFails) {
  Result<bool> r = Value(1).Compare(Comparator::kEq, Value("1"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, LikeRequiresStrings) {
  Result<bool> r = Value(1).Compare(Comparator::kLike, Value("1%"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, HashAgreesWithNumericEquality) {
  // 2 == 2.0 under Compare, so buckets must agree.
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

TEST(ValueTest, StructuralEquality) {
  EXPECT_TRUE(Value(2) == Value(2));
  EXPECT_FALSE(Value(2) == Value(2.0));  // structural, not SQL equality
  EXPECT_TRUE(Value() == Value());
}

TEST(ValueTest, ComparatorNames) {
  EXPECT_STREQ(ComparatorToString(Comparator::kEq), "=");
  EXPECT_STREQ(ComparatorToString(Comparator::kLike), "like");
  EXPECT_STREQ(ComparatorToString(Comparator::kLe), "<=");
}

}  // namespace
}  // namespace seco
