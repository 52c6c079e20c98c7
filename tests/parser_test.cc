#include <gtest/gtest.h>

#include "query/parser.h"

namespace seco {
namespace {

TEST(ParserTest, MinimalQuery) {
  Result<ParsedQuery> q = ParseQuery("select S where S.A = 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->atoms.size(), 1u);
  EXPECT_EQ(q->atoms[0].service_name, "S");
  EXPECT_EQ(q->atoms[0].alias, "S");  // defaults to service name
  ASSERT_EQ(q->predicates.size(), 1u);
  EXPECT_EQ(q->predicates[0].lhs.alias, "S");
  EXPECT_EQ(q->predicates[0].lhs.path, "A");
  EXPECT_EQ(q->predicates[0].op, Comparator::kEq);
  EXPECT_EQ(std::get<Value>(q->predicates[0].rhs).AsInt(), 1);
}

TEST(ParserTest, AliasesAndMultipleAtoms) {
  Result<ParsedQuery> q =
      ParseQuery("select Movie11 as M, Theatre11 as T where M.Title = T.Name");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->atoms.size(), 2u);
  EXPECT_EQ(q->atoms[0].alias, "M");
  EXPECT_EQ(q->atoms[1].alias, "T");
  const AttrRef& rhs = std::get<AttrRef>(q->predicates[0].rhs);
  EXPECT_EQ(rhs.alias, "T");
  EXPECT_EQ(rhs.path, "Name");
}

TEST(ParserTest, ConnectionPatternUse) {
  Result<ParsedQuery> q = ParseQuery(
      "select M as A, T as B where Shows(A, B) and A.X = 'v'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->connections.size(), 1u);
  EXPECT_EQ(q->connections[0].pattern_name, "Shows");
  EXPECT_EQ(q->connections[0].from_alias, "A");
  EXPECT_EQ(q->connections[0].to_alias, "B");
  EXPECT_EQ(q->predicates.size(), 1u);
}

TEST(ParserTest, SubAttributePaths) {
  Result<ParsedQuery> q =
      ParseQuery("select M where M.Genres.Genre = 'action'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->predicates[0].lhs.path, "Genres.Genre");
}

TEST(ParserTest, InputVariables) {
  Result<ParsedQuery> q = ParseQuery("select M where M.A = INPUT1");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(std::get<InputVarRef>(q->predicates[0].rhs).name, "INPUT1");
}

TEST(ParserTest, AllComparators) {
  Result<ParsedQuery> q = ParseQuery(
      "select M where M.A = 1 and M.B != 2 and M.C < 3 and M.D <= 4 and "
      "M.E > 5 and M.F >= 6 and M.G like 'x%'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->predicates.size(), 7u);
  EXPECT_EQ(q->predicates[0].op, Comparator::kEq);
  EXPECT_EQ(q->predicates[1].op, Comparator::kNe);
  EXPECT_EQ(q->predicates[2].op, Comparator::kLt);
  EXPECT_EQ(q->predicates[3].op, Comparator::kLe);
  EXPECT_EQ(q->predicates[4].op, Comparator::kGt);
  EXPECT_EQ(q->predicates[5].op, Comparator::kGe);
  EXPECT_EQ(q->predicates[6].op, Comparator::kLike);
}

TEST(ParserTest, Literals) {
  Result<ParsedQuery> q = ParseQuery(
      "select M where M.A = -5 and M.B = 2.75 and M.C = 'sq' and M.D = \"dq\"");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(std::get<Value>(q->predicates[0].rhs).AsInt(), -5);
  EXPECT_DOUBLE_EQ(std::get<Value>(q->predicates[1].rhs).AsDouble(), 2.75);
  EXPECT_EQ(std::get<Value>(q->predicates[2].rhs).AsString(), "sq");
  EXPECT_EQ(std::get<Value>(q->predicates[3].rhs).AsString(), "dq");
}

TEST(ParserTest, RankByWeights) {
  Result<ParsedQuery> q = ParseQuery(
      "select A, B, C where A.X = 1 rank by (0.3, 0.5, 0.2)");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->ranking_weights.size(), 3u);
  EXPECT_DOUBLE_EQ(q->ranking_weights[0], 0.3);
  EXPECT_DOUBLE_EQ(q->ranking_weights[1], 0.5);
  EXPECT_DOUBLE_EQ(q->ranking_weights[2], 0.2);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  Result<ParsedQuery> q =
      ParseQuery("SELECT a AS x WHERE x.F = 1 RANK BY (1.0)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atoms[0].alias, "x");
}

TEST(ParserTest, RunningExampleParses) {
  Result<ParsedQuery> q = ParseQuery(
      "select Movie11 as M, Theatre11 as T, Restaurant11 as R "
      "where Shows(M, T) and DinnerPlace(T, R) "
      "and M.Genres.Genre = INPUT1 and M.Openings.Country = INPUT2 "
      "and M.Openings.Date > INPUT3 "
      "and T.UAddress = INPUT4 and T.UCity = INPUT5 and T.UCountry = INPUT2 "
      "and R.Category.Name = INPUT6 "
      "rank by (0.3, 0.5, 0.2)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atoms.size(), 3u);
  EXPECT_EQ(q->connections.size(), 2u);
  EXPECT_EQ(q->predicates.size(), 7u);
}

struct BadQuery {
  const char* text;
  const char* why;
};

// Names the test instance by its content, not by the pointer bytes gtest
// prints for a struct without a printer.
void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.why; }

class ParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParserErrorTest, Rejected) {
  Result<ParsedQuery> q = ParseQuery(GetParam().text);
  EXPECT_FALSE(q.ok()) << GetParam().why;
  if (!q.ok()) {
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << GetParam().why;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Errors, ParserErrorTest,
    ::testing::Values(
        BadQuery{"", "empty"},
        BadQuery{"where S.A = 1", "missing select"},
        BadQuery{"select S", "missing where"},
        BadQuery{"select S where", "missing condition"},
        BadQuery{"select S where S.A", "missing operator"},
        BadQuery{"select S where S.A =", "missing operand"},
        BadQuery{"select S where A = 1", "bare attr without alias"},
        BadQuery{"select S, S where S.A = 1", "duplicate alias"},
        BadQuery{"select S where S.A = 'unterminated", "unterminated string"},
        BadQuery{"select S where S.A = 1 rank by 0.5", "weights need parens"},
        BadQuery{"select A, B where A.X = 1 rank by (0.5)",
                 "weight count mismatch"},
        BadQuery{"select S where S.A = 1 garbage", "trailing input"},
        BadQuery{"select S where S.A ! 1", "stray bang"},
        BadQuery{"select S where S.A = 1 and", "dangling and"},
        BadQuery{"select S where Shows(A)", "connection arity"}));

}  // namespace
}  // namespace seco
