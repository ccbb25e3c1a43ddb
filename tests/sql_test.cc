// SQL front-end tests: parsing to conjunctive queries, ORDER BY/LIMIT,
// self-join aliases, DESC ranking, projection with all-weight semantics
// (Section 8.1, option 1), the default-dioid rule, and oracle agreement —
// executed through MakeQueryHandle, the entry point every surface uses.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "dioid/tropical.h"
#include "query/sql.h"
#include "server/query_handle.h"
#include "storage/value.h"
#include "test_util.h"
#include "workload/generators.h"

namespace anyk {
namespace {

struct Answer {
  double weight;
  std::vector<Value> values;  // SELECT-list order (all variables for *)
  bool operator==(const Answer&) const = default;
};

/// Run `sql` the way every surface does — MakeQueryHandle, Open, FetchPage
/// — under `dioid` (empty = the ORDER BY default) and collect every answer.
std::vector<Answer> RunSql(const Database& db, const std::string& sql,
                           const std::string& dioid = "") {
  const SqlStatement stmt = ParseSql(sql, &db);
  const auto handle = server::MakeQueryHandle(db, stmt, dioid, nullptr);
  const auto stream = handle->Open(Algorithm::kLazy);
  std::vector<Answer> out;
  const server::RowFn keep = [&out](size_t, double weight,
                                    const std::vector<Value>& values) {
    out.push_back({weight, values});
  };
  while (!stream->done()) stream->FetchPage(64, keep);
  return out;
}

TEST(SqlParseTest, PathQueryShape) {
  auto stmt = ParseSql(
      "SELECT * FROM R1, R2, R3 "
      "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 ORDER BY WEIGHT ASC LIMIT 10");
  EXPECT_EQ(stmt.query.NumAtoms(), 3u);
  EXPECT_EQ(stmt.query.NumVars(), 4u);  // path: x1..x4
  EXPECT_TRUE(stmt.ascending);
  EXPECT_EQ(stmt.limit, 10u);
  EXPECT_TRUE(stmt.query.IsFull());
  // Join structure: R1.A2 and R2.A1 are the same variable.
  EXPECT_EQ(stmt.query.AtomVarIds(0)[1], stmt.query.AtomVarIds(1)[0]);
  EXPECT_EQ(stmt.query.AtomVarIds(1)[1], stmt.query.AtomVarIds(2)[0]);
}

TEST(SqlParseTest, CycleWithDescAndAliases) {
  auto stmt = ParseSql(
      "SELECT * FROM E e1, E e2, E e3, E e4 "
      "WHERE e1.A2 = e2.A1 AND e2.A2 = e3.A1 AND e3.A2 = e4.A1 "
      "AND e4.A2 = e1.A1 ORDER BY WEIGHT DESC");
  EXPECT_EQ(stmt.query.NumAtoms(), 4u);
  EXPECT_EQ(stmt.query.NumVars(), 4u);  // closed cycle
  EXPECT_FALSE(stmt.ascending);
  EXPECT_EQ(stmt.limit, 0u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stmt.query.atom(i).relation, "E");
  }
}

TEST(SqlParseTest, SelectListBecomesProjection) {
  auto stmt = ParseSql(
      "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1");
  ASSERT_EQ(stmt.select_vars.size(), 2u);
  EXPECT_EQ(stmt.select_vars[0], stmt.query.AtomVarIds(0)[0]);
  EXPECT_EQ(stmt.select_vars[1], stmt.query.AtomVarIds(1)[1]);
}

TEST(SqlParseTest, RejectsBadSyntax) {
  EXPECT_DEATH({ ParseSql("SELECT FROM R1"); }, "SQL");
  EXPECT_DEATH({ ParseSql("SELECT * FROM"); }, "SQL");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 WHERE R1.A1 = R9.A1"); },
               "unknown table alias");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1, R1"); }, "duplicate table");
}

TEST(SqlParseTest, RejectsTrailingGarbageWithOffset) {
  // A complete statement followed by junk must not parse. The error carries
  // the byte offset of the first unconsumed token so server clients can
  // point at the problem. Note `FROM R1 garbage` alone is legal (alias
  // syntax); only input after a complete statement is trailing.
  EXPECT_DEATH(
      { ParseSql("SELECT * FROM R1 ORDER BY WEIGHT ASC garbage"); },
      "SQL:37: trailing input");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT 3 x"); },
               "SQL:[0-9]+: trailing input");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1; SELECT * FROM R1"); },
               "SQL:[0-9]+: trailing input");
}

TEST(SqlParseTest, RejectsBadLimit) {
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT ten"); },
               "LIMIT expects a positive integer");
  // LIMIT 0 must never reach the engine, where a 0 budget is the
  // "unbounded" sentinel (EnumOptions::k_budget) and would drain everything.
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT 0"); },
               "LIMIT 0 is not a query");
}

TEST(SqlNormalizeTest, CanonicalizesSpellingVariants) {
  const std::string canonical = NormalizeSql(
      "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT ASC");
  // Keyword case, whitespace, implicit ASC, lowercase columns, swapped
  // equality sides, and a trailing semicolon all normalize to the same
  // cache key. (Table aliases stay case-sensitive, like the parser.)
  EXPECT_EQ(NormalizeSql("select  *  from R1 ,R2 where R2.a1=R1.a2;"),
            canonical);
  EXPECT_EQ(NormalizeSql(
                "SELECT * FROM R1, R2 WHERE R2.A1 = R1.A2 ORDER BY WEIGHT"),
            canonical);
  // Conjunct order is sorted, so permuted WHERE clauses agree too.
  EXPECT_EQ(
      NormalizeSql("SELECT * FROM R1, R2, R3 "
                   "WHERE R2.A2 = R3.A1 AND R1.A2 = R2.A1"),
      NormalizeSql("SELECT * FROM R1, R2, R3 "
                   "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1"));
}

TEST(SqlNormalizeTest, PreservesFromOrderAndReparses) {
  // FROM order determines the SELECT * column order, so it must survive
  // normalization (R2 before R1 here is semantically distinct output).
  const std::string n1 =
      NormalizeSql("SELECT * FROM R2, R1 WHERE R1.A2 = R2.A1");
  const std::string n2 =
      NormalizeSql("SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1");
  EXPECT_NE(n1, n2);
  EXPECT_NE(n1.find("FROM R2, R1"), std::string::npos) << n1;
  // Normalization is idempotent and its output reparses to the same shape.
  EXPECT_EQ(NormalizeSql(n1), n1);
  auto stmt = ParseSql(n2);
  EXPECT_EQ(stmt.query.NumAtoms(), 2u);
  EXPECT_TRUE(stmt.ascending);
}

TEST(SqlExecuteTest, MatchesOracleAscending) {
  Database db = MakePathDatabase(40, 3, 501, {.fanout = 6.0});
  auto results = RunSql(
      db,
      "SELECT * FROM R1, R2, R3 "
      "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 ORDER BY WEIGHT ASC");
  auto oracle =
      testing::Oracle<TropicalDioid>(db, ConjunctiveQuery::Path(3));
  ASSERT_EQ(results.size(), oracle.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].weight, oracle[i].weight) << i;
  }
}

TEST(SqlExecuteTest, DescendingIsReverseExtreme) {
  Database db = MakePathDatabase(30, 2, 502, {.fanout = 5.0});
  auto asc = RunSql(
      db, "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT ASC");
  auto desc = RunSql(
      db, "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT DESC");
  ASSERT_EQ(asc.size(), desc.size());
  ASSERT_FALSE(asc.empty());
  EXPECT_DOUBLE_EQ(asc.front().weight, desc.back().weight);
  EXPECT_DOUBLE_EQ(asc.back().weight, desc.front().weight);
}

TEST(SqlExecuteTest, LimitAndProjection) {
  Database db = MakePathDatabase(40, 2, 503, {.fanout = 6.0});
  auto results = RunSql(
      db,
      "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1 "
      "ORDER BY WEIGHT ASC LIMIT 7");
  ASSERT_LE(results.size(), 7u);
  for (const auto& r : results) {
    EXPECT_EQ(r.values.size(), 2u);  // projected columns only
  }
  // All-weight-projection semantics: duplicates of the projection may
  // appear; weights are the full query's, non-decreasing.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].weight, results[i - 1].weight);
  }
}

TEST(SqlExecuteTest, PaperExample1FourCycle) {
  // Example 1's SQL, modulo column naming: the 4-cycle with summed weights.
  Database db = MakeWorstCaseCycleDatabase(14, 4, 504);
  auto results = RunSql(
      db,
      "SELECT R1.A1, R2.A1, R3.A1, R4.A1 FROM R1, R2, R3, R4 "
      "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND R3.A2 = R4.A1 "
      "AND R4.A2 = R1.A1 ORDER BY WEIGHT ASC LIMIT 5");
  auto oracle =
      testing::Oracle<TropicalDioid>(db, ConjunctiveQuery::Cycle(4));
  ASSERT_EQ(results.size(), std::min<size_t>(5, oracle.size()));
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].weight, oracle[i].weight);
  }
}

TEST(SqlExecuteTest, DefaultDioidFollowsOrderBy) {
  EXPECT_EQ(server::ResolveDioidName("", /*ascending=*/true), "min-sum");
  EXPECT_EQ(server::ResolveDioidName("", /*ascending=*/false), "max-sum");
  EXPECT_EQ(server::ResolveDioidName("min-max", /*ascending=*/false),
            "min-max");

  Database db = MakePathDatabase(30, 2, 505, {.fanout = 5.0});
  const std::string asc_sql =
      "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT ASC";
  const std::string desc_sql =
      "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT DESC";
  // An unnamed dioid runs exactly the named default.
  const auto asc = RunSql(db, asc_sql);
  const auto desc = RunSql(db, desc_sql);
  EXPECT_EQ(asc, RunSql(db, asc_sql, "min-sum"));
  EXPECT_EQ(desc, RunSql(db, desc_sql, "max-sum"));
  // min-sum ranks lightest first, max-sum heaviest first, and the two
  // streams' extremes mirror each other.
  ASSERT_EQ(asc.size(), desc.size());
  ASSERT_FALSE(asc.empty());
  for (size_t i = 1; i < asc.size(); ++i) {
    EXPECT_GE(asc[i].weight, asc[i - 1].weight) << i;
    EXPECT_LE(desc[i].weight, desc[i - 1].weight) << i;
  }
  EXPECT_DOUBLE_EQ(asc.front().weight, desc.back().weight);
  EXPECT_DOUBLE_EQ(asc.back().weight, desc.front().weight);
  EXPECT_LT(asc.front().weight, desc.front().weight);
}

}  // namespace
}  // namespace anyk
