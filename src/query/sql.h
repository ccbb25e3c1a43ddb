// Minimal SQL front-end for the query dialect the paper uses in its
// examples (Example 1, Section 8.1):
//
//   SELECT *                       -- or a list of columns
//   FROM R1, R2 [, Edge e1, Edge e2 ...]        -- aliases enable self-joins
//   WHERE R1.A2 = R2.A1 [AND ...]               -- conjunctive equi-joins
//   ORDER BY WEIGHT [ASC|DESC]                  -- sum of tuple weights
//   LIMIT k                                     -- optional
//
// Columns are addressed positionally as A1..A<arity>. The statement compiles
// to a ConjunctiveQuery: every (atom, column) slot gets a variable, WHERE
// equalities merge variables (union-find), and a non-* SELECT list becomes
// the free variables. Statements run through server::MakeQueryHandle
// (src/server/query_handle.h), which ranks ASC by min-sum and DESC by
// max-sum unless a dioid is named; projections follow the paper's
// all-weight-projection semantics (Section 8.1, option 1) — use
// MinWeightProjection for option 2.

#ifndef ANYK_QUERY_SQL_H_
#define ANYK_QUERY_SQL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "query/cq.h"
#include "storage/database.h"

namespace anyk {

struct SqlStatement {
  ConjunctiveQuery query;
  bool ascending = true;  // ORDER BY WEIGHT ASC (lightest first)
  // 0 = no LIMIT clause (unlimited) — the same "0 means unbounded" sentinel
  // as EnumOptions::k_budget. An explicit `LIMIT 0` is rejected at parse
  // time so the sentinel can never be spelled by accident.
  size_t limit = 0;
  // Variable ids of the SELECT list (empty for SELECT *).
  std::vector<uint32_t> select_vars;
};

/// Parse the SQL dialect above; CHECK-fails on syntax errors with a
/// `SQL:<byte offset>:` prefix locating the offending token. With a
/// database, relation arities are taken from it (otherwise every table
/// defaults to the largest referenced column, at least binary).
SqlStatement ParseSql(const std::string& sql, const Database* db = nullptr);

/// Canonical form of a statement, for use as a cache key: keywords
/// uppercased, whitespace collapsed to single spaces, the implicit ASC made
/// explicit, the trailing semicolon dropped, column names canonicalized
/// (a3 -> A3), each WHERE equality ordered smaller-side-first and the
/// conjunct list sorted — so case/whitespace/conjunct-order variants of the
/// same query map to one key. FROM order is preserved: it determines the
/// SELECT * column order, so reordering it would change results. The
/// normalized text re-parses to an equivalent statement (sql_test pins
/// this); CHECK-fails like ParseSql on syntax errors. With `ascending`,
/// also reports the ORDER BY direction, so a caller that only needs the key
/// and the direction parses the statement once.
std::string NormalizeSql(const std::string& sql, bool* ascending = nullptr);

}  // namespace anyk

#endif  // ANYK_QUERY_SQL_H_
