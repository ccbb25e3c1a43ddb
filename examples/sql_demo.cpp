// SQL front-end demo: run ranked-enumeration SQL against a generated graph.
//
//   ./build/examples/sql_demo                          # canned queries
//   ./build/examples/sql_demo "SELECT * FROM E e1, E e2
//        WHERE e1.A2 = e2.A1 ORDER BY WEIGHT ASC LIMIT 3"
//
// The demo database has one binary relation E (a weighted power-law graph)
// plus aliases R1..R4 so the paper's queries paste in directly.

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "anyk_api.h"
#include "server/query_handle.h"
#include "workload/graph_gen.h"

using namespace anyk;

namespace {

void Run(const Database& db, const std::string& sql) {
  std::printf("\nsql> %s\n", sql.c_str());
  const SqlStatement stmt = ParseSql(sql, &db);
  std::printf("  -> %s\n", stmt.query.ToString().c_str());
  // No dioid named: ASC ranks by min-sum, DESC by max-sum.
  const auto handle = server::MakeQueryHandle(db, stmt, "", nullptr);
  const auto stream = handle->Open(Algorithm::kLazy);
  stream->FetchPage(5, [](size_t, double weight,
                          const std::vector<Value>& values) {
    std::printf("  weight=%-8.0f (", weight);
    for (size_t c = 0; c < values.size(); ++c) {
      std::printf("%s%lld", c ? ", " : "",
                  static_cast<long long>(values[c]));
    }
    std::printf(")\n");
  });
  while (!stream->done()) stream->FetchPage(1024, nullptr);
  if (stream->produced() > 5) {
    std::printf("  ... %zu rows total\n", stream->produced());
  }
}

}  // namespace

int main(int argc, char** argv) {
  GraphStats stats;
  Database db = MakeBitcoinStandIn(2000, 12000, 4, 99, &stats);
  {
    // Also expose the edge table under the name "E" for self-join queries.
    const Relation& r1 = db.Get("R1");
    Relation e("E", 2);
    for (size_t r = 0; r < r1.NumRows(); ++r) e.AddRow(r1.Row(r), r1.Weight(r));
    db.AddRelation(std::move(e));
  }
  std::printf("demo graph: %zu nodes, %zu weighted edges (tables E, R1..R4)\n",
              stats.nodes, stats.edges);

  if (argc > 1) {
    Run(db, argv[1]);
    return 0;
  }

  Run(db, "SELECT * FROM E e1, E e2 WHERE e1.A2 = e2.A1 "
          "ORDER BY WEIGHT ASC LIMIT 5");
  Run(db, "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1 "
          "ORDER BY WEIGHT DESC LIMIT 5");
  Run(db, "SELECT R1.A1, R2.A1, R3.A1, R4.A1 FROM R1, R2, R3, R4 "
          "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND R3.A2 = R4.A1 "
          "AND R4.A2 = R1.A1 ORDER BY WEIGHT ASC LIMIT 5");
  return 0;
}
