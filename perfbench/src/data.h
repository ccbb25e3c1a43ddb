// Seeded input generation for the three workloads.
//
// Every relation is binary with integral weights in [1, 100]: sums and
// products of up to six such weights are exact in doubles, so weight
// sequences compare bit-for-bit across algorithms. Relations are written to
// CSV and read back through the storage layer's LoadRelationCsv, which is
// what the CLI does with user data.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/database.h"

namespace perfbench {

enum class RelKind {
  kUniform,    // both columns uniform over `domain`
  kSkewed,     // first column Zipf(s = 1) over `domain` with fixed degrees,
               // second uniform
  kCycle,      // NPRR worst case: (0, i) and (i, 0) for i in 1..rows/2
  kProduct,    // one shared join value: (0, i) ... every row joins every row
};

struct RelSpec {
  std::string name;
  RelKind kind = RelKind::kUniform;
  size_t rows = 0;
  size_t domain = 0;
};

/// Fill `db` with the relations of `specs`, drawn from `seed`.
void GenerateRelations(const std::vector<RelSpec>& specs, uint64_t seed,
                       anyk::Database* db);

struct LoadStats {
  double load_seconds = 0;  // LoadRelationCsv calls only
  size_t rows = 0;
};

/// Write every relation of `src` to `dir`/<name>.csv, load them back into a
/// fresh database with LoadRelationCsv and delete the files.
anyk::Database RoundTripCsv(const anyk::Database& src,
                            const std::vector<RelSpec>& specs,
                            const std::string& dir, LoadStats* stats);

/// The four selective dioids the engine serves, by their CLI / server name.
const std::vector<std::string>& DioidNames();

/// ORDER BY direction the dioid ranks by (min-* ascending).
bool DioidAscending(const std::string& dioid);

/// SQL text of the query shapes the workloads draw from. `rels` are the
/// relation names, one per atom; `limit` 0 omits the LIMIT clause.
std::string PathSql(const std::vector<std::string>& rels, bool ascending,
                    size_t limit);
std::string StarSql(const std::vector<std::string>& rels, bool ascending,
                    size_t limit);
std::string CycleSql(const std::vector<std::string>& rels, bool ascending,
                     size_t limit);
/// Triangle over one edge relation (three aliases of `rel`).
std::string TriangleSql(const std::string& rel, bool ascending, size_t limit);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
