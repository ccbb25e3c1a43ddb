#include "data.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/csv.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {

using anyk::Database;
using anyk::Relation;
using anyk::Rng;
using anyk::Value;

namespace {

double RandomWeight(Rng* rng) {
  return static_cast<double>(rng->Uniform(1, 100));
}

/// First-column values of a skewed relation: value v appears in a share of
/// the rows proportional to 1 / (v + 1) (Zipf, s = 1), rounded so the
/// degrees — and with them the output sizes of joins on that column — are
/// the same for every seed. The seed only shuffles the rows.
std::vector<Value> ZipfColumn(size_t rows, size_t domain, Rng* rng) {
  double h = 0;
  for (size_t v = 0; v < domain; ++v) h += 1.0 / static_cast<double>(v + 1);
  std::vector<Value> col;
  col.reserve(rows);
  double carry = 0;
  for (size_t v = 0; v < domain && col.size() < rows; ++v) {
    carry += static_cast<double>(rows) / (h * static_cast<double>(v + 1));
    for (; carry >= 1 && col.size() < rows; carry -= 1) {
      col.push_back(static_cast<Value>(v));
    }
  }
  while (col.size() < rows) col.push_back(static_cast<Value>(domain - 1));
  rng->Shuffle(&col);
  return col;
}

void AddRelation(const RelSpec& spec, Rng* rng, Database* db) {
  Relation& rel = db->AddRelation(spec.name, 2);
  rel.Reserve(spec.rows);
  const size_t domain = std::max<size_t>(1, spec.domain);
  switch (spec.kind) {
    case RelKind::kUniform:
      for (size_t r = 0; r < spec.rows; ++r) {
        rel.Add({static_cast<Value>(rng->Below(domain)),
                 static_cast<Value>(rng->Below(domain))},
                RandomWeight(rng));
      }
      break;
    case RelKind::kSkewed:
      for (const Value v : ZipfColumn(spec.rows, domain, rng)) {
        rel.Add({v, static_cast<Value>(rng->Below(domain))}, RandomWeight(rng));
      }
      break;
    case RelKind::kCycle:
      for (size_t v = 1; v <= std::max<size_t>(1, spec.rows / 2); ++v) {
        rel.Add({0, static_cast<Value>(v)}, RandomWeight(rng));
        rel.Add({static_cast<Value>(v), 0}, RandomWeight(rng));
      }
      break;
    case RelKind::kProduct:
      for (size_t r = 0; r < spec.rows; ++r) {
        rel.Add({0, static_cast<Value>(r)}, RandomWeight(rng));
      }
      break;
  }
}

std::string Direction(bool ascending) {
  return ascending ? " ORDER BY WEIGHT ASC" : " ORDER BY WEIGHT DESC";
}

std::string Limit(size_t limit) {
  return limit == 0 ? "" : " LIMIT " + std::to_string(limit);
}

std::string From(const std::vector<std::string>& rels) {
  std::string s = "SELECT * FROM ";
  for (size_t i = 0; i < rels.size(); ++i) {
    if (i > 0) s += ", ";
    s += rels[i];
  }
  return s;
}

std::string Conjuncts(const std::vector<std::string>& eqs) {
  std::string s = " WHERE ";
  for (size_t i = 0; i < eqs.size(); ++i) {
    if (i > 0) s += " AND ";
    s += eqs[i];
  }
  return s;
}

}  // namespace

void GenerateRelations(const std::vector<RelSpec>& specs, uint64_t seed,
                       Database* db) {
  Rng rng(seed);
  for (const RelSpec& spec : specs) AddRelation(spec, &rng, db);
}

Database RoundTripCsv(const Database& src, const std::vector<RelSpec>& specs,
                      const std::string& dir, LoadStats* stats) {
  Database out;
  anyk::CsvOptions csv;
  csv.weight_last = true;
  for (const RelSpec& spec : specs) {
    const std::string path = dir + "/" + spec.name + ".csv";
    anyk::SaveRelationCsv(src.Get(spec.name), path);
    anyk::Timer load;
    const Relation& rel = anyk::LoadRelationCsv(&out, spec.name, path, csv);
    stats->load_seconds += load.Seconds();
    stats->rows += rel.NumRows();
    std::remove(path.c_str());
  }
  return out;
}

const std::vector<std::string>& DioidNames() {
  static const std::vector<std::string> names = {"min-sum", "max-sum",
                                                 "min-max", "max-times"};
  return names;
}

bool DioidAscending(const std::string& dioid) {
  return dioid.rfind("min-", 0) == 0;
}

std::string PathSql(const std::vector<std::string>& rels, bool ascending,
                    size_t limit) {
  std::vector<std::string> eqs;
  for (size_t i = 0; i + 1 < rels.size(); ++i) {
    eqs.push_back(rels[i] + ".A2 = " + rels[i + 1] + ".A1");
  }
  return From(rels) + Conjuncts(eqs) + Direction(ascending) + Limit(limit);
}

std::string StarSql(const std::vector<std::string>& rels, bool ascending,
                    size_t limit) {
  std::vector<std::string> eqs;
  for (size_t i = 1; i < rels.size(); ++i) {
    eqs.push_back(rels[0] + ".A1 = " + rels[i] + ".A1");
  }
  return From(rels) + Conjuncts(eqs) + Direction(ascending) + Limit(limit);
}

std::string CycleSql(const std::vector<std::string>& rels, bool ascending,
                     size_t limit) {
  std::vector<std::string> eqs;
  for (size_t i = 0; i < rels.size(); ++i) {
    eqs.push_back(rels[i] + ".A2 = " + rels[(i + 1) % rels.size()] + ".A1");
  }
  return From(rels) + Conjuncts(eqs) + Direction(ascending) + Limit(limit);
}

std::string TriangleSql(const std::string& rel, bool ascending,
                        size_t limit) {
  return "SELECT * FROM " + rel + " e1, " + rel + " e2, " + rel +
         " e3 WHERE e1.A2 = e2.A1 AND e2.A2 = e3.A1 AND e3.A2 = e1.A1" +
         Direction(ascending) + Limit(limit);
}

}  // namespace perfbench
