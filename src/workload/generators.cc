#include "workload/generators.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/logging.h"

namespace anyk {

namespace {
double RandomWeight(Rng* rng, const GeneratorOptions& opts) {
  return static_cast<double>(rng->Uniform(opts.weight_min, opts.weight_max));
}
std::string RelName(size_t i) {
  std::string name = "R";  // not operator+: GCC 12 -O3 -Wrestrict
  name += std::to_string(i + 1);
  return name;
}
}  // namespace

void AddUniformBinaryRelation(Database* db, const std::string& name, size_t n,
                              size_t domain, Rng* rng,
                              const GeneratorOptions& opts) {
  Relation& rel = db->AddRelation(name, 2);
  rel.Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    rel.Add({static_cast<Value>(rng->Below(domain)),
             static_cast<Value>(rng->Below(domain))},
            RandomWeight(rng, opts));
  }
}

Database MakePathDatabase(size_t n, size_t l, uint64_t seed,
                          const GeneratorOptions& opts) {
  Rng rng(seed);
  const size_t domain =
      std::max<size_t>(1, static_cast<size_t>(std::llround(n / opts.fanout)));
  Database db;
  for (size_t i = 0; i < l; ++i) {
    AddUniformBinaryRelation(&db, RelName(i), n, domain, &rng, opts);
  }
  return db;
}

Database MakeStarDatabase(size_t n, size_t l, uint64_t seed,
                          const GeneratorOptions& opts) {
  // Identical distribution; the star shape comes from the query.
  return MakePathDatabase(n, l, seed, opts);
}

Database MakeWorstCaseCycleDatabase(size_t n, size_t l, uint64_t seed,
                                    const GeneratorOptions& opts) {
  Rng rng(seed);
  Database db;
  const size_t half = std::max<size_t>(1, n / 2);
  for (size_t i = 0; i < l; ++i) {
    Relation& rel = db.AddRelation(RelName(i), 2);
    rel.Reserve(2 * half);
    for (size_t v = 1; v <= half; ++v) {
      rel.Add({0, static_cast<Value>(v)}, RandomWeight(&rng, opts));
      rel.Add({static_cast<Value>(v), 0}, RandomWeight(&rng, opts));
    }
  }
  return db;
}

Database MakeCartesianDatabase(size_t n, size_t l, uint64_t seed,
                               const GeneratorOptions& opts) {
  Rng rng(seed);
  Database db;
  for (size_t i = 0; i < l; ++i) {
    Relation& rel = db.AddRelation(RelName(i), 2);
    rel.Reserve(n);
    for (size_t r = 0; r < n; ++r) {
      // First column joins (single value 0), second column is a payload
      // that makes tuples distinct.
      rel.Add({0, static_cast<Value>(r)}, RandomWeight(&rng, opts));
    }
  }
  return db;
}

Database MakeRecursiveWorstCaseDatabase(size_t n, size_t l) {
  // Tuple j of relation i weighs j * (n+1)^{l-1-i}: earlier stages dominate
  // strictly, so the k-th result (k <= n) differs from the (k-1)-st only in
  // the last relation — no suffix ranking is ever reused. Weights stay
  // integral; keep (n+1)^l below 2^53 for exact double arithmetic.
  Database db;
  const double base = static_cast<double>(n + 1);
  ANYK_CHECK_LT(std::pow(base, static_cast<double>(l)), 9.0e15)
      << "weights would lose integer exactness";
  for (size_t i = 0; i < l; ++i) {
    Relation& rel = db.AddRelation(RelName(i), 2);
    rel.Reserve(n);
    const double scale = std::pow(base, static_cast<double>(l - 1 - i));
    for (size_t r = 0; r < n; ++r) {
      rel.Add({0, static_cast<Value>(r)},
              static_cast<double>(r + 1) * scale);
    }
  }
  return db;
}

}  // namespace anyk
