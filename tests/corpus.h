// Seeded random query/instance corpus shared by the differential oracle
// (tests/differential_test.cc) and the planner oracle
// (tests/planner_test.cc): paths, stars, simple cycles, mixed-arity random
// trees, and duplicate-weight-heavy instances. Everything is driven by one
// seed, so a failure message's seed reproduces the exact case anywhere.

#ifndef ANYK_TESTS_CORPUS_H_
#define ANYK_TESTS_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "query/cq.h"
#include "storage/database.h"
#include "util/random.h"

namespace anyk {
namespace corpus {

struct GeneratedCase {
  Database db;
  ConjunctiveQuery q;
  std::string label;
};

inline void FillBinaryRelation(Rng* rng, Relation* rel, size_t rows,
                               int64_t domain, int64_t weight_max) {
  for (size_t r = 0; r < rows; ++r) {
    rel->Add({rng->Uniform(0, domain), rng->Uniform(0, domain)},
             static_cast<double>(rng->Uniform(0, weight_max)));
  }
}

inline GeneratedCase MakePathCase(uint64_t seed) {
  Rng rng(seed);
  const size_t l = 2 + rng.Below(4);              // 2..5 atoms
  const size_t rows = 8 + rng.Below(25);          // 8..32 rows
  const int64_t domain = 2 + rng.Uniform(0, 4);   // join selectivity knob
  const int64_t wmax = rng.Bernoulli(0.3) ? 2 : 50;  // 30%: heavy ties
  GeneratedCase c;
  c.label = "path" + std::to_string(l);
  for (size_t i = 1; i <= l; ++i) {
    auto& rel = c.db.AddRelation("R" + std::to_string(i), 2);
    FillBinaryRelation(&rng, &rel, rows, domain, wmax);
  }
  c.q = ConjunctiveQuery::Path(l);
  return c;
}

inline GeneratedCase MakeStarCase(uint64_t seed) {
  Rng rng(seed);
  const size_t leaves = 2 + rng.Below(4);         // 2..5 atoms around center
  const size_t rows = 8 + rng.Below(20);
  const int64_t domain = 2 + rng.Uniform(0, 3);
  const int64_t wmax = rng.Bernoulli(0.3) ? 3 : 40;
  GeneratedCase c;
  c.label = "star" + std::to_string(leaves);
  // Star: all atoms share the center variable x0: Si(x0, yi).
  for (size_t i = 1; i <= leaves; ++i) {
    auto& rel = c.db.AddRelation("S" + std::to_string(i), 2);
    FillBinaryRelation(&rng, &rel, rows, domain, wmax);
    c.q.AddAtom("S" + std::to_string(i), {"x0", "y" + std::to_string(i)});
  }
  return c;
}

inline GeneratedCase MakeCycleCase(uint64_t seed) {
  Rng rng(seed);
  const size_t l = 4 + rng.Below(3);              // 4..6 atoms
  const size_t rows = 8 + rng.Below(14);
  const int64_t domain = 2 + rng.Uniform(0, 2);
  const int64_t wmax = rng.Bernoulli(0.3) ? 2 : 30;
  GeneratedCase c;
  c.label = "cycle" + std::to_string(l);
  for (size_t i = 1; i <= l; ++i) {
    auto& rel = c.db.AddRelation("C" + std::to_string(i), 2);
    FillBinaryRelation(&rng, &rel, rows, domain, wmax);
  }
  c.q = ConjunctiveQuery::Cycle(l, "C");
  return c;
}

// Random tree-shaped CQ with mixed arities 2..4: atom i joins a random
// earlier atom on one shared variable and introduces 1-3 fresh variables.
inline GeneratedCase MakeTreeCase(uint64_t seed) {
  Rng rng(seed);
  const size_t atoms = 2 + rng.Below(4);          // 2..5 atoms
  const size_t rows = 6 + rng.Below(16);
  const int64_t domain = 2 + rng.Uniform(0, 3);
  const int64_t wmax = rng.Bernoulli(0.3) ? 2 : 60;
  GeneratedCase c;
  c.label = "tree" + std::to_string(atoms);
  std::vector<std::vector<std::string>> atom_vars(atoms);
  size_t fresh = 0;
  for (size_t i = 0; i < atoms; ++i) {
    std::vector<std::string> vars;
    if (i > 0) {
      const auto& pv = atom_vars[rng.Below(i)];
      vars.push_back(pv[rng.Below(pv.size())]);
    }
    const size_t extra = 1 + rng.Below(3);
    for (size_t e = 0; e < extra; ++e) {
      std::string var = "v";
      var += std::to_string(fresh++);
      vars.push_back(std::move(var));
    }
    rng.Shuffle(&vars);
    atom_vars[i] = vars;
    auto& rel = c.db.AddRelation("T" + std::to_string(i), vars.size());
    std::vector<Value> buf(vars.size());
    for (size_t r = 0; r < rows; ++r) {
      for (auto& v : buf) v = rng.Uniform(0, domain);
      rel.AddRow(buf, static_cast<double>(rng.Uniform(0, wmax)));
    }
    c.q.AddAtom("T" + std::to_string(i), vars);
  }
  return c;
}

inline GeneratedCase MakeCase(uint64_t seed) {
  switch (seed % 5) {
    case 0: return MakePathCase(seed);
    case 1: return MakeStarCase(seed);
    case 2: return MakeTreeCase(seed);
    case 3: return MakeCycleCase(seed);
    default: {
      // Duplicate-weight stress: every weight equal — the ranking is
      // decided purely by the tie-breaking dimension.
      GeneratedCase c = MakePathCase(seed * 31 + 7);
      c.label += "-allties";
      for (size_t i = 1; i <= 5; ++i) {
        const std::string name = "R" + std::to_string(i);
        if (!c.db.Has(name)) break;
        Relation& rel = c.db.GetMutable(name);
        for (size_t r = 0; r < rel.NumRows(); ++r) rel.SetWeight(r, 1.0);
      }
      return c;
    }
  }
}

}  // namespace corpus
}  // namespace anyk

#endif  // ANYK_TESTS_CORPUS_H_
