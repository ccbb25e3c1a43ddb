// User-supplied hypertree decompositions (paper Section 5.3): ranked
// enumeration over materialized bag trees for cyclic queries beyond simple
// cycles — chorded squares, triangles, K4 — checked against the oracle.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "query/bag_decomposition.h"
#include "query/cq.h"
#include "test_util.h"
#include "workload/generators.h"

namespace anyk {
namespace {

std::string AlgoName(const ::testing::TestParamInfo<Algorithm>& info) {
  return AlgorithmName(info.param);
}

class BagDecompositionTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(BagDecompositionTest, ChordedSquare) {
  // QC4 plus the chord R5(x1,x3): width-2 decomposition into two bags.
  Rng rng(301);
  Database db;
  for (int i = 1; i <= 5; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    auto& rel = db.AddRelation(name, 2);
    for (int t = 0; t < 60; ++t) {
      rel.Add({rng.Uniform(0, 8), rng.Uniform(0, 8)},
              static_cast<double>(rng.Uniform(0, 100)));
    }
  }
  ConjunctiveQuery q = ConjunctiveQuery::Cycle(4);
  q.AddAtom("R5", {"x1", "x3"});

  std::vector<BagSpec> bags = {
      {.cover_atoms = {0, 1, 4}, .pinned_atoms = {0, 1, 4}, .parent = -1},
      {.cover_atoms = {2, 3}, .pinned_atoms = {2, 3}, .parent = 0},
  };
  TDPInstance inst = BuildBagInstance(db, q, bags);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

TEST_P(BagDecompositionTest, TriangleSingleBag) {
  Database db = MakePathDatabase(40, 3, 302, {.fanout = 6.0});
  ConjunctiveQuery q = ConjunctiveQuery::Cycle(3);
  std::vector<BagSpec> bags = {
      {.cover_atoms = {0, 1, 2}, .pinned_atoms = {0, 1, 2}, .parent = -1}};
  TDPInstance inst = BuildBagInstance(db, q, bags);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

TEST_P(BagDecompositionTest, K4SingleBag) {
  Rng rng(303);
  Database db;
  for (int i = 1; i <= 6; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    auto& rel = db.AddRelation(name, 2);
    for (int t = 0; t < 50; ++t) {
      rel.Add({rng.Uniform(0, 6), rng.Uniform(0, 6)},
              static_cast<double>(rng.Uniform(0, 100)));
    }
  }
  // K4 over x1..x4.
  ConjunctiveQuery q;
  q.AddAtom("R1", {"x1", "x2"});
  q.AddAtom("R2", {"x2", "x3"});
  q.AddAtom("R3", {"x3", "x4"});
  q.AddAtom("R4", {"x4", "x1"});
  q.AddAtom("R5", {"x1", "x3"});
  q.AddAtom("R6", {"x2", "x4"});
  std::vector<BagSpec> bags = {{.cover_atoms = {0, 1, 2, 3, 4, 5},
                                .pinned_atoms = {0, 1, 2, 3, 4, 5},
                                .parent = -1}};
  TDPInstance inst = BuildBagInstance(db, q, bags);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

TEST_P(BagDecompositionTest, CoveredButUnpinnedAtomFiltersOnly) {
  // Cover the chord in BOTH bags but pin it once: results must not change
  // and weights must count the chord exactly once.
  Rng rng(304);
  Database db;
  for (int i = 1; i <= 5; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    auto& rel = db.AddRelation(name, 2);
    for (int t = 0; t < 50; ++t) {
      rel.Add({rng.Uniform(0, 7), rng.Uniform(0, 7)},
              static_cast<double>(rng.Uniform(0, 100)));
    }
  }
  ConjunctiveQuery q = ConjunctiveQuery::Cycle(4);
  q.AddAtom("R5", {"x1", "x3"});
  std::vector<BagSpec> bags = {
      {.cover_atoms = {0, 1, 4}, .pinned_atoms = {0, 1, 4}, .parent = -1},
      {.cover_atoms = {2, 3, 4}, .pinned_atoms = {2, 3}, .parent = 0},
  };
  TDPInstance inst = BuildBagInstance(db, q, bags);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

INSTANTIATE_TEST_SUITE_P(Algos, BagDecompositionTest,
                         ::testing::ValuesIn(AllRankedAlgorithms()), AlgoName);

TEST(BagDecompositionDeathTest, RejectsDoublePinning) {
  Database db = MakePathDatabase(5, 3, 305, {.fanout = 2.0});
  ConjunctiveQuery q = ConjunctiveQuery::Cycle(3);
  std::vector<BagSpec> bags = {
      {.cover_atoms = {0, 1, 2}, .pinned_atoms = {0, 1, 2}, .parent = -1},
      {.cover_atoms = {0}, .pinned_atoms = {0}, .parent = 0}};
  EXPECT_DEATH({ BuildBagInstance(db, q, bags); }, "pinned by two bags");
}

TEST(BagDecompositionDeathTest, RejectsUncoveredAtom) {
  Database db = MakePathDatabase(5, 3, 306, {.fanout = 2.0});
  ConjunctiveQuery q = ConjunctiveQuery::Cycle(3);
  std::vector<BagSpec> bags = {
      {.cover_atoms = {0, 1}, .pinned_atoms = {0, 1}, .parent = -1}};
  EXPECT_DEATH({ BuildBagInstance(db, q, bags); }, "not covered");
}

}  // namespace
}  // namespace anyk
