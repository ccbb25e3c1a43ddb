// Query-layer tests: CQ construction/parsing, hypergraphs, GYO acyclicity,
// join-tree topologies and keys, storage primitives.

#include <array>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "query/cq.h"
#include "query/gyo.h"
#include "query/join_tree.h"
#include "storage/group_index.h"

namespace anyk {
namespace {

TEST(CqTest, FactoriesProduceExpectedShapes) {
  auto p = ConjunctiveQuery::Path(3);
  EXPECT_EQ(p.NumAtoms(), 3u);
  EXPECT_EQ(p.NumVars(), 4u);
  EXPECT_EQ(p.ToString(), "Q(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)");

  auto s = ConjunctiveQuery::Star(3);
  EXPECT_EQ(s.NumVars(), 4u);
  EXPECT_EQ(s.AtomVarIds(0)[0], s.AtomVarIds(2)[0]);  // shared center

  auto c = ConjunctiveQuery::Cycle(4);
  EXPECT_EQ(c.NumVars(), 4u);
  EXPECT_EQ(c.AtomVarIds(3)[1], c.AtomVarIds(0)[0]);  // closes

  auto x = ConjunctiveQuery::Product(2);
  EXPECT_EQ(x.NumVars(), 4u);
}

TEST(CqTest, ParseRoundTrip) {
  auto q = ConjunctiveQuery::Parse("Q(x,y) :- R(x,z), S(z,y)");
  EXPECT_EQ(q.NumAtoms(), 2u);
  EXPECT_EQ(q.NumVars(), 3u);
  ASSERT_EQ(q.FreeVarIds().size(), 2u);
  EXPECT_EQ(q.VarName(q.FreeVarIds()[0]), "x");
  EXPECT_EQ(q.VarName(q.FreeVarIds()[1]), "y");

  auto full = ConjunctiveQuery::Parse("Q(*) :- R(a,b), S(b,c)");
  EXPECT_TRUE(full.IsFull());

  auto full2 = ConjunctiveQuery::Parse("Q(a,b,c) :- R(a,b), S(b,c)");
  EXPECT_TRUE(full2.IsFull());  // head covers all variables
}

TEST(GyoTest, PathsStarsAcyclic) {
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Path(2)));
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Path(6)));
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Star(5)));
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Product(3)));
}

TEST(GyoTest, CyclesCyclic) {
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery::Cycle(3)));
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery::Cycle(4)));
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery::Cycle(6)));
}

TEST(GyoTest, AlphaAcyclicityOfCoveredCycle) {
  // A triangle plus a big atom covering all three variables IS
  // alpha-acyclic (the classic example distinguishing alpha from gamma).
  ConjunctiveQuery q;
  q.AddAtom("R1", {"a", "b"});
  q.AddAtom("R2", {"b", "c"});
  q.AddAtom("R3", {"c", "a"});
  q.AddAtom("Big", {"a", "b", "c"});
  EXPECT_TRUE(IsAcyclic(q));
}

TEST(GyoTest, JoinTreeParentsAreValid) {
  auto q = ConjunctiveQuery::Path(5);
  auto gyo = GyoReduce(Hypergraph::FromQuery(q));
  ASSERT_TRUE(gyo.acyclic);
  // Exactly one root; every parent index in range; no cycles.
  int roots = 0;
  for (size_t i = 0; i < q.NumAtoms(); ++i) {
    if (gyo.tree.parent[i] < 0) {
      ++roots;
    } else {
      EXPECT_LT(gyo.tree.parent[i], static_cast<int>(q.NumAtoms()));
    }
  }
  EXPECT_EQ(roots, 1);
}

TEST(GyoTest, FreeConnexClassification) {
  // QP2 with head {x1}: free-connex.
  auto q1 = ConjunctiveQuery::Parse("Q(x1) :- R1(x1,x2), R2(x2,x3)");
  EXPECT_TRUE(IsFreeConnexAcyclic(q1));
  // QP2 with head {x1, x3}: acyclic but NOT free-connex (the classic
  // matrix-multiplication-hard projection).
  auto q2 = ConjunctiveQuery::Parse("Q(x1,x3) :- R1(x1,x2), R2(x2,x3)");
  EXPECT_FALSE(IsFreeConnexAcyclic(q2));
  // Example 19 of the paper is free-connex.
  auto q3 = ConjunctiveQuery::Parse(
      "Q(y1,y2,y3,y4) :- R1(y1,y2), R2(y2,y3), R3(z1,y1,y4), R4(z2,y3)");
  EXPECT_TRUE(IsFreeConnexAcyclic(q3));
}

TEST(JoinTreeTest, KeysAreSharedVariables) {
  auto q = ConjunctiveQuery::Path(3);
  Database db;
  for (int i = 1; i <= 3; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    db.AddRelation(name, 2).Add({1, 1}, 0.0);
  }
  TDPInstance inst = BuildAcyclicInstance(db, q);
  ASSERT_EQ(inst.nodes.size(), 3u);
  for (const auto& node : inst.nodes) {
    if (node.parent < 0) continue;
    ASSERT_EQ(node.key_cols.size(), node.parent_key_cols.size());
    for (size_t i = 0; i < node.key_cols.size(); ++i) {
      EXPECT_EQ(node.vars[node.key_cols[i]],
                inst.nodes[node.parent].vars[node.parent_key_cols[i]]);
    }
  }
  // Preorder starts at the root and visits parents before children.
  std::vector<bool> seen(inst.nodes.size(), false);
  for (uint32_t u : inst.order) {
    if (inst.nodes[u].parent >= 0) {
      EXPECT_TRUE(seen[inst.nodes[u].parent]);
    }
    seen[u] = true;
  }
}

TEST(StorageTest, RelationBasics) {
  Relation rel("R", 3);
  rel.Add({1, 2, 3}, 0.5);
  rel.Add({4, 5, 6}, 1.5);
  EXPECT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.At(1, 2), 6);
  EXPECT_DOUBLE_EQ(rel.Weight(0), 0.5);
  auto row = rel.Row(1);
  EXPECT_EQ(std::vector<Value>(row.begin(), row.end()),
            (std::vector<Value>{4, 5, 6}));
}

TEST(StorageTest, GroupIndexGroupsByKey) {
  Relation rel("R", 2);
  rel.Add({1, 10}, 0);
  rel.Add({2, 20}, 0);
  rel.Add({1, 30}, 0);
  rel.Add({1, 10}, 0);  // duplicate row
  const uint32_t col0 = 0;
  GroupIndex idx(rel, std::span<const uint32_t>(&col0, 1));
  EXPECT_EQ(idx.NumGroups(), 2u);
  EXPECT_EQ(idx.Lookup({1}).size(), 3u);
  EXPECT_EQ(idx.Lookup({2}).size(), 1u);
  EXPECT_TRUE(idx.Lookup({99}).empty());
}

TEST(StorageTest, GroupIndexCompositeAndEmptyKey) {
  Relation rel("R", 2);
  rel.Add({1, 10}, 0);
  rel.Add({1, 20}, 0);
  rel.Add({2, 10}, 0);
  GroupIndex both(rel, std::array<uint32_t, 2>{0, 1});
  EXPECT_EQ(both.NumGroups(), 3u);
  GroupIndex none(rel, std::span<const uint32_t>{});
  EXPECT_EQ(none.NumGroups(), 1u);
  EXPECT_EQ(none.Lookup(Key{}).size(), 3u);
}

TEST(DatabaseTest, SelfJoinAliasing) {
  Database db;
  db.AddRelation("E", 2).Add({1, 2}, 1.0);
  EXPECT_TRUE(db.Has("E"));
  EXPECT_EQ(db.Get("E").NumRows(), 1u);
  EXPECT_EQ(db.MaxCardinality(), 1u);
}

}  // namespace
}  // namespace anyk
