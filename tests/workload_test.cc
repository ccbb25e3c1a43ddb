// Workload generator tests: shapes and sizes of the synthetic instances and
// the analytic adversarial databases (I1, I2, factorized-bad).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "join/brute_force.h"
#include "query/cq.h"
#include "workload/generators.h"
#include "workload/graph_gen.h"
#include "workload/pagerank.h"
#include "workload/paper_instances.h"

namespace anyk {
namespace {

TEST(GeneratorTest, PathDatabaseShape) {
  Database db = MakePathDatabase(100, 3, 1);
  EXPECT_EQ(db.NumRelations(), 3u);
  EXPECT_EQ(db.Get("R1").NumRows(), 100u);
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_LT(db.Get("R2").At(r, 0), 10);  // domain n/fanout = 10
    EXPECT_GE(db.Get("R2").Weight(r), 0.0);
    EXPECT_LE(db.Get("R2").Weight(r), 10000.0);
  }
}

TEST(GeneratorTest, Deterministic) {
  Database a = MakePathDatabase(50, 2, 7);
  Database b = MakePathDatabase(50, 2, 7);
  for (size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(a.Get("R1").At(r, 0), b.Get("R1").At(r, 0));
    EXPECT_EQ(a.Get("R1").Weight(r), b.Get("R1").Weight(r));
  }
}

TEST(GeneratorTest, WorstCaseCycleOutputSize) {
  // Every (i, 0, j, 0) combination is a 4-cycle: output = 2*(n/2)^2 for the
  // construction with both "spoke" directions.
  const size_t n = 20;
  Database db = MakeWorstCaseCycleDatabase(n, 4, 3);
  auto rs = BruteForceJoin(db, ConjunctiveQuery::Cycle(4));
  // Paths 0 -> i -> 0 -> j -> 0 plus i -> 0 -> j -> 0 -> i patterns; the
  // construction guarantees Θ((n/2)^2) output.
  EXPECT_GE(rs.size(), (n / 2) * (n / 2));
}

TEST(GeneratorTest, RecursiveWorstCaseWeightsSeparateStages) {
  const size_t n = 5, l = 3;
  Database db = MakeRecursiveWorstCaseDatabase(n, l);
  // Tuple j of relation i weighs j * (n+1)^{l-1-i}: stage 1 in steps of 36,
  // stage 2 in steps of 6, stage 3 in steps of 1.
  EXPECT_DOUBLE_EQ(db.Get("R1").Weight(0), 36.0);
  EXPECT_DOUBLE_EQ(db.Get("R2").Weight(4), 30.0);
  EXPECT_DOUBLE_EQ(db.Get("R3").Weight(2), 3.0);
  // Adversarial property: the first n results differ only in the last
  // relation, i.e. any stage-1/stage-2 deviation outweighs the whole span of
  // stage 3.
  EXPECT_GT(db.Get("R2").Weight(1) - db.Get("R2").Weight(0),
            db.Get("R3").Weight(n - 1) - db.Get("R3").Weight(0));
}

TEST(PaperInstanceTest, I1HasQuadraticOutput) {
  const size_t n = 10;
  Database db = MakeI1Database(n, 5);
  EXPECT_EQ(db.Get("R1").NumRows(), 2 * n);
  auto rs = BruteForceJoin(db, ConjunctiveQuery::Cycle(4));
  // (a0, b_j, c0, d_i) combinations alone give n^2 results.
  EXPECT_GE(rs.size(), n * n);
}

TEST(PaperInstanceTest, I2TopResultUsesLightLightHeavy) {
  const size_t n = 12;
  Database db = MakeI2Database(n);
  // Max-plus top-1: r0 + s0 + t0 = 1 + 10 + 100n.
  double best = -1;
  auto rs = BruteForceJoin(db, ConjunctiveQuery::Path(3));
  for (size_t i = 0; i < rs.size(); ++i) {
    double w = 0;
    for (size_t a = 0; a < 3; ++a) {
      std::string name = "R";
      name += std::to_string(a + 1);
      w += db.Get(name).Weight(rs.witness(i)[a]);
    }
    best = std::max(best, w);
  }
  EXPECT_DOUBLE_EQ(best, 1.0 + 10.0 + 100.0 * n);
}

TEST(PaperInstanceTest, FactorizedBadIsFullProduct) {
  Database db = MakeFactorizedBadDatabase(15, 1);
  auto rs = BruteForceJoin(db, ConjunctiveQuery::Path(2));
  EXPECT_EQ(rs.size(), 225u);
}

TEST(GraphGenTest, PowerLawIsSkewed) {
  auto edges = MakePowerLawEdges(2000, 20000, 1.0, 11);
  EXPECT_GE(edges.size(), 19000u);
  GraphStats stats = ComputeGraphStats(2000, edges);
  // Max degree should far exceed the average under a power law.
  EXPECT_GT(stats.max_degree, static_cast<size_t>(stats.avg_degree * 5));
  // No self loops, no duplicates.
  for (const auto& [u, v] : edges) EXPECT_NE(u, v);
}

TEST(GraphGenTest, StandInsProduceRelations) {
  GraphStats stats;
  Database bitcoin = MakeBitcoinStandIn(500, 3000, 4, 13, &stats);
  EXPECT_EQ(bitcoin.NumRelations(), 4u);
  EXPECT_EQ(bitcoin.Get("R1").NumRows(), stats.edges);
  for (size_t r = 0; r < bitcoin.Get("R1").NumRows(); ++r) {
    EXPECT_GE(bitcoin.Get("R1").Weight(r), 0.0);
    EXPECT_LE(bitcoin.Get("R1").Weight(r), 20.0);
  }
  Database twitter = MakeTwitterStandIn(500, 3000, 3, 17);
  EXPECT_EQ(twitter.NumRelations(), 3u);
}

TEST(PageRankTest, UniformOnSymmetricGraph) {
  // 4-cycle graph: all nodes have equal rank.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}};
  auto pr = PageRank(4, edges);
  double sum = 0;
  for (double p : pr) {
    EXPECT_NEAR(p, 0.25, 1e-9);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, SinkAttractsRank) {
  // Star pointing at node 0: node 0 must outrank the leaves.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{1, 0}, {2, 0}, {3, 0}};
  auto pr = PageRank(4, edges);
  EXPECT_GT(pr[0], pr[1]);
  EXPECT_NEAR(pr[1], pr[2], 1e-12);
  double sum = pr[0] + pr[1] + pr[2] + pr[3];
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace anyk
