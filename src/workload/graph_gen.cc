#include "workload/graph_gen.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "workload/pagerank.h"

namespace anyk {

namespace {

// Sample node ids from a Zipf(skew) distribution via the cumulative table.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double skew) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  uint32_t Sample(Rng* rng) const {
    const double u = rng->UniformDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

Database EdgesToDatabase(
    const std::vector<std::pair<uint32_t, uint32_t>>& edges,
    const std::vector<double>& weights, size_t l) {
  Database db;
  for (size_t i = 0; i < l; ++i) {
    std::string name = "R";  // not operator+: GCC 12 -O3 -Wrestrict
    name += std::to_string(i + 1);
    Relation& rel = db.AddRelation(name, 2);
    rel.Reserve(edges.size());
    for (size_t e = 0; e < edges.size(); ++e) {
      rel.Add({static_cast<Value>(edges[e].first),
               static_cast<Value>(edges[e].second)},
              weights[e]);
    }
  }
  return db;
}

}  // namespace

std::vector<std::pair<uint32_t, uint32_t>> MakePowerLawEdges(
    size_t num_nodes, size_t num_edges, double skew, uint64_t seed) {
  ANYK_CHECK_GE(num_nodes, 2u);
  Rng rng(seed);
  ZipfSampler sampler(num_nodes, skew);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(num_edges);
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  size_t attempts = 0;
  const size_t max_attempts = num_edges * 50 + 1000;
  while (edges.size() < num_edges && attempts < max_attempts) {
    ++attempts;
    // Skewed target (popular accounts attract edges), uniform-ish source
    // with mild skew.
    uint32_t u = sampler.Sample(&rng);
    uint32_t v = sampler.Sample(&rng);
    if (rng.Bernoulli(0.5)) u = static_cast<uint32_t>(rng.Below(num_nodes));
    if (u == v) continue;
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    if (!seen.insert(key).second) continue;
    edges.emplace_back(u, v);
  }
  return edges;
}

GraphStats ComputeGraphStats(
    size_t num_nodes,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  GraphStats stats;
  stats.nodes = num_nodes;
  stats.edges = edges.size();
  std::vector<size_t> degree(num_nodes, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  for (size_t d : degree) stats.max_degree = std::max(stats.max_degree, d);
  stats.avg_degree =
      num_nodes == 0 ? 0.0 : static_cast<double>(2 * edges.size()) / num_nodes;
  return stats;
}

Database MakeBitcoinStandIn(size_t num_nodes, size_t num_edges, size_t l,
                            uint64_t seed, GraphStats* stats) {
  auto edges = MakePowerLawEdges(num_nodes, num_edges, 0.9, seed);
  if (stats != nullptr) *stats = ComputeGraphStats(num_nodes, edges);
  Rng rng(seed ^ 0xB17C01F1ULL);
  std::vector<double> weights(edges.size());
  for (double& w : weights) {
    // Trust score in [-10, 10], shifted to [0, 20] (rank-preserving).
    w = static_cast<double>(rng.Uniform(-10, 10) + 10);
  }
  return EdgesToDatabase(edges, weights, l);
}

Database MakeTwitterStandIn(size_t num_nodes, size_t num_edges, size_t l,
                            uint64_t seed, GraphStats* stats) {
  auto edges = MakePowerLawEdges(num_nodes, num_edges, 1.1, seed);
  if (stats != nullptr) *stats = ComputeGraphStats(num_nodes, edges);
  const std::vector<double> pr = PageRank(num_nodes, edges);
  std::vector<double> weights(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    weights[e] =
        std::round((pr[edges[e].first] + pr[edges[e].second]) * 1e6);
  }
  return EdgesToDatabase(edges, weights, l);
}

}  // namespace anyk
