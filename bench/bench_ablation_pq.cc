// Ablation (google-benchmark): design choices called out in DESIGN.md.
// Deliberately outside the Reporter/BENCH_*.json pipeline (harness.h): this
// target is statistical micro-benchmarking, and google-benchmark already
// emits machine-readable output via --benchmark_format=json.
//  * ANYK-PART with a plain binary-heap candidate queue.
//  * Raw binary-heap op throughput.
//  * Strategy choice at fixed k (Take2 vs Lazy vs Eager vs All).

#include <benchmark/benchmark.h>
#include <cstddef>
#include <vector>

#include "anyk/anyk_part.h"
#include "anyk/strategies.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "util/binary_heap.h"
#include "util/random.h"
#include "workload/generators.h"

namespace {

using namespace anyk;

struct Shared {
  Database db;
  ConjunctiveQuery q;
  TDPInstance inst;
  StageGraph<TropicalDioid> g;
  Shared()
      : db(MakePathDatabase(100000, 4, 4242)),
        q(ConjunctiveQuery::Path(4)),
        inst(BuildAcyclicInstance(db, q)),
        g(BuildStageGraph<TropicalDioid>(inst)) {}
};

Shared& Instance() {
  static Shared s;
  return s;
}

template <template <class, class, class> class PQ>
void BM_AnyKPartCandPQ(benchmark::State& state) {
  auto& s = Instance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalDioid, Take2Strategy, PQ> e(&s.g);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_Take2BinaryHeapPQ(benchmark::State& state) {
  BM_AnyKPartCandPQ<BinaryHeap>(state);
}
BENCHMARK(BM_Take2BinaryHeapPQ)->Arg(1000)->Arg(10000)->Arg(50000);

template <template <class> class Strategy>
void BM_Strategy(benchmark::State& state) {
  auto& s = Instance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalDioid, Strategy> e(&s.g);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_StrategyTake2(benchmark::State& s) { BM_Strategy<Take2Strategy>(s); }
void BM_StrategyLazy(benchmark::State& s) { BM_Strategy<LazyStrategy>(s); }
void BM_StrategyEager(benchmark::State& s) { BM_Strategy<EagerStrategy>(s); }
void BM_StrategyAll(benchmark::State& s) { BM_Strategy<AllStrategy>(s); }
BENCHMARK(BM_StrategyTake2)->Arg(10000);
BENCHMARK(BM_StrategyLazy)->Arg(10000);
BENCHMARK(BM_StrategyEager)->Arg(10000);
BENCHMARK(BM_StrategyAll)->Arg(10000);

// Group vs monoid arithmetic (Section 6.2): with the dioid inverse, T-DP
// deviation weights update in O(1); without, the open frontier is rebuilt.
struct StarShared {
  Database db;
  ConjunctiveQuery q;
  TDPInstance inst;
  StageGraph<TropicalDioid> g_inv;
  StageGraph<TropicalMonoidDioid> g_mon;
  StarShared()
      : db(MakeStarDatabase(100000, 4, 777)),
        q(ConjunctiveQuery::Star(4)),
        inst(BuildAcyclicInstance(db, q)),
        g_inv(BuildStageGraph<TropicalDioid>(inst)),
        g_mon(BuildStageGraph<TropicalMonoidDioid>(inst)) {}
};

StarShared& StarInstance() {
  static StarShared s;
  return s;
}

void BM_Take2GroupInverse(benchmark::State& state) {
  auto& s = StarInstance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalDioid, Take2Strategy> e(&s.g_inv);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_Take2MonoidFallback(benchmark::State& state) {
  auto& s = StarInstance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalMonoidDioid, Take2Strategy> e(&s.g_mon);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_Take2GroupInverse)->Arg(20000);
BENCHMARK(BM_Take2MonoidFallback)->Arg(20000);

void BM_BinaryHeapOps(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> vals(1 << 16);
  for (auto& v : vals) v = static_cast<double>(rng.Uniform(0, 1 << 20));
  for (auto _ : state) {
    BinaryHeap<double> h;
    for (double v : vals) h.Push(v);
    double sink = 0;
    while (!h.Empty()) sink += h.PopMin();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * vals.size());
}
BENCHMARK(BM_BinaryHeapOps);

}  // namespace

BENCHMARK_MAIN();
