// The benchmark's side of the engine: pulling ranked streams through
// NextBatch with TTF / TT(k) / per-answer delay timing, checking them, and
// (for the traced run) the prepare pipeline called layer by layer with a
// span around each public entry point.
//
// PrepareTraced mirrors PreparedQuery's constructor with auto_plan on and no
// pool — GyoReduce, cycle detection and decomposition, topology planning,
// BuildInstanceFromTopology, BuildStageGraph, plan::DecideStrategy — and
// OpenTraced mirrors NewSession. The traced run checks that the replica
// builds what the library builds (ShapeOf: plan, decision, every stage's
// states and connectors) and returns the same answers, so the two cannot
// drift apart unnoticed; the per-layer counts are read from the library.

#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anyk/anyk_part.h"
#include "anyk/anyk_rec.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/union_anyk.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "join/generic_join.h"
#include "plan/planner.h"
#include "query/cycle_decomposition.h"
#include "query/gyo.h"
#include "query/hypergraph.h"
#include "query/join_tree.h"
#include "report.h"
#include "trace.h"
#include "util/alloc_stats.h"
#include "workloads.h"

namespace perfbench {

/// NextBatch size of every pull after the first answer.
inline constexpr size_t kBatch = 64;

/// Work counts of one enumeration, read from the enumerators' public
/// stats() accessors and the process allocation counters.
struct EnumCounts {
  uint64_t pops = 0;
  uint64_t pushes = 0;
  uint64_t max_cand = 0;
  uint64_t rec_heap_pops = 0;
  uint64_t allocs = 0;

  void Add(const EnumCounts& o) {
    pops += o.pops;
    pushes += o.pushes;
    max_cand = std::max(max_cand, o.max_cand);
    rec_heap_pops += o.rec_heap_pops;
    allocs += o.allocs;
  }
  bool operator==(const EnumCounts&) const = default;
};

/// What one pulled stream looked like.
struct StreamResult {
  size_t answers = 0;
  double ttf_s = 0;   // from the stream's start to its first answer
  double ttk_s = 0;   // from the stream's start to its last answer
  Clock::time_point first_at;  // when the first answer arrived
  Clock::time_point last_at;   // when the last answer arrived
  std::vector<double> delays_us;  // per answer, over full kBatch pulls
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a over weight bits
  size_t order_violations = 0;
  std::vector<double> weights;  // the first `keep` weights
};

inline void MixDigest(uint64_t* h, double w) {
  uint64_t bits = std::bit_cast<uint64_t>(w == 0 ? 0.0 : w);  // -0 == 0
  for (int i = 0; i < 8; ++i) {
    *h ^= bits & 0xff;
    *h *= 1099511628211ULL;
    bits >>= 8;
  }
}

/// Corrupt the first `*n` (at least two) rows of one pull as `plant` says;
/// false when this pull offers no place for it (kWeight needs two adjacent
/// answers of different weight).
template <class D>
bool ApplyPlant(Plant plant, std::vector<anyk::ResultRow<D>>* rows,
                size_t* n) {
  std::vector<anyk::ResultRow<D>>& r = *rows;
  switch (plant) {
    case Plant::kOrder: {
      const double first = static_cast<double>(r[0].weight);
      const bool better_is_lower = D::Less(0.0, 1.0);
      r[*n - 1].weight = better_is_lower ? first - 1 : first + 1;
      return true;
    }
    case Plant::kWeight:
      for (size_t i = *n - 1; i >= 1; --i) {
        if (r[i].weight != r[i - 1].weight) {
          r[i].weight = r[i - 1].weight;
          return true;
        }
      }
      return false;
    case Plant::kDrop:
      --*n;
      return true;
    case Plant::kNone:
      break;
  }
  return false;
}

/// Pull up to `limit` answers (0 = until exhausted) from `e`: one answer
/// first (TTF), then NextBatch(kBatch). `start` is when the stream's
/// operation began. Weights are order-checked and digested online. With
/// `*plant` set, the first pull that can take it gets the wrong answer and
/// `*plant` is cleared.
template <class D>
void PullStream(anyk::Enumerator<D>* e, size_t limit, size_t keep,
                Clock::time_point start, Plant* plant, StreamResult* out,
                std::vector<anyk::ResultRow<D>>* rows) {
  rows->resize(kBatch);
  bool have_prev = false;
  typename D::Value prev{};
  const auto consume = [&](size_t n) {
    if (*plant != Plant::kNone && n >= 2 && ApplyPlant<D>(*plant, rows, &n)) {
      *plant = Plant::kNone;
    }
    for (size_t i = 0; i < n; ++i) {
      const typename D::Value w = (*rows)[i].weight;
      if (have_prev && D::Less(w, prev)) ++out->order_violations;
      have_prev = true;
      prev = w;
      MixDigest(&out->digest, static_cast<double>(w));
      if (out->weights.size() < keep) out->weights.push_back(w);
    }
    out->answers += n;
  };
  size_t got = e->NextBatch(rows->data(), 1);
  auto now = Clock::now();
  out->first_at = out->last_at = now;
  out->ttf_s = out->ttk_s = SecondsBetween(start, now);
  consume(got);
  while (got > 0 && (limit == 0 || out->answers < limit)) {
    const size_t want =
        limit == 0 ? kBatch : std::min(kBatch, limit - out->answers);
    const auto t0 = Clock::now();
    got = e->NextBatch(rows->data(), want);
    now = Clock::now();
    if (got == kBatch) {
      out->delays_us.push_back(SecondsBetween(t0, now) * 1e6 / kBatch);
    }
    if (got > 0) {
      out->last_at = now;
      out->ttk_s = SecondsBetween(start, now);
    }
    consume(got);
    if (got < want) break;
  }
}

// ---------------------------------------------------------------------------
// Enumerator counters
// ---------------------------------------------------------------------------

template <class D, template <class> class S, template <class, class, class> class H>
bool AddPartCounts(const anyk::Enumerator<D>* e, EnumCounts* c) {
  const auto* p = dynamic_cast<const anyk::AnyKPartEnumerator<D, S, H>*>(e);
  if (p == nullptr) return false;
  c->pops += p->stats().pops;
  c->pushes += p->stats().pushes;
  c->max_cand = std::max<uint64_t>(c->max_cand, p->stats().max_cand_size);
  return true;
}

template <class D, template <class> class S>
bool AddStrategyCounts(const anyk::Enumerator<D>* e, EnumCounts* c) {
  return AddPartCounts<D, S, anyk::BoundedBinaryHeap>(e, c) ||
         AddPartCounts<D, S, anyk::BoundedQuadHeap>(e, c) ||
         AddPartCounts<D, S, anyk::BoundedOctHeap>(e, c);
}

/// Add `e`'s counters (ANYK-PART pops/pushes/max candidates, ANYK-REC heap
/// pops); Batch and the generic-join cursor have none.
template <class D>
void AddEnumCounts(const anyk::Enumerator<D>* e, EnumCounts* c) {
  if (const auto* r = dynamic_cast<const anyk::RecursiveEnumerator<D>*>(e)) {
    c->rec_heap_pops += r->stats().heap_pops;
    return;
  }
  AddStrategyCounts<D, anyk::Take2Strategy>(e, c) ||
      AddStrategyCounts<D, anyk::LazyStrategy>(e, c) ||
      AddStrategyCounts<D, anyk::EagerStrategy>(e, c) ||
      AddStrategyCounts<D, anyk::AllStrategy>(e, c);
}

// ---------------------------------------------------------------------------
// Traced prepare
// ---------------------------------------------------------------------------

/// What one prepare built and decided, read through public accessors: the
/// plan, the strategy decision, and every stage's NumStates / NumConns,
/// graph by graph.
struct PrepareShape {
  anyk::QueryPlan plan = anyk::QueryPlan::kAcyclicTree;
  anyk::Algorithm algorithm = anyk::Algorithm::kAuto;
  size_t heap_arity = 0;
  std::vector<uint64_t> stage_states;
  std::vector<uint64_t> stage_conns;
  uint64_t output_rows = 0;  // rows the generic-join fallback materialized

  uint64_t States() const {
    uint64_t n = 0;
    for (const uint64_t x : stage_states) n += x;
    return n;
  }
  uint64_t Connectors() const {
    uint64_t n = 0;
    for (const uint64_t x : stage_conns) n += x;
    return n;
  }
  bool operator==(const PrepareShape&) const = default;
};

template <class D>
PrepareShape ShapeOf(anyk::QueryPlan plan, const anyk::plan::PlanDecision& d,
                     const std::vector<std::unique_ptr<anyk::StageGraph<D>>>& graphs) {
  PrepareShape s;
  s.plan = plan;
  s.algorithm = d.algorithm;
  s.heap_arity = d.heap_arity;
  for (const auto& g : graphs) {
    for (const auto& st : g->stages) {
      s.stage_states.push_back(st.NumStates());
      s.stage_conns.push_back(st.NumConns());
    }
  }
  if (plan == anyk::QueryPlan::kGenericJoinBatch) {
    s.output_rows = static_cast<uint64_t>(d.stats.output_count);
  }
  return s;
}

template <class D>
PrepareShape ShapeOf(const anyk::PreparedQuery<D>& pq) {
  return ShapeOf<D>(pq.plan(), pq.decision(), pq.graphs());
}

template <class D>
struct TracedPrepared {
  anyk::QueryPlan plan = anyk::QueryPlan::kAcyclicTree;
  std::vector<anyk::TDPInstance> instances;
  std::vector<std::unique_ptr<anyk::StageGraph<D>>> graphs;
  anyk::plan::PlanDecision decision;
  // The generic-join plan materializes and sorts its output at prepare
  // time; its session comes from a PreparedQuery.
  std::unique_ptr<anyk::PreparedQuery<D>> fallback;

  PrepareShape Shape() const { return ShapeOf<D>(plan, decision, graphs); }
};

/// PreparedQuery options of every prepare the benchmark makes: no
/// witnesses, the statement's k as the budget, the planner on or off.
template <class D>
typename anyk::PreparedQuery<D>::Options PrepareOptions(size_t k_budget,
                                                        bool auto_plan) {
  typename anyk::PreparedQuery<D>::Options opts;
  opts.auto_plan = auto_plan;
  opts.enum_opts.with_witness = false;
  opts.enum_opts.k_budget = k_budget;
  return opts;
}

template <class D>
std::unique_ptr<TracedPrepared<D>> PrepareTraced(const anyk::Database& db,
                                                 const anyk::ConjunctiveQuery& q,
                                                 size_t k_budget, Tracer* t) {
  auto p = std::make_unique<TracedPrepared<D>>();
  const auto build_graphs = [&] {
    ScopedSpan span(t, "dp.build");
    for (const anyk::TDPInstance& inst : p->instances) {
      p->graphs.push_back(std::make_unique<anyk::StageGraph<D>>(
          anyk::BuildStageGraph<D>(inst)));
    }
  };
  const auto decide = [&] {
    ScopedSpan span(t, "plan.decide");
    p->decision = anyk::plan::DecideStrategy<D>(p->graphs, k_budget);
    p->decision.auto_topology = true;
  };

  anyk::GyoResult gyo;
  {
    ScopedSpan span(t, "query.decompose");
    gyo = anyk::GyoReduce(anyk::Hypergraph::FromQuery(q));
  }
  if (gyo.acyclic) {
    p->plan = anyk::QueryPlan::kAcyclicTree;
    {
      ScopedSpan span(t, "query.instance");
      const anyk::JoinTreeTopology normalized =
          anyk::NormalizeTopology(gyo.tree, q);
      p->instances.push_back(anyk::BuildInstanceFromTopology(
          db, q, anyk::plan::PlanTopology(db, q, normalized)));
    }
    build_graphs();
    decide();
  } else {
    anyk::CycleShape shape;
    {
      ScopedSpan span(t, "query.decompose");
      shape = anyk::DetectSimpleCycle(q);
      if (shape.is_cycle && q.NumAtoms() >= 4) {
        p->instances = anyk::DecomposeCycle(db, q);
      }
    }
    if (shape.is_cycle && q.NumAtoms() >= 4) {
      p->plan = anyk::QueryPlan::kCycleUnion;
      build_graphs();
      decide();
    } else {
      p->plan = anyk::QueryPlan::kGenericJoinBatch;
      // The fallback's prepare is GenericJoin plus one sort of its output.
      ScopedSpan span(t, "join.generic_join");
      p->fallback = std::make_unique<anyk::PreparedQuery<D>>(
          db, q, PrepareOptions<D>(k_budget, true));
      p->decision = p->fallback->decision();
    }
  }
  return p;
}

/// Empty when the replica (`a`, TracedPrepared::Shape) built and decided
/// what the library (`b`, ShapeOf a PreparedQuery) did; otherwise what
/// differs.
inline std::string ShapeDifference(const PrepareShape& a,
                                   const PrepareShape& b) {
  if (a.plan != b.plan) return "plan";
  if (a.algorithm != b.algorithm || a.heap_arity != b.heap_arity) {
    return std::string("decision (") + anyk::AlgorithmName(a.algorithm) +
           "/" + std::to_string(a.heap_arity) + " vs " +
           anyk::AlgorithmName(b.algorithm) + "/" +
           std::to_string(b.heap_arity) + ")";
  }
  if (a.stage_states != b.stage_states || a.stage_conns != b.stage_conns) {
    return "stage states / connectors";
  }
  if (a.output_rows != b.output_rows) return "generic-join output rows";
  return "";
}

/// Session over a traced prepare, resolved like PreparedQuery::NewSession.
/// `parts` receives the per-tree enumerators (for their counters); they are
/// owned by the returned enumerator.
template <class D>
std::unique_ptr<anyk::Enumerator<D>> OpenTraced(
    const TracedPrepared<D>& p, anyk::Algorithm algo, anyk::EnumOptions opts,
    std::vector<const anyk::Enumerator<D>*>* parts) {
  if (algo == anyk::Algorithm::kAuto) {
    algo = p.decision.algorithm;
    opts.heap_arity = p.decision.heap_arity;
  }
  parts->clear();
  switch (p.plan) {
    case anyk::QueryPlan::kAcyclicTree: {
      auto e = anyk::MakeEnumerator<D>(p.graphs[0].get(), algo, opts);
      parts->push_back(e.get());
      return e;
    }
    case anyk::QueryPlan::kCycleUnion: {
      std::vector<std::unique_ptr<anyk::Enumerator<D>>> owned;
      for (const auto& g : p.graphs) {
        owned.push_back(anyk::MakeEnumerator<D>(g.get(), algo, opts));
        parts->push_back(owned.back().get());
      }
      return std::make_unique<anyk::UnionEnumerator<D>>(
          std::move(owned), /*dedup=*/false, opts.k_budget);
    }
    case anyk::QueryPlan::kGenericJoinBatch:
      return p.fallback->NewSessionEnumerator(algo, opts);
  }
  return nullptr;
}

/// Call `fn.template operator()<D>()` with the dioid type named `dioid`.
template <class Fn>
auto WithDioid(const std::string& dioid, Fn&& fn) {
  if (dioid == "max-sum") return fn.template operator()<anyk::MaxPlusDioid>();
  if (dioid == "min-max") return fn.template operator()<anyk::MinMaxDioid>();
  if (dioid == "max-times") {
    return fn.template operator()<anyk::MaxTimesDioid>();
  }
  return fn.template operator()<anyk::TropicalDioid>();
}

/// The deterministic per-layer counts: dp.states, dp.connectors,
/// join.output_rows and plan.chose.<Algo> from the library's prepares
/// (`shapes`), anyk.* from the enumerators' counters.
inline void SetCountMetrics(const std::vector<PrepareShape>& shapes,
                            const EnumCounts& e, MetricSet* m) {
  uint64_t states = 0, connectors = 0, output_rows = 0;
  std::map<anyk::Algorithm, double> chose;
  for (const PrepareShape& s : shapes) {
    states += s.States();
    connectors += s.Connectors();
    output_rows += s.output_rows;
    chose[s.algorithm] += 1;
  }
  m->Set("dp.states", static_cast<double>(states), "count");
  m->Set("dp.connectors", static_cast<double>(connectors), "count");
  m->Set("join.output_rows", static_cast<double>(output_rows), "count");
  for (const anyk::Algorithm a : anyk::AllRankedAlgorithms()) {
    m->Set(std::string("plan.chose.") + anyk::AlgorithmName(a), chose[a],
           "count");
  }
  m->Set("anyk.pops", static_cast<double>(e.pops), "count");
  m->Set("anyk.pushes", static_cast<double>(e.pushes), "count");
  m->Set("anyk.max_cand", static_cast<double>(e.max_cand), "count");
  m->Set("anyk.rec_heap_pops", static_cast<double>(e.rec_heap_pops), "count");
  m->Set("anyk.enum_allocs", static_cast<double>(e.allocs), "count");
}

/// Add one pulled stream, `op_s` long, to the closed-loop tally.
inline void AddToTally(const StreamResult& s, double op_s,
                       ClosedLoopTally* t) {
  t->ttf_ms.push_back(s.ttf_s * 1e3);
  t->ttk_ms.push_back(s.ttk_s * 1e3);
  t->delays_us.insert(t->delays_us.end(), s.delays_us.begin(),
                      s.delays_us.end());
  t->busy_s += op_s;
  t->answers += s.answers;
  ++t->ops;
}

/// Allocation count since `before`.
inline uint64_t AllocsSince(const anyk::AllocCounts& before) {
  return anyk::AllocDelta(before, anyk::CurrentAllocCounts()).news;
}

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
