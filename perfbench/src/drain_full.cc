// drain_full: one client, closed loop. A fixed list of (query, algorithm)
// pairs is drained to exhaustion (or to kCap answers) through sessions of
// queries prepared once at set-up, so the time sits in enumeration:
// successor work, candidate pops and binds. The queries span the paper's
// time-to-last trade-off: a uniform 3-path (Batch wins), a 3-way Cartesian
// product (Recursive wins, Thm. 11), worst-case 4- and 6-cycles (ranked
// union of the decomposition), a skewed 3-star, and a triangle over a
// random graph (the GenericJoin fallback).

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data.h"
#include "engine.h"
#include "host.h"
#include "join/yannakakis.h"
#include "query/gyo.h"
#include "query/sql.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using anyk::Algorithm;
using anyk::Database;

/// Answers per drain at most.
constexpr size_t kCap = 1000000;

struct Sizes {
  size_t path_rows, path_domain;
  size_t product_rows;
  size_t cycle4_rows, cycle6_rows;
  size_t star_rows, star_domain;
  size_t graph_nodes, graph_edges;
  size_t count_cap;  // answers per drain in the deterministic count pass
};

Sizes SizesFor(bool tiny) {
  if (tiny) return {400, 80, 12, 60, 20, 60, 80, 100, 1000, 500};
  return {8000, 1600, 60, 900, 120, 400, 500, 1000, 30000, 20000};
}

struct QuerySpec {
  const char* name;
  std::string dioid;
  std::string sql;
  bool all_algorithms;  // false: the generic-join fallback, drained once
};

std::vector<RelSpec> Specs(const Sizes& z) {
  return {
      {"P1", RelKind::kUniform, z.path_rows, z.path_domain},
      {"P2", RelKind::kUniform, z.path_rows, z.path_domain},
      {"P3", RelKind::kUniform, z.path_rows, z.path_domain},
      {"X1", RelKind::kProduct, z.product_rows, 0},
      {"X2", RelKind::kProduct, z.product_rows, 0},
      {"X3", RelKind::kProduct, z.product_rows, 0},
      {"C1", RelKind::kCycle, z.cycle4_rows, 0},
      {"C2", RelKind::kCycle, z.cycle4_rows, 0},
      {"C3", RelKind::kCycle, z.cycle4_rows, 0},
      {"C4", RelKind::kCycle, z.cycle4_rows, 0},
      {"D1", RelKind::kCycle, z.cycle6_rows, 0},
      {"D2", RelKind::kCycle, z.cycle6_rows, 0},
      {"D3", RelKind::kCycle, z.cycle6_rows, 0},
      {"D4", RelKind::kCycle, z.cycle6_rows, 0},
      {"D5", RelKind::kCycle, z.cycle6_rows, 0},
      {"D6", RelKind::kCycle, z.cycle6_rows, 0},
      {"S1", RelKind::kSkewed, z.star_rows, z.star_domain},
      {"S2", RelKind::kSkewed, z.star_rows, z.star_domain},
      {"S3", RelKind::kSkewed, z.star_rows, z.star_domain},
      {"G", RelKind::kUniform, z.graph_edges, z.graph_nodes},
  };
}

std::vector<QuerySpec> Queries() {
  return {
      {"path3", "min-sum", PathSql({"P1", "P2", "P3"}, true, 0), true},
      {"product3", "min-sum", StarSql({"X1", "X2", "X3"}, true, 0), true},
      {"cycle4", "min-sum", CycleSql({"C1", "C2", "C3", "C4"}, true, 0), true},
      {"cycle6", "max-sum",
       CycleSql({"D1", "D2", "D3", "D4", "D5", "D6"}, false, 0), true},
      {"star3", "min-max", StarSql({"S1", "S2", "S3"}, true, 0), true},
      {"triangle", "min-sum", TriangleSql("G", true, 0), false},
  };
}

const std::vector<Algorithm>& DrainAlgorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kLazy, Algorithm::kTake2,     Algorithm::kEager,
      Algorithm::kAll,  Algorithm::kRecursive, Algorithm::kBatch};
  return algos;
}

/// Reference of one query: the Batch drain and the join oracle's count.
struct Reference {
  size_t answers = 0;
  uint64_t digest = 0;
};

/// One query prepared both ways: the library's PreparedQuery (untraced
/// drains) and, in the traced run, the layer-by-layer replica.
struct Prepared {
  QuerySpec spec;
  anyk::SqlStatement stmt;
  // Type-erased over the dioid; Pq<D> / Tp<D> restore the type.
  std::shared_ptr<void> pq;
  std::shared_ptr<void> traced;
  Reference ref;
};

template <class D>
const anyk::PreparedQuery<D>& Pq(const Prepared& p) {
  return *static_cast<const anyk::PreparedQuery<D>*>(p.pq.get());
}
template <class D>
const TracedPrepared<D>& Tp(const Prepared& p) {
  return *static_cast<const TracedPrepared<D>*>(p.traced.get());
}

template <class D>
std::shared_ptr<void> PrepareLibrary(const Database& db,
                                     const anyk::SqlStatement& stmt) {
  return std::make_shared<anyk::PreparedQuery<D>>(db, stmt.query,
                                                  PrepareOptions<D>(0, true));
}

struct Drain {
  StreamResult stream;
  double drain_s = 0;
  EnumCounts counts;
};

const char* DrainSpanName(Algorithm a) {
  switch (a) {
    case Algorithm::kLazy: return "anyk.drain.Lazy";
    case Algorithm::kTake2: return "anyk.drain.Take2";
    case Algorithm::kEager: return "anyk.drain.Eager";
    case Algorithm::kAll: return "anyk.drain.All";
    case Algorithm::kRecursive: return "anyk.drain.Recursive";
    default: return "anyk.drain.Batch";
  }
}

/// Drain one session: from the library's PreparedQuery, or (traced) from
/// the replica, whose per-tree enumerators' counters are then read.
template <class D>
void RunDrain(const Prepared& p, Algorithm algo, bool traced, size_t cap,
              Plant* plant, Drain* out) {
  std::vector<anyk::ResultRow<D>> rows;
  std::vector<const anyk::Enumerator<D>*> parts;
  const auto t0 = Clock::now();
  std::optional<anyk::EnumerationSession<D>> session;
  std::unique_ptr<anyk::Enumerator<D>> replica;
  anyk::Enumerator<D>* e = nullptr;
  if (traced) {
    anyk::EnumOptions eo;
    eo.with_witness = false;
    replica = OpenTraced<D>(Tp<D>(p), algo, eo, &parts);
    e = replica.get();
  } else {
    session.emplace(Pq<D>(p).NewSession(algo));
    e = session->enumerator();
  }
  const anyk::AllocCounts before = anyk::CurrentAllocCounts();
  PullStream<D>(e, cap, 0, t0, plant, &out->stream, &rows);
  out->drain_s = SecondsBetween(t0, Clock::now());
  out->counts.allocs = AllocsSince(before);
  for (const auto* part : parts) AddEnumCounts<D>(part, &out->counts);
}

}  // namespace

void RunDrainFull(const RunOptions& opt, RunResult* r) {
  const Sizes z = SizesFor(opt.tiny);
  const uint64_t data_seed = opt.seed * 1000003 + 2;

  // Set-up: generate, CSV round trip, parse and prepare every query.
  Database db;
  std::vector<Prepared> queries;
  const SetupTimes setup = RepeatCsvSetup(
      Specs(z), data_seed, opt.work_dir, [&](Database loaded) {
        queries.clear();  // before the database they point into
        db = std::move(loaded);
        for (const QuerySpec& q : Queries()) {
          Prepared p;
          p.spec = q;
          p.stmt = anyk::ParseSql(q.sql, &db);
          p.pq = WithDioid(q.dioid, [&]<class D>() {
            return PrepareLibrary<D>(db, p.stmt);
          });
          queries.push_back(std::move(p));
        }
      });

  // A planted missing answer goes into the first reference drain, where only
  // the count check against the join can catch it; every other plant goes
  // into the measured drains.
  Plant plant = opt.plant;
  Plant no_plant = Plant::kNone;
  Plant* ref_plant = plant == Plant::kDrop ? &plant : &no_plant;
  Plant* drain_plant = plant == Plant::kDrop ? &no_plant : &plant;

  // References (not timed): Batch's count and weight digest, and the count
  // of an independent join (Yannakakis when acyclic, GenericJoin otherwise).
  for (Prepared& p : queries) {
    Drain batch;
    WithDioid(p.spec.dioid, [&]<class D>() {
      RunDrain<D>(p, Algorithm::kBatch, false, kCap, ref_plant, &batch);
    });
    p.ref = {batch.stream.answers, batch.stream.digest};
    const size_t join_count =
        anyk::IsAcyclic(p.stmt.query)
            ? anyk::YannakakisJoin(db, p.stmt.query).size()
            : anyk::GenericJoin(db, p.stmt.query).size();
    ++r->attempted;
    if (join_count != batch.stream.answers &&
        !(join_count > kCap && batch.stream.answers == kCap)) {
      r->Fail(std::string(p.spec.name) + ": Batch returns " +
              std::to_string(batch.stream.answers) + " answers, the join " +
              std::to_string(join_count));
    }
  }

  const Clock::time_point epoch = Clock::now();
  Tracer tracer(opt.trace, epoch);
  if (opt.trace) {
    // The replica of every prepare, which must build and decide what the
    // library's did.
    for (size_t i = 0; i < queries.size(); ++i) {
      Prepared& p = queries[i];
      tracer.SetRequest(i + 1);
      ScopedSpan op(&tracer, "prepare");
      {
        ScopedSpan span(&tracer, "query.parse");
        p.stmt = anyk::ParseSql(p.spec.sql, &db);
      }
      WithDioid(p.spec.dioid, [&]<class D>() {
        auto replica = PrepareTraced<D>(db, p.stmt.query, 0, &tracer);
        const std::string diff =
            ShapeDifference(replica->Shape(), ShapeOf(Pq<D>(p)));
        if (!diff.empty()) {
          r->Fail(std::string(p.spec.name) + ": traced pipeline's " + diff +
                  " differs from PreparedQuery");
        }
        p.traced = std::move(replica);
      });
    }
  }

  // The pair list; a pass drains every pair once, in the same order in
  // every pass and for every seed, so the allocator's state — and with it
  // the peak RSS — repeats from run to run.
  struct Pair {
    size_t id;
    size_t query;
    Algorithm algo;
  };
  std::vector<Pair> pairs;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!queries[q].spec.all_algorithms) {
      pairs.push_back({pairs.size(), q, Algorithm::kBatch});
      continue;
    }
    for (const Algorithm a : DrainAlgorithms()) {
      pairs.push_back({pairs.size(), q, a});
    }
  }

  const auto drain = [&](const Pair& pr, bool traced, size_t cap, Drain* out) {
    const Prepared& p = queries[pr.query];
    ++r->attempted;
    try {
      WithDioid(p.spec.dioid, [&]<class D>() {
        RunDrain<D>(p, pr.algo, traced, cap, drain_plant, out);
      });
    } catch (const std::exception& e) {
      r->Fail(std::string(p.spec.name) + ": " + e.what());
      return false;
    }
    const std::string what =
        std::string(p.spec.name) + "/" + anyk::AlgorithmName(pr.algo);
    if (out->stream.order_violations > 0) {
      r->Fail(what + ": answers out of rank order");
      return false;
    }
    if (cap == kCap && (out->stream.answers != p.ref.answers ||
                        out->stream.digest != p.ref.digest)) {
      r->Fail(what + ": " + std::to_string(out->stream.answers) +
              " answers / weight digest differ from Batch (" +
              std::to_string(p.ref.answers) + ")");
      return false;
    }
    return true;
  };

  if (opt.trace) {
    // Deterministic counts: every pair, first count_cap answers, twice; the
    // prepare counts from the library's prepares.
    std::map<std::string, EnumCounts> passes[2];
    for (auto& pass : passes) {
      for (const Pair& pr : pairs) {
        Drain d;
        drain(pr, true, z.count_cap, &d);
        pass[std::string(queries[pr.query].spec.name) + "/" +
             anyk::AlgorithmName(pr.algo)] = d.counts;
      }
    }
    EnumCounts total;
    for (const auto& [key, c] : passes[0]) {
      if (!(c == passes[1].at(key))) {
        r->Fail("work counts differ between two drains of " + key);
      }
      total.Add(c);
    }
    std::vector<PrepareShape> shapes;
    for (const Prepared& p : queries) {
      WithDioid(p.spec.dioid,
                [&]<class D>() { shapes.push_back(ShapeOf(Pq<D>(p))); });
    }
    SetCountMetrics(shapes, total, &r->per_layer);
  }

  // The measured window: whole passes. The traced run pairs every drain
  // with an untraced drain of the same pair; their times give the overhead.
  // Every pass drains the same streams, so delay_p99_us is taken over
  // batch positions, each at its median over the passes.
  ClosedLoopTally tally;
  RepeatedDelays delays;
  double untraced_s = 0;
  double traced_s = 0;
  std::map<Algorithm, std::vector<double>> traced_drain_s;
  uint64_t request = queries.size();
  RunClosedLoop(opt, tally, [&] {
    for (const Pair& pr : pairs) {
      Host().MaybeSample();
      Drain plain, traced;
      if (!opt.trace) {
        if (drain(pr, false, kCap, &plain)) {
          AddToTally(plain.stream, plain.drain_s, &tally);
          delays.Add(pr.id, plain.stream.delays_us);
        }
        continue;
      }
      tracer.SetRequest(++request);
      const bool ok = RunPaired(
          request, [&] { return drain(pr, false, kCap, &plain); },
          [&] {
            ScopedSpan span(&tracer, DrainSpanName(pr.algo));
            return drain(pr, true, kCap, &traced);
          });
      if (!ok) continue;
      untraced_s += plain.drain_s;
      traced_s += traced.drain_s;
      traced_drain_s[pr.algo].push_back(traced.drain_s);
    }
  });

  if (!opt.trace) {
    tally.delays_us = delays.PerPosition();
    SetClosedLoopMetrics(tally, setup.setup_s, !opt.tiny, r);
    return;
  }
  MetricSet& m = r->per_layer;
  const auto spans = AggregateSpans(tracer);
  // One traced prepare per query.
  SetSharedLayerMetrics(spans, queries.size(), setup, untraced_s, traced_s,
                        &m);
  // Only the triangle takes the generic-join fallback: per call, not per
  // query.
  SetSpanMean(spans, "join.generic_join",
              spans.count("join.generic_join")
                  ? spans.at("join.generic_join").count
                  : 0,
              "join.generic_join_ms", 1e3, "ms", &m);
  for (const Algorithm a : DrainAlgorithms()) {
    const auto it = traced_drain_s.find(a);
    m.Set(std::string("anyk.drain_s.") + anyk::AlgorithmName(a),
          it == traced_drain_s.end() ? 0 : Median(it->second), "s");
  }
  WriteSpans(tracer, opt);
}

}  // namespace perfbench
