// topk_fresh: one client, closed loop. A seeded list of SQL statements
// (paths of 3-6 atoms, stars of 3-5, cycles of 4-6; all four dioids;
// LIMIT k with k in {1, 10, 100, 1000}) runs through the path the CLI and
// anykd use: ParseSql, PreparedQuery with the cost-based planner, a kAuto
// session, NextBatch up to k, in passes over the list. Every statement is
// prepared fresh every time, so the time sits in query / dp / plan, not in
// enumeration.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anyk/sharded_query.h"
#include "data.h"
#include "engine.h"
#include "query/sql.h"
#include "storage/sharded_database.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using anyk::Algorithm;
using anyk::Database;

struct Sizes {
  size_t uniform_rows, uniform_domain;
  size_t skewed_rows, skewed_domain;
  size_t cycle_rows;
  size_t count_statements;  // statements in the deterministic count pass
};

Sizes SizesFor(bool tiny) {
  if (tiny) return {1500, 150, 1200, 120, 300, 8};
  return {60000, 6000, 40000, 4000, 20000, 40};
}

std::vector<RelSpec> PoolSpecs(const Sizes& z) {
  std::vector<RelSpec> specs;
  for (int i = 1; i <= 6; ++i) {
    specs.push_back({"U" + std::to_string(i), RelKind::kUniform,
                     z.uniform_rows, z.uniform_domain});
  }
  for (int i = 1; i <= 5; ++i) {
    specs.push_back({"Z" + std::to_string(i), RelKind::kSkewed, z.skewed_rows,
                     z.skewed_domain});
  }
  for (int i = 1; i <= 6; ++i) {
    specs.push_back({"C" + std::to_string(i), RelKind::kCycle, z.cycle_rows, 0});
  }
  return specs;
}

struct Statement {
  size_t id = 0;  // position in the seed's statement list
  std::string sql;
  std::string dioid;
  bool check = false;  // compared against an independent oracle
};

/// The seed's statements, served in passes. The list holds every (shape,
/// dioid, k) combination kVariants times, so the mix of shapes and k is
/// the same for every seed; the seed picks the relations each statement
/// joins, which ones are checked, and the order of every pass. Every pass
/// prepares each statement fresh, so a statement's batches repeat from pass
/// to pass and delay_p99_us can take each batch at its median.
class StatementStream {
 public:
  static constexpr int kVariants = 2;

  explicit StatementStream(uint64_t seed) : rng_(seed) {
    for (const char shape : {'p', 's', 'c'}) {
      const int lo = shape == 'p' ? 3 : shape == 's' ? 3 : 4;
      const int hi = shape == 'p' ? 6 : shape == 's' ? 5 : 6;
      for (int l = lo; l <= hi; ++l) {
        for (size_t d = 0; d < DioidNames().size(); ++d) {
          for (const size_t k : {1, 10, 100, 1000}) {
            for (int v = 0; v < kVariants; ++v) Add(shape, l, d, k);
          }
        }
      }
    }
    pos_ = list_.size();
  }

  Statement Next() {
    if (pos_ == list_.size()) {
      rng_.Shuffle(&list_);
      pos_ = 0;
    }
    return list_[pos_++];
  }

 private:
  void Add(char shape, int l, size_t dioid, size_t k) {
    const char family = shape == 'p' ? 'U' : shape == 's' ? 'Z' : 'C';
    const int pool = shape == 's' ? 5 : 6;
    std::vector<std::string> all;
    for (int i = 1; i <= pool; ++i) {
      all.push_back(std::string(1, family) + std::to_string(i));
    }
    rng_.Shuffle(&all);
    all.resize(static_cast<size_t>(l));
    Statement st;
    st.id = list_.size();
    st.dioid = DioidNames()[dioid];
    const bool asc = DioidAscending(st.dioid);
    st.sql = shape == 'p'   ? PathSql(all, asc, k)
             : shape == 's' ? StarSql(all, asc, k)
                            : CycleSql(all, asc, k);
    st.check = rng_.Below(8) == 0;
    list_.push_back(st);
  }

  anyk::Rng rng_;
  std::vector<Statement> list_;
  size_t pos_;
};

/// Above this many answers the oracle is a second any-k algorithm rather
/// than Batch, which materializes the whole output.
constexpr double kBatchOracleMaxAnswers = 2e5;

/// Everything one statement produced.
struct Outcome {
  StreamResult stream;
  double op_s = 0;
  PrepareShape shape;  // the library's (untraced) or the replica's (traced)
  EnumCounts enumc;    // traced only
};

/// The library path: parse, PreparedQuery (planner on), kAuto session. A
/// checked statement is then compared with an oracle from a separate
/// prepare with the planner off — for acyclic queries the fixed chain
/// re-rooting, so other stage graphs — and only a checked statement takes
/// the planted wrong answer.
template <class D>
void RunUntraced(const Database& db, const Statement& st, Plant* plant,
                 Outcome* out, std::string* check_error) {
  std::vector<anyk::ResultRow<D>> rows;
  Plant no_plant = Plant::kNone;
  const auto t0 = Clock::now();
  const anyk::SqlStatement stmt = anyk::ParseSql(st.sql, &db);
  const anyk::PreparedQuery<D> pq(db, stmt.query,
                                  PrepareOptions<D>(stmt.limit, true));
  auto session = pq.NewSession(Algorithm::kAuto);
  PullStream<D>(session.enumerator(), stmt.limit, stmt.limit, t0,
                st.check ? plant : &no_plant, &out->stream, &rows);
  out->op_s = SecondsBetween(t0, Clock::now());
  out->shape = ShapeOf(pq);
  if (!st.check) return;

  const anyk::PreparedQuery<D> ref_pq(db, stmt.query,
                                      PrepareOptions<D>(stmt.limit, false));
  Algorithm oracle = Algorithm::kBatch;
  if (ref_pq.decision().stats.output_count > kBatchOracleMaxAnswers) {
    oracle = out->shape.algorithm == Algorithm::kRecursive
                 ? Algorithm::kTake2
                 : Algorithm::kRecursive;
  }
  StreamResult ref;
  auto ref_session = ref_pq.NewSession(oracle);
  PullStream<D>(ref_session.enumerator(), stmt.limit, stmt.limit, Clock::now(),
                &no_plant, &ref, &rows);
  if (ref.answers != out->stream.answers ||
      ref.weights != out->stream.weights) {
    *check_error = "top-k differs from the " +
                   std::string(anyk::AlgorithmName(oracle)) + " oracle (" +
                   std::to_string(out->stream.answers) + " vs " +
                   std::to_string(ref.answers) + " answers): " + st.sql;
  }
}

/// The same statement, layer by layer, with spans and counts.
template <class D>
void RunTraced(const Database& db, const Statement& st, Tracer* t,
               Outcome* out) {
  std::vector<anyk::ResultRow<D>> rows;
  Plant no_plant = Plant::kNone;
  const auto t0 = Clock::now();
  {
    ScopedSpan op(t, "op");
    anyk::SqlStatement stmt;
    {
      ScopedSpan span(t, "query.parse");
      stmt = anyk::ParseSql(st.sql, &db);
    }
    const auto p = PrepareTraced<D>(db, stmt.query, stmt.limit, t);
    anyk::EnumOptions eo;
    eo.with_witness = false;
    eo.k_budget = stmt.limit;
    std::vector<const anyk::Enumerator<D>*> parts;
    std::unique_ptr<anyk::Enumerator<D>> e;
    {
      ScopedSpan span(t, "anyk.open");
      e = OpenTraced<D>(*p, Algorithm::kAuto, eo, &parts);
    }
    const auto open_end = Clock::now();
    const anyk::AllocCounts before = anyk::CurrentAllocCounts();
    PullStream<D>(e.get(), stmt.limit, stmt.limit, t0, &no_plant,
                  &out->stream, &rows);
    out->enumc.allocs = AllocsSince(before);
    t->Record("anyk.first", open_end, out->stream.first_at);
    t->Record("anyk.topk", out->stream.first_at, out->stream.last_at);
    for (const auto* part : parts) AddEnumCounts<D>(part, &out->enumc);
    out->shape = p->Shape();
  }
  out->op_s = SecondsBetween(t0, Clock::now());
}

/// ShardedDatabase / ShardedPreparedQuery probe with a 4-thread pool.
struct ShardProbe {
  std::vector<double> partition_ms, prepare_s1_ms, prepare_s4_ms;
};

void ProbeShards(const Database& db, const std::vector<std::string>& sqls,
                 ShardProbe* probe, RunResult* r) {
  anyk::ThreadPool pool(4);
  for (const std::string& sql : sqls) {
    const anyk::SqlStatement stmt = anyk::ParseSql(sql, &db);
    {
      anyk::Timer timer;
      const anyk::ShardedDatabase sharded(db, stmt.query, 4, &pool);
      probe->partition_ms.push_back(timer.Millis());
    }
    std::vector<double> top[2];
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      anyk::ShardedPreparedQuery<anyk::TropicalDioid>::Options opts;
      opts.prepare.auto_plan = true;
      opts.prepare.enum_opts.with_witness = false;
      opts.prepare.enum_opts.k_budget = stmt.limit;
      opts.prepare.pool = &pool;
      opts.shards = shards;
      anyk::Timer timer;
      const anyk::ShardedPreparedQuery<anyk::TropicalDioid> spq(db, stmt.query,
                                                                opts);
      (shards == 1 ? probe->prepare_s1_ms : probe->prepare_s4_ms)
          .push_back(timer.Millis());
      auto session = spq.NewSession(Algorithm::kAuto);
      StreamResult res;
      std::vector<anyk::ResultRow<anyk::TropicalDioid>> rows;
      Plant no_plant = Plant::kNone;
      PullStream<anyk::TropicalDioid>(session.enumerator(), stmt.limit,
                                      stmt.limit, Clock::now(), &no_plant,
                                      &res, &rows);
      top[shards == 1 ? 0 : 1] = res.weights;
    }
    ++r->attempted;
    if (top[0] != top[1]) r->Fail("4-shard top-k differs from 1 shard: " + sql);
  }
}

bool StreamOk(const Statement& st, const StreamResult& s, RunResult* r) {
  if (s.order_violations == 0) return true;
  r->Fail("answers out of rank order (" + st.dioid + "): " + st.sql);
  return false;
}

}  // namespace

void RunTopkFresh(const RunOptions& opt, RunResult* r) {
  const Sizes z = SizesFor(opt.tiny);
  const uint64_t data_seed = opt.seed * 1000003 + 1;

  Database db;
  const SetupTimes setup =
      RepeatCsvSetup(PoolSpecs(z), data_seed, opt.work_dir,
                     [&](Database loaded) { db = std::move(loaded); });

  Plant plant = opt.plant;
  const auto run_one = [&](const Statement& st, Tracer* t, Outcome* out) {
    std::string check_error;
    try {
      WithDioid(st.dioid, [&]<class D>() {
        if (t != nullptr) {
          RunTraced<D>(db, st, t, out);
        } else {
          RunUntraced<D>(db, st, &plant, out, &check_error);
        }
      });
    } catch (const std::exception& e) {
      check_error = std::string("error: ") + e.what() + ": " + st.sql;
    }
    if (!StreamOk(st, out->stream, r)) return false;
    if (!check_error.empty()) {
      r->Fail(check_error);
      return false;
    }
    return true;
  };
  // A statement untraced and traced (`t`): the replica must build, decide
  // and answer what the library does.
  const auto run_paired = [&](uint64_t i, const Statement& st, Tracer* t,
                              Outcome* plain, Outcome* traced) {
    Statement unchecked = st;
    unchecked.check = false;
    if (!RunPaired(i, [&] { return run_one(unchecked, nullptr, plain); },
                   [&] { return run_one(unchecked, t, traced); })) {
      return false;
    }
    const std::string diff = ShapeDifference(traced->shape, plain->shape);
    if (!diff.empty()) {
      r->Fail("traced pipeline's " + diff + " differs from PreparedQuery: " +
              st.sql);
      return false;
    }
    if (plain->stream.digest != traced->stream.digest ||
        plain->stream.answers != traced->stream.answers) {
      r->Fail("traced pipeline answers differ from PreparedQuery: " + st.sql);
      return false;
    }
    return true;
  };

  const Clock::time_point epoch = Clock::now();
  Tracer tracer(opt.trace, epoch);

  if (opt.trace) {
    // Deterministic counts: the first statements of the stream, twice; the
    // prepare counts from the library, the enumeration counts from the
    // replica's enumerators.
    std::vector<PrepareShape> shapes[2];
    std::vector<EnumCounts> enumc[2];
    for (int pass = 0; pass < 2; ++pass) {
      StatementStream stream(opt.seed);
      for (size_t i = 0; i < z.count_statements; ++i) {
        Tracer scratch(true, epoch);
        Outcome plain, traced;
        ++r->attempted;
        run_paired(i, stream.Next(), &scratch, &plain, &traced);
        shapes[pass].push_back(plain.shape);
        enumc[pass].push_back(traced.enumc);
      }
    }
    EnumCounts total;
    for (size_t i = 0; i < shapes[0].size(); ++i) {
      if (shapes[0][i] != shapes[1][i] || !(enumc[0][i] == enumc[1][i])) {
        r->Fail("work counts differ between two runs of statement " +
                std::to_string(i));
      }
      total.Add(enumc[0][i]);
    }
    MetricSet& m = r->per_layer;
    SetCountMetrics(shapes[0], total, &m);

    const bool asc = true;
    const size_t k = 100;
    ShardProbe probe;
    ProbeShards(db,
                {PathSql({"U1", "U2", "U3", "U4"}, asc, k),
                 StarSql({"Z1", "Z2", "Z3"}, asc, k),
                 CycleSql({"C1", "C2", "C3", "C4"}, asc, k)},
                &probe, r);
    m.Set("storage.shard_partition_ms.s4", Median(probe.partition_ms), "ms");
    m.Set("anyk.shard_prepare_ms.s1", Median(probe.prepare_s1_ms), "ms");
    m.Set("anyk.shard_prepare_ms.s4", Median(probe.prepare_s4_ms), "ms");
  }

  // The measured window: whole statements. The traced run pairs every
  // statement with an untraced run of it; their times give the overhead.
  // delay_p99_us takes every (statement, batch) at its median over passes.
  StatementStream stream(opt.seed);
  ClosedLoopTally tally;
  RepeatedDelays delays;
  double untraced_s = 0;
  double traced_s = 0;
  uint64_t i = 0;
  RunClosedLoop(opt, tally, [&] {
    const Statement st = stream.Next();
    ++r->attempted;
    Outcome plain, traced;
    if (!opt.trace) {
      if (run_one(st, nullptr, &plain)) {
        AddToTally(plain.stream, plain.op_s, &tally);
        delays.Add(st.id, plain.stream.delays_us);
      }
      return;
    }
    tracer.SetRequest(++i);
    if (!run_paired(i, st, &tracer, &plain, &traced)) return;
    untraced_s += plain.op_s;
    traced_s += traced.op_s;
  });

  if (!opt.trace) {
    tally.delays_us = delays.PerPosition();
    SetClosedLoopMetrics(tally, setup.setup_s, !opt.tiny, r);
    return;
  }
  MetricSet& m = r->per_layer;
  const auto spans = AggregateSpans(tracer);
  const size_t ops = spans.count("op") ? spans.at("op").count : 0;
  SetSharedLayerMetrics(spans, ops, setup, untraced_s, traced_s, &m);
  SetSpanMean(spans, "anyk.open", ops, "anyk.open_ms", 1e3, "ms", &m);
  SetSpanMean(spans, "anyk.first", ops, "anyk.first_ms", 1e3, "ms", &m);
  SetSpanMean(spans, "anyk.topk", ops, "anyk.topk_ms", 1e3, "ms", &m);
  WriteSpans(tracer, opt);
}

}  // namespace perfbench
