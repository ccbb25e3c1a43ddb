// The one engine entry point: a parsed SQL statement plus a dioid name in,
// ranked and projected rows out. The `anyk` CLI, the `anykd` server and the
// SQL demo all run statements through MakeQueryHandle -> QueryHandle::Open
// -> CursorStream::FetchPage; nothing else turns a statement into answers.
//
// A QueryHandle wraps one ShardedPreparedQuery<D> (for whichever of the
// four dioids was named) together with its SELECT list. It is
// immutable once built, so the server caches one and shares it read-only
// with every session. With QueryHandleOptions::shards == 1 that is a true
// passthrough around a single PreparedQuery<D>; with S > 1 the handle owns
// S per-shard pipelines over hash-partitioned data and every stream merges
// their ranked streams (src/anyk/sharded_query.h). Open() starts a
// CursorStream — an EnumerationSession plus the projection / rank
// bookkeeping — which is per-stream mutable state and stays confined to
// one thread at a time (the server's cursor mutex in cursor_manager.h
// enforces that).
//
// The header sits in src/server/ (namespace anyk::server) because the
// perfbench harness includes it by this path; see docs/ARCHITECTURE.md,
// "Serving layer".

#ifndef ANYK_SERVER_QUERY_HANDLE_H_
#define ANYK_SERVER_QUERY_HANDLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anyk/explain.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/sharded_query.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "plan/planner.h"
#include "query/sql.h"
#include "storage/database.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace anyk {
namespace server {

/// Called once per answer of a page, in rank order. `rank` is 1-based and
/// global across the stream's pages; `values` follow the SELECT list.
using RowFn =
    std::function<void(size_t rank, double weight, const std::vector<Value>&)>;

/// One ranked answer stream, paged. Not thread-safe — the owner serializes
/// access.
class CursorStream {
 public:
  virtual ~CursorStream() = default;

  /// Pull up to `n` answers, invoking `fn` for each; an empty `fn` skips
  /// the per-row calls (and the projection) and only counts. Returns how
  /// many were produced; a short page marks the stream done(), after which
  /// it returns 0.
  virtual size_t FetchPage(size_t n, const RowFn& fn) = 0;

  virtual bool done() const = 0;
  virtual size_t produced() const = 0;
};

/// How MakeQueryHandle prepares a statement.
struct QueryHandleOptions {
  /// Hash-partition the data into this many per-shard pipelines
  /// (1 = unsharded).
  size_t shards = 1;
  /// With shards > 1, drain each shard session on its own worker thread
  /// (ParallelUnionEnumerator): the same rows as the serial merge, but an
  /// open stream holds `shards` threads until it is destroyed.
  bool parallel_drain = false;
  /// Let the planner choose the join-tree orientation and stage order
  /// (PreparedQuery::Options::auto_plan). The strategy decision that
  /// Algorithm::kAuto runs is made either way.
  bool auto_plan = true;
};

/// A prepared query behind a dioid-erased interface. Immutable after
/// construction; Open() may be called concurrently from any thread.
class QueryHandle {
 public:
  virtual ~QueryHandle() = default;
  virtual std::unique_ptr<CursorStream> Open(Algorithm algo) const = 0;
  virtual const char* plan_name() const = 0;
  /// The prepare-time planner decision: what Algorithm::kAuto resolves to
  /// for every stream of this handle.
  virtual const plan::PlanDecision& decision() const = 0;
  /// The EXPLAIN block: plan shape, DP sizes and the planner decision.
  virtual std::string explain() const = 0;
};

/// The default-dioid rule: an empty name ranks ASC statements by min-sum
/// (lightest first) and DESC ones by max-sum (heaviest first); any other
/// name passes through unchanged.
inline std::string ResolveDioidName(const std::string& name, bool ascending) {
  if (!name.empty()) return name;
  return ascending ? "min-sum" : "max-sum";
}

namespace internal {

template <SelectiveDioid D>
class TypedStream : public CursorStream {
 public:
  TypedStream(const ShardedPreparedQuery<D>* pq, Algorithm algo,
              const std::vector<uint32_t>* select_vars)
      : select_vars_(select_vars), session_(pq->NewSession(algo)) {}

  size_t FetchPage(size_t n, const RowFn& fn) override {
    if (done_ || n == 0) return 0;
    // Grow only, and by at least kMinBatchRows: rows keep their assignment
    // storage across pages of varying size (the CLI's single-row first
    // pull, pages cut at TT(k) checkpoints), so a warm stream allocates
    // nothing per page.
    if (batch_.size() < n) batch_.resize(std::max(n, kMinBatchRows));
    const size_t got = session_.NextBatch(batch_.data(), n);
    if (got < n) done_ = true;
    if (!fn) {
      rank_ += got;
      return got;
    }
    for (size_t b = 0; b < got; ++b) {
      const ResultRow<D>& row = batch_[b];
      const std::vector<Value>* values = &row.assignment;
      if (!select_vars_->empty()) {
        projected_.clear();
        for (uint32_t v : *select_vars_) projected_.push_back(row.assignment[v]);
        values = &projected_;
      }
      fn(++rank_, static_cast<double>(row.weight), *values);
    }
    return got;
  }

  bool done() const override { return done_; }
  size_t produced() const override { return rank_; }

 private:
  static constexpr size_t kMinBatchRows = 64;

  const std::vector<uint32_t>* select_vars_;  // owned by the TypedHandle
  EnumerationSession<D> session_;
  std::vector<ResultRow<D>> batch_;
  std::vector<Value> projected_;
  size_t rank_ = 0;
  bool done_ = false;
};

template <SelectiveDioid D>
class TypedHandle : public QueryHandle {
 public:
  TypedHandle(const Database& db, const SqlStatement& stmt, ThreadPool* pool,
              const QueryHandleOptions& opts)
      : select_vars_(stmt.select_vars) {
    typename ShardedPreparedQuery<D>::Options sopts;
    typename PreparedQuery<D>::Options& qopts = sopts.prepare;
    qopts.enum_opts.with_witness = false;
    // The SQL LIMIT (0 = unbounded) is every session's k budget and the
    // planner's: the strategy for Algorithm::kAuto is decided once here, at
    // prepare time — across all shards, via the merged-statistics decision
    // — and shared by every stream of this handle.
    qopts.enum_opts.k_budget = stmt.limit;
    qopts.pool = pool;
    qopts.auto_plan = opts.auto_plan;
    sopts.shards = opts.shards;
    sopts.parallel_drain = opts.parallel_drain;
    pq_ = std::make_unique<ShardedPreparedQuery<D>>(db, stmt.query, sopts);
  }

  std::unique_ptr<CursorStream> Open(Algorithm algo) const override {
    return std::make_unique<TypedStream<D>>(pq_.get(), algo, &select_vars_);
  }
  const char* plan_name() const override {
    return QueryPlanName(pq_->plan());
  }
  const plan::PlanDecision& decision() const override {
    return pq_->decision();
  }
  // Shard 0's pipeline: every shard has the same shape, only the data
  // differs. decision() is the cross-shard decision.
  std::string explain() const override { return Explain(pq_->shard(0)); }

 private:
  std::vector<uint32_t> select_vars_;  // the SELECT list; empty for *
  std::unique_ptr<ShardedPreparedQuery<D>> pq_;
};

template <SelectiveDioid D>
std::unique_ptr<QueryHandle> MakeTypedHandle(const Database& db,
                                             const SqlStatement& stmt,
                                             ThreadPool* pool,
                                             const QueryHandleOptions& opts) {
  return std::make_unique<TypedHandle<D>>(db, stmt, pool, opts);
}

struct DioidEntry {
  const char* name;
  std::unique_ptr<QueryHandle> (*make)(const Database&, const SqlStatement&,
                                       ThreadPool*, const QueryHandleOptions&);
};

/// The dioid names every surface accepts, and the type each one selects.
inline constexpr DioidEntry kDioids[] = {
    {"min-sum", &MakeTypedHandle<TropicalDioid>},
    {"max-sum", &MakeTypedHandle<MaxPlusDioid>},
    {"min-max", &MakeTypedHandle<MinMaxDioid>},
    {"max-times", &MakeTypedHandle<MaxTimesDioid>},
};

inline const DioidEntry* FindDioid(const std::string& name) {
  for (const DioidEntry& e : kDioids) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace internal

/// True when MakeQueryHandle accepts `name` (the empty default aside).
inline bool IsDioidName(const std::string& name) {
  return internal::FindDioid(name) != nullptr;
}

/// "unknown dioid '<name>' (expected min-sum|max-sum|min-max|max-times)".
inline std::string UnknownDioidMessage(const std::string& name) {
  std::string msg = "unknown dioid '";
  msg += name;
  msg += "' (expected ";
  for (const internal::DioidEntry& e : internal::kDioids) {
    if (&e != internal::kDioids) msg += '|';
    msg += e.name;
  }
  msg += ')';
  return msg;
}

/// Prepare `stmt` under the named dioid (min-sum | max-sum | min-max |
/// max-times; empty = ResolveDioidName's default for the statement's
/// direction). `pool` parallelizes preprocessing only and is not retained.
/// CHECK-fails on an unknown dioid name.
inline std::unique_ptr<QueryHandle> MakeQueryHandle(
    const Database& db, const SqlStatement& stmt, const std::string& dioid,
    ThreadPool* pool, const QueryHandleOptions& opts = {}) {
  const std::string name = ResolveDioidName(dioid, stmt.ascending);
  const internal::DioidEntry* entry = internal::FindDioid(name);
  ANYK_CHECK(entry != nullptr) << UnknownDioidMessage(name);
  return entry->make(db, stmt, pool, opts);
}

}  // namespace server
}  // namespace anyk

#endif  // ANYK_SERVER_QUERY_HANDLE_H_
