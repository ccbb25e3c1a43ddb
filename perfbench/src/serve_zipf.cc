// serve_zipf: an open loop against an in-process AnykServer with the
// defaults anykd ships (4 workers, a 16-entry prepared-query cache).
//
// Independent sessions arrive on a fixed schedule. Each opens a ranked
// query (first page k = 100), pulls 0-3 /v1/next pages and closes its
// cursor. The 48 statements (12 shapes x 4 dioids) are dealt with Zipf
// popularity, so the hot head fits the cache and the tail does not; a
// POST /v1/flush on a fixed schedule invalidates the cache under load. Two
// client threads, one keep-alive connection each, send the schedule; every
// request is timed from when it was due, so a stall shows in the requests
// queued behind it. Two, not four: a worker serves a keep-alive connection
// until it closes, so four clients plus four busy workers on four cores
// turned every slow spell of the host into queueing.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "data.h"
#include "engine.h"
#include "host.h"
#include "query/sql.h"
#include "server/http_client.h"
#include "server/query_handle.h"
#include "server/server.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using anyk::Database;
using anyk::server::ClientResponse;
using anyk::server::HttpClient;

// Frozen serving parameters (README.md, "serve_zipf"): the two arrival
// rates in sessions per second, at about a fifteenth and a quarter of the
// two clients' saturation in a calm spell, and the p99 latency limit of the
// capacity ladder. The mid rate is low so that a host slowed down threefold
// still leaves the server mostly idle: near saturation, queueing turns a
// slow spell into a many times higher latency.
constexpr double kMidRate = 100;
constexpr double kHighRate = 400;
constexpr double kLimitMs = 50;
// Ladder rungs above the high rate, as multiples of the rung below.
constexpr double kLadderStep = 1.25;
constexpr int kLadderRungs = 6;
// Arrival rate of the capacity phase: far above saturation, so every client
// always has a session due and works back to back.
constexpr double kBurstRate = 20000;

constexpr size_t kClients = 2;
// How long before a request is due its client stops sleeping and spins.
constexpr auto kSpin = std::chrono::microseconds(500);
constexpr size_t kPageK = 100;
constexpr double kFlushEvery_s = 2.0;
constexpr size_t kStatements = 48;
constexpr size_t kMaxPages = 3;  // /v1/next pages per session: 0..kMaxPages
// The untraced run measures in kSlices rounds of (mid-rate phase, capacity
// phase, delay pass), so a slow spell of the host spreads over all three
// figures instead of landing on one phase.
constexpr int kSlices = 6;
// The delay pass: cursors per statement and round, and pages per cursor
// (the first one untimed).
constexpr size_t kDelayCursors = 2;
constexpr size_t kDelayPages = 40;

struct Sizes {
  size_t uniform_rows, uniform_domain;
  size_t skewed_rows, skewed_domain;
  size_t cycle_rows;
};

Sizes SizesFor(bool tiny) {
  if (tiny) return {1500, 150, 1200, 120, 300};
  return {10000, 1000, 8000, 800, 4000};
}

std::vector<RelSpec> Specs(const Sizes& z) {
  std::vector<RelSpec> specs;
  for (int i = 1; i <= 4; ++i) {
    specs.push_back({"U" + std::to_string(i), RelKind::kUniform,
                     z.uniform_rows, z.uniform_domain});
    specs.push_back({"Z" + std::to_string(i), RelKind::kSkewed, z.skewed_rows,
                     z.skewed_domain});
  }
  for (int i = 1; i <= 6; ++i) {
    specs.push_back({"C" + std::to_string(i), RelKind::kCycle, z.cycle_rows, 0});
  }
  return specs;
}

struct ServedStatement {
  std::string sql;
  std::string dioid;
  size_t limit = 0;
  std::string target;  // /v1/query?... with the statement encoded
  // Reference from the library (PreparedQuery, planner on): the first
  // kPageK * kDelayPages weights as the server prints them, and the total
  // when the stream ends before that.
  std::vector<std::string> weights;
  bool exhausted = false;
};

/// Twelve shapes under each of the four dioids; three shapes carry a LIMIT
/// that a session's pages can reach, so DONE,<n> is checked too.
std::vector<ServedStatement> Statements() {
  std::vector<ServedStatement> out;
  for (const std::string& dioid : DioidNames()) {
    const bool asc = DioidAscending(dioid);
    const std::vector<std::pair<std::string, size_t>> per = {
        {PathSql({"U1", "U2", "U3"}, asc, 0), 0},
        {PathSql({"U1", "U2", "U3", "U4"}, asc, 0), 0},
        {PathSql({"U2", "U3", "U4"}, asc, 0), 0},
        {StarSql({"Z1", "Z2", "Z3"}, asc, 0), 0},
        {StarSql({"Z1", "Z2", "Z3", "Z4"}, asc, 0), 0},
        {StarSql({"Z2", "Z3", "Z4"}, asc, 0), 0},
        {CycleSql({"C1", "C2", "C3", "C4"}, asc, 0), 0},
        {CycleSql({"C1", "C2", "C3", "C4", "C5"}, asc, 0), 0},
        {CycleSql({"C1", "C2", "C3", "C4", "C5", "C6"}, asc, 0), 0},
        {PathSql({"U4", "U3", "U2"}, asc, 150), 150},
        {StarSql({"Z4", "Z1", "Z2"}, asc, 250), 250},
        {CycleSql({"C2", "C3", "C4", "C5"}, asc, 50), 50},
    };
    for (const auto& [sql, limit] : per) {
      ServedStatement st;
      st.sql = sql;
      st.dioid = dioid;
      st.limit = limit;
      st.target = "/v1/query?sql=" + HttpClient::Encode(sql) +
                  "&dioid=" + dioid + "&k=" + std::to_string(kPageK);
      out.push_back(std::move(st));
    }
  }
  return out;
}

std::string FormatWeight(double w) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", w);
  return buf;
}

template <class D>
void ComputeReference(const Database& db, ServedStatement* st) {
  const anyk::SqlStatement stmt = anyk::ParseSql(st->sql, &db);
  const anyk::PreparedQuery<D> pq(db, stmt.query,
                                  PrepareOptions<D>(stmt.limit, true));
  auto session = pq.NewSession(anyk::Algorithm::kAuto);
  const size_t want = kPageK * kDelayPages;
  std::vector<anyk::ResultRow<D>> rows(want);
  const size_t got = session.NextBatch(rows.data(), want);
  for (size_t i = 0; i < got; ++i) {
    st->weights.push_back(FormatWeight(static_cast<double>(rows[i].weight)));
  }
  st->exhausted = got < want;
}

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

struct Event {
  double due = 0;  // seconds from the phase start
  bool flush = false;
  size_t statement = 0;
  size_t pages = 0;
};

/// Zipf(s = 1) popularity over the statements. Rank r is statement
/// 29 r mod 48, so the hot head mixes shapes and dioids and is the same for
/// every seed (which statements are hot would otherwise dominate the
/// latency figures). Sessions are dealt in blocks of kBlock: a block holds
/// every statement its Zipf share of kBlock sessions (largest remainder)
/// and every page count 0..kMaxPages equally often, in a seeded order. So
/// every seed serves the same mix and the seed decides the order — which
/// statements sit in the cache when a flush lands. Independent draws made
/// the mix itself differ from seed to seed, and the share of cache misses
/// and pages with it.
class Popularity {
 public:
  /// Sessions per block: one flush interval at the mid rate.
  static constexpr size_t kBlock = 200;

  Popularity(uint64_t seed, size_t n) : rng_(seed), order_(n), quota_(n) {
    for (size_t i = 0; i < n; ++i) order_[i] = (29 * i) % n;
    double h = 0;
    for (size_t i = 0; i < n; ++i) h += 1.0 / static_cast<double>(i + 1);
    std::vector<std::pair<double, size_t>> rest;  // (remainder, rank)
    size_t dealt = 0;
    for (size_t i = 0; i < n; ++i) {
      const double share =
          static_cast<double>(kBlock) / (h * static_cast<double>(i + 1));
      quota_[i] = static_cast<size_t>(share);
      dealt += quota_[i];
      rest.emplace_back(share - static_cast<double>(quota_[i]), i);
    }
    std::sort(rest.begin(), rest.end(), std::greater<>());
    for (size_t i = 0; dealt < kBlock; ++i, ++dealt) ++quota_[rest[i].second];
  }
  /// The statement at popularity rank r (0 = hottest).
  size_t ByRank(size_t r) const { return order_[r]; }
  /// The next session: (statement, /v1/next pages).
  std::pair<size_t, size_t> Next() {
    if (pos_ == block_.size()) Deal();
    return block_[pos_++];
  }
 private:
  void Deal() {
    std::vector<size_t> statements;
    std::vector<size_t> pages;
    for (size_t r = 0; r < quota_.size(); ++r) {
      statements.insert(statements.end(), quota_[r], order_[r]);
    }
    for (size_t i = 0; i < kBlock; ++i) pages.push_back(i % (kMaxPages + 1));
    rng_.Shuffle(&statements);
    rng_.Shuffle(&pages);
    block_.clear();
    for (size_t i = 0; i < kBlock; ++i) block_.emplace_back(statements[i], pages[i]);
    pos_ = 0;
  }

  anyk::Rng rng_;
  std::vector<size_t> order_;
  std::vector<size_t> quota_;
  std::vector<std::pair<size_t, size_t>> block_;
  size_t pos_ = 0;
};

std::vector<Event> MakeSchedule(Popularity* pop, double rate, double seconds) {
  std::vector<Event> events;
  const size_t sessions = static_cast<size_t>(std::ceil(rate * seconds));
  for (size_t i = 0; i < sessions; ++i) {
    Event e;
    e.due = static_cast<double>(i) / rate;
    std::tie(e.statement, e.pages) = pop->Next();
    events.push_back(e);
  }
  for (double t = kFlushEvery_s / 2; t < seconds; t += kFlushEvery_s) {
    Event e;
    e.due = t;
    e.flush = true;
    events.push_back(e);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });
  return events;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

enum class ReqKind { kQuery, kNext, kClose, kFlush };

struct Request {
  ReqKind kind = ReqKind::kQuery;
  OpenLoopSample t;
  double service_s = 0;  // sent -> done
  std::string cache;     // query only: hit / miss / coalesced
  size_t answers = 0;
  size_t bytes = 0;
};

struct SessionResult {
  double due = 0;
  double first_done = 0;  // the first page arrived
  double last_done = 0;   // the last page arrived
  size_t answers = 0;
};

struct ClientLog {
  std::vector<Request> requests;
  std::vector<SessionResult> sessions;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  Plant plant = Plant::kNone;
};

/// A parsed page: RESULT rows plus the CURSOR / DONE trailer.
struct Page {
  std::string cache;
  std::vector<std::pair<size_t, std::string>> rows;  // rank, weight text
  std::string cursor;
  bool done = false;
  size_t done_count = 0;
};

bool ParsePage(const std::string& body, Page* page) {
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string_view line(body.data() + pos, end - pos);
    pos = end + 1;
    if (line.rfind("RESULT,", 0) == 0) {
      const size_t c1 = line.find(',', 7);
      if (c1 == std::string_view::npos) return false;
      size_t c2 = line.find(',', c1 + 1);
      if (c2 == std::string_view::npos) c2 = line.size();
      page->rows.emplace_back(
          std::strtoull(std::string(line.substr(7, c1 - 7)).c_str(), nullptr, 10),
          std::string(line.substr(c1 + 1, c2 - c1 - 1)));
    } else if (line.rfind("CACHE,", 0) == 0) {
      page->cache = std::string(line.substr(6));
    } else if (line.rfind("CURSOR,", 0) == 0) {
      page->cursor = std::string(line.substr(7));
    } else if (line.rfind("DONE,", 0) == 0) {
      page->done = true;
      page->done_count = std::strtoull(std::string(line.substr(5)).c_str(),
                                       nullptr, 10);
    }
  }
  return page->done || !page->cursor.empty();
}

class Client {
 public:
  Client(int port, const std::vector<ServedStatement>* statements,
         Clock::time_point phase_start, Tracer* tracer, ClientLog* log)
      : port_(port),
        statements_(statements),
        start_(phase_start),
        tracer_(tracer),
        log_(log) {}

  /// Send `events` in order; stop at the first one due after `stop_after`
  /// seconds have passed.
  void Run(const std::vector<Event>& events, uint64_t first_request_id,
           double stop_after) {
    uint64_t request_id = first_request_id;
    for (const Event& e : events) {
      if (Now() > stop_after) break;
      const auto due = start_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(e.due));
      bool idle = false;
      if (Clock::now() < due) {
        // Sleep until shortly before `due`, then spin: a timer wake-up on a
        // busy VM can come a millisecond late, and the generator's own
        // lateness would count as the server's latency.
        if (due - Clock::now() > kSpin) {
          std::this_thread::sleep_until(due - kSpin);
        }
        while (Clock::now() < due) {
        }
        idle = true;
      }
      tracer_->SetRequest(request_id++);
      try {
        if (e.flush) {
          Flush(e.due, idle);
        } else {
          Session(e, idle);
        }
      } catch (const std::exception& ex) {
        Fail(std::string("request failed: ") + ex.what());
        conn_.reset();  // the connection state is unknown; reconnect
      }
    }
    conn_.reset();
  }

 private:
  double Now() const { return SecondsBetween(start_, Clock::now()); }

  HttpClient* Conn() {
    if (conn_ == nullptr) conn_ = std::make_unique<HttpClient>(port_);
    return conn_.get();
  }

  void Fail(const std::string& what) {
    log_->failures.push_back(what);
  }

  /// One round trip, timed from `due`; returns the body of a 200 response.
  bool RoundTrip(ReqKind kind, const char* span, double due, bool idle,
                 const std::string& target, std::string* body,
                 Request* req_out) {
    Request req;
    req.kind = kind;
    req.t.due = due;
    req.t.idle_wait = idle;
    const auto sent = Clock::now();
    req.t.sent = SecondsBetween(start_, sent);
    const ClientResponse resp = kind == ReqKind::kFlush
                                    ? Conn()->Post(target, "")
                                    : Conn()->Get(target);
    const auto done = Clock::now();
    req.t.done = SecondsBetween(start_, done);
    req.service_s = SecondsBetween(sent, done);
    req.bytes = resp.body.size();
    ++log_->attempted;
    if (resp.status != 200) {
      Fail("HTTP " + std::to_string(resp.status) + " for " + target + ": " +
           resp.body.substr(0, 120));
      log_->requests.push_back(req);
      return false;
    }
    *body = resp.body;
    *req_out = req;
    if (span != nullptr) tracer_->Record(span, sent, done);
    return true;
  }

  void Flush(double due, bool idle) {
    std::string body;
    Request req;
    if (!RoundTrip(ReqKind::kFlush, "server.flush", due, idle, "/v1/flush",
                   &body, &req)) {
      return;
    }
    log_->requests.push_back(req);
  }

  void Session(const Event& e, bool idle) {
    const ServedStatement& st = (*statements_)[e.statement];
    SessionResult session;
    session.due = e.due;
    std::string body;
    Request req;
    const auto query_sent = Clock::now();
    if (!RoundTrip(ReqKind::kQuery, nullptr, e.due, idle, st.target, &body,
                   &req)) {
      return;
    }
    Page page;
    bool ok = ParsePage(body, &page);
    req.cache = page.cache;
    req.answers = page.rows.size();
    tracer_->Record(page.cache == "hit"    ? "server.query_hit"
                    : page.cache == "miss" ? "server.query_miss"
                                           : "server.query_coalesced",
                    query_sent, Clock::now());
    log_->requests.push_back(req);
    session.first_done = session.last_done = req.t.done;

    // The session's answers must continue rank by rank and match the
    // library's weights for the statement.
    std::vector<std::pair<size_t, std::string>> got = page.rows;
    for (size_t p = 0; ok && p < e.pages && !page.cursor.empty(); ++p) {
      const double due = Now();
      const std::string cursor = page.cursor;
      page = Page();
      if (!RoundTrip(ReqKind::kNext, "server.next", due, false,
                     "/v1/next?cursor=" + cursor +
                         "&k=" + std::to_string(kPageK),
                     &body, &req)) {
        return;
      }
      ok = ParsePage(body, &page);
      req.answers = page.rows.size();
      log_->requests.push_back(req);
      session.last_done = req.t.done;
      got.insert(got.end(), page.rows.begin(), page.rows.end());
    }
    if (ok && !page.cursor.empty()) {
      if (!RoundTrip(ReqKind::kClose, "server.close", Now(), false,
                     "/v1/close?cursor=" + page.cursor, &body, &req)) {
        return;
      }
      log_->requests.push_back(req);
    }
    if (log_->plant != Plant::kNone && got.size() >= 2) {
      PlantAnswer(&got);
    }
    session.answers = got.size();
    if (!ok) {
      Fail("malformed page for " + st.sql);
    } else if (!Check(st, got, page)) {
      return;
    }
    log_->sessions.push_back(session);
  }

  /// The planted wrong answer: weight -1, which no answer here has
  /// (kOrder), the predecessor's different weight (kWeight), or a missing
  /// answer (kDrop).
  void PlantAnswer(std::vector<std::pair<size_t, std::string>>* got) {
    std::vector<std::pair<size_t, std::string>>& g = *got;
    switch (log_->plant) {
      case Plant::kOrder:
        g[1].second = "-1";
        break;
      case Plant::kWeight:
        for (size_t i = 1; i < g.size(); ++i) {
          if (g[i].second != g[i - 1].second) {
            g[i].second = g[i - 1].second;
            log_->plant = Plant::kNone;
            return;
          }
        }
        return;
      case Plant::kDrop:
        g.erase(g.begin() + 1);
        break;
      case Plant::kNone:
        return;
    }
    log_->plant = Plant::kNone;
  }

  bool Check(const ServedStatement& st,
             const std::vector<std::pair<size_t, std::string>>& got,
             const Page& last) {
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].first != i + 1) {
        Fail("pages do not join up (rank " + std::to_string(got[i].first) +
             " at position " + std::to_string(i + 1) + "): " + st.sql);
        return false;
      }
      if (i >= st.weights.size() || got[i].second != st.weights[i]) {
        Fail("answer " + std::to_string(i + 1) + " has weight " +
             got[i].second + ", the library's is " +
             (i < st.weights.size() ? st.weights[i] : "none") + " (" +
             st.dioid + "): " + st.sql);
        return false;
      }
    }
    if (last.done && (!st.exhausted || last.done_count != st.weights.size())) {
      Fail("DONE," + std::to_string(last.done_count) +
           " but the library counts " + std::to_string(st.weights.size()) +
           (st.exhausted ? "" : "+") + ": " + st.sql);
      return false;
    }
    return true;
  }

  int port_;
  const std::vector<ServedStatement>* statements_;
  Clock::time_point start_;
  Tracer* tracer_;
  ClientLog* log_;
  std::unique_ptr<HttpClient> conn_;
};

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct Statz {
  double hits = 0, misses = 0, coalesced = 0, evictions = 0, rejected = 0;
  std::vector<double> prepare_seconds;
};

double JsonNumber(const std::string& body, const std::string& key,
                  size_t from = 0) {
  const size_t at = body.find("\"" + key + "\":", from);
  if (at == std::string::npos) return 0;
  return std::strtod(body.c_str() + at + key.size() + 3, nullptr);
}

Statz ReadStatz(int port) {
  HttpClient c(port);
  const std::string body = c.Get("/statz").body;
  Statz s;
  const size_t cache = body.find("\"cache\":");
  s.hits = JsonNumber(body, "hits", cache);
  s.misses = JsonNumber(body, "misses", cache);
  s.coalesced = JsonNumber(body, "coalesced", cache);
  s.evictions = JsonNumber(body, "evictions", cache);
  s.rejected = JsonNumber(body, "rejected");
  for (size_t at = body.find("\"prepare_seconds\":"); at != std::string::npos;
       at = body.find("\"prepare_seconds\":", at + 1)) {
    s.prepare_seconds.push_back(std::strtod(body.c_str() + at + 18, nullptr));
  }
  return s;
}

struct PhaseResult {
  std::vector<Request> requests;
  std::vector<SessionResult> sessions;
  Statz before, after;
  OpenLoopSummary all;  // every request, timed from due
  double elapsed_s = 0;  // phase start -> last response
};

/// Send `events` round robin from kClients threads, one connection each.
PhaseResult RunPhase(int port, const std::vector<ServedStatement>& statements,
                     const std::vector<Event>& events, bool trace,
                     double stop_after, uint64_t request_base,
                     Clock::time_point epoch, Tracer* merged, Plant* plant,
                     RunResult* r) {
  PhaseResult out;
  out.before = ReadStatz(port);
  std::vector<std::vector<Event>> per_client(kClients);
  for (size_t i = 0; i < events.size(); ++i) {
    per_client[i % kClients].push_back(events[i]);
  }
  std::vector<ClientLog> logs(kClients);
  logs[0].plant = *plant;
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (size_t c = 0; c < kClients; ++c) {
    tracers.push_back(std::make_unique<Tracer>(trace, epoch));
  }
  // Start a little ahead so every client is connected and waiting.
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(port, &statements, start, tracers[c].get(), &logs[c]);
        client.Run(per_client[c], request_base + c * events.size(),
                   stop_after);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  *plant = logs[0].plant;
  // Let the workers notice the closed connections before /statz.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  out.after = ReadStatz(port);
  std::vector<OpenLoopSample> samples;
  for (size_t c = 0; c < kClients; ++c) {
    merged->Merge(*tracers[c]);
    r->attempted += logs[c].attempted;
    for (const std::string& f : logs[c].failures) r->Fail(f);
    for (const Request& q : logs[c].requests) {
      out.requests.push_back(q);
      samples.push_back(q.t);
      out.elapsed_s = std::max(out.elapsed_s, q.t.done);
    }
    out.sessions.insert(out.sessions.end(), logs[c].sessions.begin(),
                        logs[c].sessions.end());
  }
  out.all = SummarizeOpenLoop(samples);
  return out;
}

std::vector<double> ServiceMs(const PhaseResult& p, ReqKind kind,
                              const char* cache = nullptr) {
  std::vector<double> v;
  for (const Request& q : p.requests) {
    if (q.kind == kind && (cache == nullptr || q.cache == cache)) {
      v.push_back(q.service_s * 1e3);
    }
  }
  return v;
}

/// Highest supported percentile up to `pct`, so a thin sample never
/// reports a tail it cannot resolve.
double TailPercentile(const std::vector<double>& v, double pct) {
  return Percentile(v, std::min(pct, std::max(50.0,
                                              HighestSupportedPercentile(v.size()))));
}

/// Per-answer time of full /v1/next-sized pages, pulled through
/// MakeQueryHandle / CursorStream::FetchPage on one thread: `cursors`
/// cursors per statement, paged kDelayPages deep, the first page untimed.
/// Every page is checked against the library.
void MeasurePageDelays(const Database& db,
                       const std::vector<ServedStatement>& statements,
                       size_t cursors, RepeatedDelays* delays, RunResult* r) {
  // The rows are kept during the timed fetches and checked after them.
  std::vector<std::pair<size_t, double>> rows;
  const anyk::server::RowFn keep = [&](size_t rank, double weight,
                                       const std::vector<anyk::Value>&) {
    rows.emplace_back(rank, weight);
  };
  for (size_t s = 0; s < statements.size(); ++s) {
    Host().MaybeSample();
    const ServedStatement& st = statements[s];
    const auto handle = anyk::server::MakeQueryHandle(
        db, anyk::ParseSql(st.sql, &db), st.dioid, nullptr);
    for (size_t c = 0; c < cursors; ++c) {
      const auto stream = handle->Open(anyk::Algorithm::kAuto);
      rows.clear();
      std::vector<double> us;
      for (size_t page = 0; page < kDelayPages; ++page) {
        const auto t0 = Clock::now();
        const size_t got = stream->FetchPage(kPageK, keep);
        const double secs = SecondsBetween(t0, Clock::now());
        if (got < kPageK) break;
        if (page > 0) us.push_back(secs * 1e6 / kPageK);
      }
      delays->Add(s, us);
      bool ok = true;
      for (size_t i = 0; i < rows.size(); ++i) {
        ok = ok && rows[i].first == i + 1 && i < st.weights.size() &&
             FormatWeight(rows[i].second) == st.weights[i];
      }
      ++r->attempted;
      if (!ok) r->Fail("QueryHandle pages differ from the library: " + st.sql);
    }
  }
}

}  // namespace

void RunServeZipf(const RunOptions& opt, RunResult* r) {
  const Sizes z = SizesFor(opt.tiny);
  const std::vector<RelSpec> specs = Specs(z);
  const uint64_t data_seed = opt.seed * 1000003 + 4;
  std::vector<ServedStatement> statements = Statements();
  const Popularity warm_order(0, kStatements);

  // Set-up: generate, start the server, warm the cache with the 16 hottest
  // statements. Repeated; the last server stays up.
  std::unique_ptr<anyk::server::AnykServer> server;
  std::vector<double> setup_s;
  Database reference_db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) server->Stop();
    server.reset();
    const double sample_us = Host().Sample();
    anyk::Timer timer;
    Database db;
    GenerateRelations(specs, data_seed, &db);
    if (rep == kSetupReps - 1) GenerateRelations(specs, data_seed, &reference_db);
    server = std::make_unique<anyk::server::AnykServer>(
        std::move(db), anyk::server::ServerOptions{});
    server->Start();
    {
      HttpClient warm(server->bound_port());
      for (size_t i = 0; i < 16; ++i) {
        const ClientResponse resp =
            warm.Get(statements[warm_order.ByRank(i)].target);
        Page page;
        if (resp.status == 200 && ParsePage(resp.body, &page) &&
            !page.cursor.empty()) {
          warm.Get("/v1/close?cursor=" + page.cursor);
        }
      }
    }
    setup_s.push_back(SetupAtNominal(timer.Seconds(), sample_us));
  }
  const int port = server->bound_port();

  // Library references for every statement (not timed).
  for (ServedStatement& st : statements) {
    WithDioid(st.dioid, [&]<class D>() { ComputeReference<D>(reference_db, &st); });
  }

  const Clock::time_point epoch = Clock::now();
  Tracer tracer(opt.trace, epoch);
  Tracer untraced(false, epoch);
  Plant plant = opt.plant;
  const double scale = opt.tiny ? 0.25 : 1.0;
  const double s = opt.seconds;
  uint64_t request_base = 1;
  const auto phase = [&](double rate, double seconds, bool traced,
                         uint64_t seed_salt) {
    // Hand the memory the last phase freed back to the kernel: four workers
    // and two clients allocate from up to seven malloc arenas, and what
    // they left fragmented set the peak RSS of the phases after (114-145
    // MB over seeds and runs; 84-94 MB with the trim). Untimed, between
    // phases, with the server idle.
    malloc_trim(0);
    Host().Sample();
    Popularity pop(opt.seed * 1000003 + seed_salt, kStatements);
    const std::vector<Event> events = MakeSchedule(&pop, rate * scale, seconds);
    PhaseResult p = RunPhase(port, statements, events, traced, seconds,
                             request_base, epoch,
                             traced ? &tracer : &untraced, &plant, r);
    request_base += kClients * events.size() + 1;
    std::fprintf(stderr,
                 "perfbench: serve_zipf %.0f sessions/s for %.1f s: %zu "
                 "requests, p50 %.2f ms, p99 %.2f ms, backlog growth %.2f ms\n",
                 rate * scale, seconds, p.all.n, p.all.p50_ms, p.all.p99_ms,
                 p.all.backlog_growth_ms);
    return p;
  };

  if (!opt.trace) {
    // Each slice: the mid rate (the latencies; 210 sessions at least, so
    // the slice's p95 keeps ten beyond it when a session fails), then
    // capacity — every session already due, so the two clients work back
    // to back — then a delay pass: cursors paged
    // through the server's own QueryHandle / CursorStream path (what
    // /v1/next runs, minus HTTP) on one thread. Over loopback HTTP on a
    // shared 4-vCPU VM the p99 of a sub-millisecond page is set by
    // scheduler wake-ups, not by the engine.
    const double mid_s =
        std::max(0.6 * s / kSlices, opt.tiny ? 0.0 : 210 / kMidRate);
    // Every figure is taken per slice and reported as the median over the
    // slices, so a slow spell of the host that covers a slice or two does
    // not move it.
    std::vector<double> ttf50, ttf95, ttk50, ttk95, qps, aps;
    bool supported = true;
    RepeatedDelays delays;
    for (int slice = 0; slice < kSlices; ++slice) {
      const uint64_t salt = 11 + 10 * static_cast<uint64_t>(slice);
      const PhaseResult mid = phase(kMidRate, mid_s, false, salt);
      std::vector<double> ttf, ttk;
      for (const SessionResult& x : mid.sessions) {
        ttf.push_back((x.first_done - x.due) * 1e3);
        ttk.push_back((x.last_done - x.due) * 1e3);
      }
      supported = supported && HasTailSupport(ttf.size(), 95);
      ttf50.push_back(BandPercentile(ttf, 50));
      ttf95.push_back(BandPercentile(ttf, 95));
      ttk50.push_back(BandPercentile(ttk, 50));
      ttk95.push_back(BandPercentile(ttk, 95));
      const PhaseResult burst =
          phase(kBurstRate, 0.2 * s / kSlices, false, salt + 1);
      size_t answers = 0;
      for (const Request& q : burst.requests) answers += q.answers;
      const double burst_s = std::max(burst.elapsed_s, 1e-9);
      qps.push_back(static_cast<double>(burst.sessions.size()) / burst_s);
      aps.push_back(static_cast<double>(answers) / burst_s);
      MeasurePageDelays(reference_db, statements,
                        opt.tiny ? 1 : kDelayCursors, &delays, r);
    }
    const std::vector<double> delay = delays.PerPosition();

    SetCommonMetrics(Median(setup_s), r);
    MetricSet& m = r->end_to_end;
    m.Set("ttf_p50_ms", Median(ttf50), "ms");
    m.Set("ttf_p95_ms", Median(ttf95), "ms");
    m.Set("ttk_p50_ms", Median(ttk50), "ms");
    m.Set("ttk_p95_ms", Median(ttk95), "ms");
    m.Set("queries_per_s", Median(qps), "1/s");
    m.Set("answers_per_s", Median(aps), "1/s");
    m.Set("delay_p99_us", BandPercentile(delay, 99), "us");
    if (!opt.tiny && (!supported || !HasTailSupport(delay.size(), 99))) {
      r->Fail("too few samples for the reported percentiles");
    }
  } else {
    // Traced run: the mid phase untraced and traced (the overhead), the
    // high rate traced, then the capacity ladder.
    const PhaseResult plain = phase(kMidRate, 0.25 * s, false, 11);
    const PhaseResult mid = phase(kMidRate, 0.25 * s, true, 11);
    const PhaseResult high = phase(kHighRate, 0.25 * s, true, 12);

    // Ladder: rungs above the high rate (untraced, so their requests stay
    // out of the service-time figures) until one misses the limit; the
    // rate interpolates where the p99 crosses it.
    double max_rate = 0;
    if (!MeetsLimit(mid.all, kLimitMs)) {
      max_rate = InterpolateMaxRate(0, 0, kMidRate, mid.all.p99_ms, kLimitMs);
    } else {
      double ok_rate = kMidRate, ok_p99 = mid.all.p99_ms, rate = kHighRate;
      OpenLoopSummary rung = high.all;
      for (int i = 0;; ++i) {
        if (!MeetsLimit(rung, kLimitMs)) {
          max_rate = InterpolateMaxRate(
              ok_rate, ok_p99, rate,
              std::max(rung.p99_ms, kLimitMs + rung.backlog_growth_ms),
              kLimitMs);
          break;
        }
        ok_rate = rate;
        ok_p99 = rung.p99_ms;
        if (i == kLadderRungs) {
          max_rate = ok_rate;
          break;
        }
        rate *= kLadderStep;
        rung = phase(rate, opt.tiny ? 0.1 * s : std::max(0.06 * s, 1.5), false,
                     13 + static_cast<uint64_t>(i))
                   .all;
      }
    }

    MetricSet& m = r->per_layer;
    std::vector<double> hit, miss, next, flush;
    size_t answers = 0, bytes = 0;
    std::vector<OpenLoopSample> lag;
    for (const PhaseResult* p : {&mid, &high}) {
      const auto add = [](std::vector<double>* to, std::vector<double> v) {
        to->insert(to->end(), v.begin(), v.end());
      };
      add(&hit, ServiceMs(*p, ReqKind::kQuery, "hit"));
      add(&miss, ServiceMs(*p, ReqKind::kQuery, "miss"));
      add(&next, ServiceMs(*p, ReqKind::kNext));
      add(&flush, ServiceMs(*p, ReqKind::kFlush));
      for (const Request& q : p->requests) {
        if (q.kind == ReqKind::kQuery || q.kind == ReqKind::kNext) {
          answers += q.answers;
          bytes += q.bytes;
        }
        lag.push_back(q.t);
      }
    }
    m.Set("server.query_hit_ms.p50", Percentile(hit, 50), "ms");
    m.Set("server.query_hit_ms.p99", TailPercentile(hit, 99), "ms");
    m.Set("server.query_miss_ms.p50", Percentile(miss, 50), "ms");
    m.Set("server.query_miss_ms.p90", TailPercentile(miss, 90), "ms");
    m.Set("server.next_ms.p50", Percentile(next, 50), "ms");
    m.Set("server.next_ms.p99", TailPercentile(next, 99), "ms");
    m.Set("server.flush_ms", Median(flush), "ms");
    const double hits = high.after.hits - mid.before.hits;
    const double lookups = hits + (high.after.misses - mid.before.misses) +
                           (high.after.coalesced - mid.before.coalesced);
    m.Set("server.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "frac");
    m.Set("server.cache_lookups", lookups, "count");
    m.Set("server.coalesced", high.after.coalesced - mid.before.coalesced,
          "count");
    m.Set("server.evictions", high.after.evictions - mid.before.evictions,
          "count");
    m.Set("server.prepare_s", Median(high.after.prepare_seconds), "s");
    m.Set("server.rejected", high.after.rejected - plain.before.rejected,
          "count");
    m.Set("server.resp_bytes_per_answer",
          answers > 0 ? static_cast<double>(bytes) / static_cast<double>(answers)
                      : 0,
          "B");
    m.Set("gen.lag_ms.p99", SummarizeOpenLoop(lag).lag_p99_ms, "ms");
    m.Set("req_p50_ms.mid", mid.all.p50_ms, "ms");
    m.Set("req_p99_ms.mid", mid.all.p99_ms, "ms");
    m.Set("req_p50_ms.high", high.all.p50_ms, "ms");
    m.Set("req_p99_ms.high", high.all.p99_ms, "ms");
    m.Set("max_rate_rps", max_rate * scale, "1/s");
    // Medians: the mean is dominated by the few requests queued behind a
    // prepare, which differ between any two phases.
    m.Set("trace.overhead_frac",
          plain.all.p50_ms > 0 ? mid.all.p50_ms / plain.all.p50_ms - 1 : 0,
          "frac");
    WriteSpans(tracer, opt);
  }
  server->Stop();
}

}  // namespace perfbench
