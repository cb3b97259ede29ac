// sessions_hitpath: a Server with kSessions Sessions, one thread each, every
// session a closed loop over its own script of short statements whose
// literals come from the seed. The statements are meant for the plan
// cache's hit path, but statement fingerprints keep literal values, so
// nearly every compile misses (the report's plan cache line shows it) —
// what literal folding would change is measured here as it stands.
#include <cinttypes>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "stages.h"
#include "workloads.h"
#include "workloads/tpch.h"

namespace perfbench {

namespace {

constexpr int kSessions = 4;
constexpr int kScriptLength = 120;
constexpr double kScale = 0.001;

enum Kind { kPointLookup = 0, kJoin = 1, kRangeAgg = 2, kKinds = 3 };

struct Statement {
  std::string key;
  std::string sql;
  Kind kind;
};

/// Per-session state of one run.
struct Client {
  std::unique_ptr<taurus::Session> session;
  std::vector<Statement> script;
  std::vector<Checksum> expected;
  std::vector<bool> have;  ///< expected[i] is set
  TimedSamples timed;
  // Traced phase.
  Ledger ledger;
  std::unique_ptr<StageReplay> replay;
  std::string first_error;
};

class SessionsHitpath {
 public:
  SessionsHitpath(const Options& opt, Progress* progress)
      : opt_(opt), progress_(progress) {}
  Outcome Run();

 private:
  taurus::Status BuildScripts();
  /// Runs `fn(client)` on one thread per session and joins them.
  template <typename Fn>
  void OnEachSession(const Fn& fn) {
    std::vector<std::thread> threads;
    for (Client& c : clients_) threads.emplace_back([&fn, &c] { fn(c); });
    for (std::thread& t : threads) t.join();
  }
  /// Whole passes over the client's script until `budget_s` has elapsed.
  template <typename Fn>
  void Passes(Client& c, double budget_s, std::vector<double>* pass_s,
              const Fn& one) {
    const double t0 = NowMs();
    while ((NowMs() - t0) / 1000.0 < budget_s) {
      const double p0 = NowMs();
      for (size_t i = 0; i < c.script.size(); ++i) one(c, i);
      pass_s->push_back((NowMs() - p0) / 1000.0);
    }
  }
  /// One warm-up pass: every session runs its script once, one session
  /// after the other (thread start-up would otherwise dominate this short
  /// phase), recording the checksums the timed passes must reproduce; they
  /// must agree with the earlier set-ups' (fresh data, same statements).
  void WarmUp(TimedSamples* t);
  /// Classifies a failed Session::Query into `t`.
  void Fail(Client& c, const taurus::Status& st, TimedSamples* t);
  void RunUntraced(Client& c, size_t i);
  void RunTraced(Client& c, size_t i, TimedSamples* t);
  void Begin(const Statement& s) {
    progress_->current.store(&s.key);
    progress_->attempted.fetch_add(1);
  }

  const Options& opt_;
  Progress* progress_;
  std::unique_ptr<taurus::Database> db_;
  std::unique_ptr<taurus::Server> server_;
  std::vector<Client> clients_;
  std::unique_ptr<taurus::ThreadPool> pool_;
};

taurus::Status SessionsHitpath::BuildScripts() {
  // Literal pools from the loaded data, so every statement finds rows.
  auto orders = db_->Query("SELECT o_orderkey, o_custkey FROM orders");
  if (!orders.ok()) return orders.status();
  std::vector<int64_t> order_keys, cust_keys;
  for (const taurus::Row& r : orders->rows) {
    order_keys.push_back(r[0].AsInt());
    cust_keys.push_back(r[1].AsInt());
  }
  if (order_keys.empty()) return taurus::Status::Internal("no orders loaded");
  clients_.resize(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    std::mt19937_64 rng(opt_.seed * 1000003ULL + static_cast<uint64_t>(s));
    auto pick = [&rng](const std::vector<int64_t>& pool) {
      return static_cast<long long>(pool[rng() % pool.size()]);
    };
    for (int i = 0; i < kScriptLength; ++i) {
      Statement st;
      st.key = "s" + std::to_string(s) + "." + std::to_string(i);
      st.kind = static_cast<Kind>(rng() % kKinds);
      switch (st.kind) {
        case kPointLookup:
          st.sql = Fmt(
              "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
              "o_orderdate FROM orders WHERE o_orderkey = %lld",
              pick(order_keys));
          break;
        case kJoin:
          st.sql = Fmt(
              "SELECT c_name, o_orderkey, o_orderdate, l_linenumber, "
              "l_quantity, l_extendedprice FROM customer, orders, lineitem "
              "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND "
              "c_custkey = %lld",
              pick(cust_keys));
          break;
        default: {
          const long long lo = pick(order_keys);
          st.sql = Fmt(
              "SELECT COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM "
              "lineitem WHERE l_orderkey BETWEEN %lld AND %lld",
              lo, lo + 31);
          break;
        }
      }
      clients_[static_cast<size_t>(s)].script.push_back(std::move(st));
    }
  }
  return taurus::Status::OK();
}

Outcome SessionsHitpath::Run() {
  Outcome out;
  SetupTimes setup;
  TimedSamples warm;
  const DataSpec data{taurus::CreateTpchSchema, taurus::LoadTpch, kScale};
  taurus::Status st = RepeatSetups(&setup, [&]() -> taurus::Status {
    for (Client& c : clients_) c.session.reset();
    server_.reset();
    TAURUS_RETURN_IF_ERROR(BuildData(data, kTpchDataSeed, &db_, &setup));
    db_->router_config().complex_query_threshold = 3;
    db_->orca_config().strategy = taurus::JoinSearchStrategy::kExhaustive2;
    if (clients_.empty()) TAURUS_RETURN_IF_ERROR(BuildScripts());
    const double w0 = NowMs();
    server_ = std::make_unique<taurus::Server>(db_.get());
    for (Client& c : clients_) {
      TAURUS_ASSIGN_OR_RETURN(c.session, server_->CreateSession());
    }
    WarmUp(&warm);
    setup.warmup_s = (NowMs() - w0) / 1000.0;
    return taurus::Status::OK();
  });
  CountFailures(warm, &out);
  if (!st.ok()) {
    out.correct = false;
    ++out.failed;
    out.lines.push_back("set-up failed: " + st.ToString());
    return out;
  }
  std::vector<std::pair<std::string, Checksum>> all;
  int64_t empty = 0;
  for (const Client& c : clients_) {
    for (size_t i = 0; i < c.script.size(); ++i) {
      if (!c.have[i]) continue;
      all.emplace_back(c.script[i].key, c.expected[i]);
      if (c.expected[i].rows == 0) ++empty;
    }
  }
  CheckStoredChecksums(opt_, opt_.seed == kDefaultSeed, all, &out);
  out.lines.push_back(Fmt("workloads.empty_results %" PRId64
                          " of %zu script statements (coverage gap)",
                          empty, all.size()));

  for (Client& c : clients_) {
    c.timed.group_names = {"point_lookup", "join3", "range_agg"};
  }
  auto untraced = [this](Client& c, size_t i) { RunUntraced(c, i); };
  progress_->timed_expected_s.store(opt_.seconds + setup.warmup_s);
  const double budget_s = opt_.trace ? opt_.seconds / 2.0 : opt_.seconds;
  const taurus::PlanCacheStats cache0 = db_->plan_cache().stats();
  const double t0 = NowMs();
  OnEachSession([&](Client& c) {
    Passes(c, budget_s, &c.timed.pass_s, untraced);
  });
  out.lines.push_back(PlanCacheLine(cache0, db_->plan_cache().stats()));
  TimedSamples base;
  base.wall_s = (NowMs() - t0) / 1000.0;
  base.peak_rss_mb = PeakRssMb();
  for (const Client& c : clients_) base.Merge(c.timed);
  CountFailures(base, &out);
  for (const Client& c : clients_) {
    if (!c.first_error.empty()) out.lines.push_back(c.first_error);
  }
  if (!opt_.trace) {
    ReportEndToEnd(setup, base, &out);
    return out;
  }

  // Traced half.
  Ledger ledger;
  st = MeasureSetupLayers(data, kTpchDataSeed, &ledger);
  if (!st.ok()) out.lines.push_back("set-up layers: " + st.ToString());
  ledger.Count("workloads.empty_results", static_cast<double>(empty));
  const int workers = EngineWorkers(db_.get());
  if (workers > 1) pool_ = std::make_unique<taurus::ThreadPool>(workers);
  std::vector<TimedSamples> traced(clients_.size());
  for (TimedSamples& t : traced) t.group_names = clients_[0].timed.group_names;
  const int64_t evictions_before = db_->plan_cache().stats().evictions;
  OnEachSession([&](Client& c) {
    c.replay = std::make_unique<StageReplay>(db_.get());
    TimedSamples* t = &traced[static_cast<size_t>(&c - clients_.data())];
    std::vector<double> pass_s;
    Passes(c, budget_s, &pass_s,
           [this, t](Client& cl, size_t i) { RunTraced(cl, i, t); });
  });
  ledger.Count("engine.plan_cache.evictions",
               static_cast<double>(db_->plan_cache().stats().evictions -
                                   evictions_before));
  TimedSamples traced_all;
  for (size_t k = 0; k < clients_.size(); ++k) {
    ledger.Count("server.rejected", static_cast<double>(traced[k].rejected));
    ledger.Merge(clients_[k].ledger);
    traced_all.Merge(traced[k]);
  }
  CountFailures(traced_all, &out);
  ReportLayers(ledger, traced_all, base, &out);
  return out;
}

void SessionsHitpath::WarmUp(TimedSamples* t) {
  for (Client& c : clients_) {
    c.expected.resize(c.script.size());
    c.have.resize(c.script.size(), false);
    for (size_t i = 0; i < c.script.size(); ++i) {
      Begin(c.script[i]);
      ++t->attempted;
      auto r = c.session->Query(c.script[i].sql);
      if (!r.ok()) {
        Fail(c, r.status(), t);
        continue;
      }
      const Checksum sum = ResultChecksum(r->rows);
      if (c.have[i] && sum != c.expected[i]) {
        ++t->mismatches;
        progress_->failed.fetch_add(1);
        continue;
      }
      c.expected[i] = sum;
      c.have[i] = true;
    }
  }
}

void SessionsHitpath::Fail(Client& c, const taurus::Status& st,
                           TimedSamples* t) {
  progress_->failed.fetch_add(1);
  if (st.origin_subsystem() == "server.admission") {
    ++t->rejected;
  } else {
    ++t->errors;
  }
  if (c.first_error.empty()) c.first_error = "session error: " + st.ToString();
}

void SessionsHitpath::RunUntraced(Client& c, size_t i) {
  const Statement& s = c.script[i];
  Begin(s);
  ++c.timed.attempted;
  const double q0 = NowMs();
  auto r = c.session->Query(s.sql);
  const double ms = NowMs() - q0;
  if (!r.ok()) {
    Fail(c, r.status(), &c.timed);
  } else if (ResultChecksum(r->rows) != c.expected[i]) {
    ++c.timed.mismatches;
    progress_->failed.fetch_add(1);
  } else {
    c.timed.Add(s.kind, ms);
  }
}

void SessionsHitpath::RunTraced(Client& c, size_t i, TimedSamples* t) {
  const Statement& s = c.script[i];
  Ledger& l = c.ledger;
  Begin(s);
  ++t->attempted;
  TracedTimes times;
  auto rows = TraceCompileExecute(db_.get(), c.replay.get(), pool_.get(),
                                  s.sql, &l, &times);
  if (!rows.ok() || ResultChecksum(*rows) != c.expected[i]) {
    ++t->mismatches;
    progress_->failed.fetch_add(1);
    return;
  }
  // server: one Admit/Release round trip with the session's request shape.
  taurus::AdmissionRequest request;
  request.requested_workers = EngineWorkers(db_.get());
  const double a0 = NowMs();
  auto ticket = server_->admission().Admit(request);
  if (ticket.ok()) server_->admission().Release(*ticket);
  l.Time("server.admit_release", NowMs() - a0);
  const double q0 = NowMs();
  auto r = c.session->Query(s.sql);
  const double query_ms = NowMs() - q0;
  if (!r.ok()) {
    Fail(c, r.status(), t);
    return;
  }
  if (ResultChecksum(r->rows) != c.expected[i]) {
    ++t->mismatches;
    progress_->failed.fetch_add(1);
    return;
  }
  if (r->admission_queued) l.Count("server.queued");
  if (r->shed) l.Count("server.shed");
  l.Time("server.admission_wait", r->admission_wait_ms);
  t->Add(s.kind, BookQuery(*r, query_ms, times, &l));
}

}  // namespace

Outcome RunSessionsHitpath(const Options& opt, Progress* progress) {
  return SessionsHitpath(opt, progress).Run();
}

}  // namespace perfbench
