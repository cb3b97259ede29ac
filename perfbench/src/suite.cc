// tpch_power and tpcds_adhoc: one client runs a query suite in order, in
// whole passes (a closed loop), against the engine's shipped defaults with
// the paper's threshold and EXHAUSTIVE2 join search.
#include <memory>
#include <string>
#include <vector>

#include "stages.h"
#include "workloads.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace perfbench {

namespace {

/// Failing statements named in the report (the counts cover all of them).
constexpr int kMaxFailureLines = 8;

struct SuiteSpec {
  DataSpec data;
  /// The generator's own seed. The data does not follow --seed: on TPC-H,
  /// whether Q20's correlated-subquery defect shows depends on the data
  /// (it does for this seed, not for many others), and a run must measure
  /// the same workload whatever its seed.
  uint64_t data_seed;
  int threshold;
  const std::vector<std::string>& (*queries)();
};

class Suite {
 public:
  Suite(const Options& opt, const SuiteSpec& spec, Progress* progress)
      : opt_(opt), spec_(spec), progress_(progress), sqls_(spec.queries()) {
    for (size_t i = 0; i < sqls_.size(); ++i) {
      keys_.push_back("Q" + std::to_string(i + 1));
    }
  }

  Outcome Run();

 private:
  /// Runs whole passes until the next one would end past `budget_s` (at
  /// least one); `one` runs statement i.
  template <typename Fn>
  void Passes(double budget_s, std::vector<double>* pass_s, double* wall_s,
              const Fn& one) {
    const double t0 = NowMs();
    double pass = 0.0;
    do {
      const double p0 = NowMs();
      for (size_t i = 0; i < sqls_.size(); ++i) one(i);
      pass = (NowMs() - p0) / 1000.0;
      pass_s->push_back(pass);
    } while ((NowMs() - t0) / 1000.0 + pass <= budget_s);
    *wall_s = (NowMs() - t0) / 1000.0;
  }

  void Begin(size_t i) {
    progress_->current.store(&keys_[i]);
    progress_->attempted.fetch_add(1);
  }
  void Fail(size_t i, const std::string& why, int64_t* counter) {
    ++*counter;
    progress_->failed.fetch_add(1);
    if (failure_lines_++ < kMaxFailureLines) {
      out_.lines.push_back(keys_[i] + " failed: " + why);
    }
  }
  bool Matches(size_t i, const std::vector<taurus::Row>& rows) const {
    return have_[i] && ResultChecksum(rows) == expected_[i];
  }

  /// One warm-up pass: fills the plan cache and records each result
  /// checksum, which must agree with the earlier set-ups' (fresh data).
  void WarmUp(TimedSamples* t);
  void RunUntraced(size_t i, TimedSamples* t);
  void RunTraced(size_t i, TimedSamples* t);

  const Options& opt_;
  const SuiteSpec& spec_;
  Progress* progress_;
  const std::vector<std::string>& sqls_;
  std::vector<std::string> keys_;
  std::unique_ptr<taurus::Database> db_;
  std::vector<Checksum> expected_;
  std::vector<bool> have_;
  Outcome out_;
  int failure_lines_ = 0;

  // Traced phase state.
  Ledger ledger_;
  std::unique_ptr<taurus::ThreadPool> pool_;
  std::unique_ptr<StageReplay> replay_;
};

Outcome Suite::Run() {
  const size_t n = sqls_.size();
  expected_.assign(n, Checksum{});
  have_.assign(n, false);
  SetupTimes setup;
  TimedSamples warm_t;
  taurus::Status st = RepeatSetups(&setup, [&]() -> taurus::Status {
    TAURUS_RETURN_IF_ERROR(
        BuildData(spec_.data, spec_.data_seed, &db_, &setup));
    db_->router_config().complex_query_threshold = spec_.threshold;
    db_->orca_config().strategy = taurus::JoinSearchStrategy::kExhaustive2;
    const double w0 = NowMs();
    WarmUp(&warm_t);
    setup.warmup_s = (NowMs() - w0) / 1000.0;
    return taurus::Status::OK();
  });
  CountFailures(warm_t, &out_);
  if (!st.ok()) {
    out_.correct = false;
    ++out_.failed;
    out_.lines.push_back("set-up failed: " + st.ToString());
    return out_;
  }
  std::vector<std::pair<std::string, Checksum>> warm;
  std::string empty;
  int64_t empty_count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!have_[i]) continue;
    warm.emplace_back(keys_[i], expected_[i]);
    if (expected_[i].rows == 0) {
      ++empty_count;
      empty += " " + keys_[i];
    }
  }
  CheckStoredChecksums(opt_, /*stored_set_applies=*/true, warm, &out_);
  out_.lines.push_back(Fmt("workloads.empty_results %lld (coverage gap):%s",
                           static_cast<long long>(empty_count),
                           empty.empty() ? " none" : empty.c_str()));

  TimedSamples base;
  base.group_names = keys_;
  auto untraced = [&](size_t i) { RunUntraced(i, &base); };
  if (!opt_.trace) {
    progress_->timed_expected_s.store(opt_.seconds + setup.warmup_s);
    const taurus::PlanCacheStats cache0 = db_->plan_cache().stats();
    Passes(opt_.seconds, &base.pass_s, &base.wall_s, untraced);
    base.peak_rss_mb = PeakRssMb();
    out_.lines.push_back(PlanCacheLine(cache0, db_->plan_cache().stats()));
    CountFailures(base, &out_);
    ReportEndToEnd(setup, base, &out_);
    return out_;
  }

  // Traced run: an untraced half for reference, then the traced half.
  st = MeasureSetupLayers(spec_.data, spec_.data_seed, &ledger_);
  if (!st.ok()) out_.lines.push_back("set-up layers: " + st.ToString());
  ledger_.Count("workloads.empty_results", static_cast<double>(empty_count));
  // The traced half executes every statement twice.
  progress_->timed_expected_s.store(opt_.seconds + 3 * setup.warmup_s);
  Passes(opt_.seconds / 2.0, &base.pass_s, &base.wall_s, untraced);
  CountFailures(base, &out_);

  const int workers = EngineWorkers(db_.get());
  if (workers > 1) pool_ = std::make_unique<taurus::ThreadPool>(workers);
  replay_ = std::make_unique<StageReplay>(db_.get());
  TimedSamples traced;
  traced.group_names = keys_;
  const int64_t evictions_before = db_->plan_cache().stats().evictions;
  Passes(opt_.seconds / 2.0, &traced.pass_s, &traced.wall_s,
         [&](size_t i) { RunTraced(i, &traced); });
  ledger_.Count("engine.plan_cache.evictions",
                static_cast<double>(db_->plan_cache().stats().evictions -
                                    evictions_before));
  CountFailures(traced, &out_);
  ReportLayers(ledger_, traced, base, &out_);
  return out_;
}

void Suite::WarmUp(TimedSamples* t) {
  for (size_t i = 0; i < sqls_.size(); ++i) {
    Begin(i);
    ++t->attempted;
    auto r = db_->Query(sqls_[i]);
    if (!r.ok()) {
      Fail(i, "warm-up: " + r.status().ToString(), &t->errors);
      continue;
    }
    const Checksum c = ResultChecksum(r->rows);
    if (have_[i] && c != expected_[i]) {
      Fail(i, "warm-up checksum differs between set-ups", &t->mismatches);
      continue;
    }
    expected_[i] = c;
    have_[i] = true;
  }
}

void Suite::RunUntraced(size_t i, TimedSamples* t) {
  Begin(i);
  ++t->attempted;
  const double s = NowMs();
  auto r = db_->Query(sqls_[i]);
  const double ms = NowMs() - s;
  if (!r.ok()) {
    Fail(i, r.status().ToString(), &t->errors);
  } else if (!Matches(i, r->rows)) {
    Fail(i, "result checksum differs from the warm-up pass", &t->mismatches);
  } else {
    t->Add(i, ms);
  }
}

void Suite::RunTraced(size_t i, TimedSamples* t) {
  Begin(i);
  ++t->attempted;
  TracedTimes times;
  auto rows = TraceCompileExecute(db_.get(), replay_.get(), pool_.get(),
                                  sqls_[i], &ledger_, &times);
  if (!rows.ok()) {
    Fail(i, rows.status().ToString(), &t->errors);
    return;
  }
  if (!Matches(i, *rows)) {
    Fail(i, "traced ExecuteQuery checksum differs", &t->mismatches);
    return;
  }
  const double q0 = NowMs();
  auto r = db_->Query(sqls_[i]);
  const double query_ms = NowMs() - q0;
  if (!r.ok()) {
    Fail(i, r.status().ToString(), &t->errors);
    return;
  }
  if (!Matches(i, r->rows)) {
    Fail(i, "result checksum differs from the warm-up pass", &t->mismatches);
    return;
  }
  t->Add(i, BookQuery(*r, query_ms, times, &ledger_));
}

const SuiteSpec kTpchPower{{taurus::CreateTpchSchema, taurus::LoadTpch, 0.006},
                           kTpchDataSeed,
                           3,
                           taurus::TpchQueries};
const SuiteSpec kTpcdsAdhoc{
    {taurus::CreateTpcdsSchema, taurus::LoadTpcds, 0.001},
    kTpcdsDataSeed,
    2,
    taurus::TpcdsQueries};

}  // namespace

Outcome RunTpchPower(const Options& opt, Progress* progress) {
  return Suite(opt, kTpchPower, progress).Run();
}

Outcome RunTpcdsAdhoc(const Options& opt, Progress* progress) {
  return Suite(opt, kTpcdsAdhoc, progress).Run();
}

taurus::Status BuildData(const DataSpec& spec, uint64_t seed,
                         std::unique_ptr<taurus::Database>* db,
                         SetupTimes* times) {
  db->reset();
  const double t0 = NowMs();
  *db = std::make_unique<taurus::Database>();
  TAURUS_RETURN_IF_ERROR(spec.create_schema(db->get()));
  TAURUS_RETURN_IF_ERROR(spec.load(db->get(), spec.scale, seed));
  times->data_s = (NowMs() - t0) / 1000.0;
  return taurus::Status::OK();
}

taurus::Status MeasureSetupLayers(const DataSpec& spec, uint64_t seed,
                                  Ledger* ledger) {
  taurus::Database staging;
  TAURUS_RETURN_IF_ERROR(spec.create_schema(&staging));
  const double g0 = NowMs();
  TAURUS_RETURN_IF_ERROR(spec.load(&staging, spec.scale, seed));
  const double generate_ms = NowMs() - g0;

  taurus::Database copy;
  TAURUS_RETURN_IF_ERROR(spec.create_schema(&copy));
  double load_ms = 0.0;
  for (const std::string& name : staging.catalog().TableNames()) {
    const taurus::TableDef* def = staging.catalog().GetTable(name);
    std::vector<taurus::Row> rows = staging.storage().Get(def->id)->rows();
    const double l0 = NowMs();
    TAURUS_RETURN_IF_ERROR(copy.BulkLoad(name, std::move(rows)));
    load_ms += NowMs() - l0;
  }
  const double a0 = NowMs();
  TAURUS_RETURN_IF_ERROR(copy.AnalyzeAll());
  const double analyze_ms = NowMs() - a0;
  ledger->Count("workloads.datagen_s",
                (generate_ms - load_ms - analyze_ms) / 1000.0);
  ledger->Count("storage.bulk_load_s", load_ms / 1000.0);
  ledger->Count("catalog.analyze_s", analyze_ms / 1000.0);
  return taurus::Status::OK();
}

std::string PlanCacheLine(const taurus::PlanCacheStats& before,
                          const taurus::PlanCacheStats& after) {
  return Fmt("plan cache over the timed phase: %lld hits, %lld misses, %lld "
             "evictions, %lld invalidations",
             static_cast<long long>(after.hits - before.hits),
             static_cast<long long>(after.misses - before.misses),
             static_cast<long long>(after.evictions - before.evictions),
             static_cast<long long>(
                 after.invalidations + after.drift_invalidations -
                 before.invalidations - before.drift_invalidations));
}

void CheckStoredChecksums(
    const Options& opt, bool stored_set_applies,
    const std::vector<std::pair<std::string, Checksum>>& warm, Outcome* out) {
  const std::string path = opt.checksum_dir + "/" + opt.workload + ".txt";
  if (opt.checksum_dir.empty()) {
    out->correct = false;
    out->lines.push_back("stored checksums: no --checksums directory given");
    return;
  }
  if (opt.write_checksums) {
    const bool ok = stored_set_applies && WriteChecksums(path, warm);
    out->lines.push_back((ok ? "wrote " : "did not write ") + path);
    if (!ok) out->correct = false;
    return;
  }
  if (!stored_set_applies) {
    out->lines.push_back(Fmt(
        "stored checksums: not applicable to seed %llu (stored for %llu); "
        "timed passes are checked against the warm-up pass",
        static_cast<unsigned long long>(opt.seed),
        static_cast<unsigned long long>(kDefaultSeed)));
    return;
  }
  std::map<std::string, Checksum> stored;
  if (!ReadChecksums(path, &stored)) {
    out->correct = false;
    ++out->failed;
    out->lines.push_back("stored checksums: cannot read " + path);
    return;
  }
  int64_t mismatched = 0;
  std::string names;
  for (const auto& [key, c] : warm) {
    auto it = stored.find(key);
    if (it == stored.end() || it->second != c) {
      ++mismatched;
      if (mismatched <= kMaxFailureLines) names += " " + key;
    }
  }
  // A statement that failed outright has no warm-up checksum; it is already
  // counted as failed, so only the set sizes are compared for it here.
  out->failed += mismatched;
  if (mismatched > 0) out->correct = false;
  out->lines.push_back(Fmt("stored checksums: %zu of %zu match%s%s",
                           warm.size() - static_cast<size_t>(mismatched),
                           stored.size(), mismatched > 0 ? "; differ:" : "",
                           names.c_str()));
}

}  // namespace perfbench
