#include "engine/database.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <optional>

#include "bridge/decorrelate.h"
#include "bridge/parse_tree_converter.h"
#include "common/lock_rank.h"
#include "common/strings.h"
#include "engine/explain.h"
#include "exec/block_executor.h"
#include "exec/expr_eval.h"
#include "frontend/binder.h"
#include "frontend/fingerprint.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "obs/estimate_feedback.h"
#include "parser/parser.h"
#include "verify/block_verifier.h"
#include "verify/skeleton_verifier.h"

namespace taurus {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Defense-in-depth recursion cap for AST walks; the parser rejects
/// nesting beyond its own (smaller) limit, so this is unreachable for any
/// statement that survived parsing.
constexpr int kMaxBlockNesting = 64;

/// Visits every query block of a statement (derived bodies, expression
/// subquery bodies, UNION continuations).
template <typename Fn>
void ForEachBlock(QueryBlock* block, const Fn& fn, int depth = 0) {
  if (depth > kMaxBlockNesting) return;
  fn(block);
  std::vector<TableRef*> stack;
  for (auto& t : block->from) stack.push_back(t.get());
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    } else if (r->kind == TableRef::Kind::kDerived && r->derived != nullptr) {
      ForEachBlock(r->derived.get(), fn, depth + 1);
    }
  }
  std::vector<Expr*> roots;
  for (auto& item : block->select_items) roots.push_back(item.expr.get());
  if (block->where) roots.push_back(block->where.get());
  for (auto& g : block->group_by) roots.push_back(g.get());
  if (block->having) roots.push_back(block->having.get());
  for (auto& o : block->order_by) roots.push_back(o.expr.get());
  for (auto& t : block->from) stack.push_back(t.get());
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) roots.push_back(r->on.get());
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
  std::vector<Expr*> estack(roots.begin(), roots.end());
  while (!estack.empty()) {
    Expr* e = estack.back();
    estack.pop_back();
    if (e->subquery) ForEachBlock(e->subquery.get(), fn, depth + 1);
    for (auto& c : e->children) estack.push_back(c.get());
  }
  if (block->union_next) ForEachBlock(block->union_next.get(), fn, depth + 1);
}

/// True when the statement's first token is SHOW (routed to the metrics
/// registry instead of the SELECT pipeline).
bool IsShowStatement(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || i + 4 > sql.size()) return false;
  const char kShow[] = "show";
  for (size_t j = 0; j < 4; ++j) {
    if (std::tolower(static_cast<unsigned char>(sql[i + j])) != kShow[j]) {
      return false;
    }
  }
  size_t k = i + 4;
  return k >= sql.size() ||
         !(std::isalnum(static_cast<unsigned char>(sql[k])) || sql[k] == '_');
}

/// Fingerprints render as fixed-width hex everywhere (SHOW DIGESTS, SHOW
/// FLIGHT RECORDER, the JSON dumps), matching the fingerprint trace attr.
std::string HexFingerprint(uint64_t fp) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

void AppendJsonNum(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendJsonBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

void AppendLatencySummaryJson(std::string* out, const LatencySummary& s) {
  *out += "{\"count\":";
  *out += std::to_string(s.count);
  *out += ",\"sum_ms\":";
  AppendJsonNum(out, s.sum_ms);
  *out += ",\"mean_ms\":";
  AppendJsonNum(out, s.mean_ms());
  *out += ",\"max_ms\":";
  AppendJsonNum(out, s.max_ms);
  *out += "}";
}

}  // namespace

Status Database::ExecuteSql(const std::string& sql) {
  TAURUS_ASSIGN_OR_RETURN(auto stmt, ParseStatement(sql));
  switch (stmt->kind) {
    case Statement::Kind::kCreateTable: {
      TAURUS_ASSIGN_OR_RETURN(TableDef * table,
                              catalog_.CreateTable(stmt->table_name,
                                                   stmt->columns));
      if (!stmt->primary_key.empty()) {
        IndexDef pk;
        pk.name = stmt->table_name + "_pk";
        pk.column_idx = stmt->primary_key;
        pk.unique = true;
        pk.primary = true;
        TAURUS_RETURN_IF_ERROR(catalog_.AddIndex(stmt->table_name, pk));
      }
      storage_.CreateTable(table);
      return Status::OK();
    }
    case Statement::Kind::kCreateIndex: {
      const TableDef* table = catalog_.GetTable(stmt->table_name);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + stmt->table_name);
      }
      IndexDef index = stmt->index;
      for (const ColumnDef& col : stmt->columns) {  // parser parks names here
        int idx = table->ColumnIndex(col.name);
        if (idx < 0) {
          return Status::BindError("index column not found: " + col.name);
        }
        index.column_idx.push_back(idx);
      }
      TAURUS_RETURN_IF_ERROR(catalog_.AddIndex(stmt->table_name, index));
      TableData* data = storage_.Get(table->id);
      if (data != nullptr) data->BuildIndexes();
      return Status::OK();
    }
    case Statement::Kind::kInsert: {
      const TableDef* table = catalog_.GetTable(stmt->table_name);
      TableData* data =
          table != nullptr ? storage_.Get(table->id) : nullptr;
      if (data == nullptr) {
        return Status::NotFound("no such table: " + stmt->table_name);
      }
      for (const auto& row_exprs : stmt->insert_rows) {
        if (row_exprs.size() != table->columns.size()) {
          return Status::InvalidArgument("INSERT arity mismatch");
        }
        Row row;
        for (size_t c = 0; c < row_exprs.size(); ++c) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalConstExpr(*row_exprs[c]));
          // Coerce literals to the declared column type where sensible.
          TypeId want = table->columns[c].type;
          if (!v.is_null() && v.type() != want) {
            if (IsTemporalType(want) && v.kind() == Value::Kind::kString) {
              if (CategoryOf(want) == TypeCategory::kDte) {
                TAURUS_ASSIGN_OR_RETURN(int64_t days, ParseDate(v.AsString()));
                v = Value::Date(days);
              } else {
                TAURUS_ASSIGN_OR_RETURN(int64_t secs,
                                        ParseDatetime(v.AsString()));
                v = Value::Datetime(secs);
              }
            } else if (IsNumericType(want) &&
                       v.kind() == Value::Kind::kInt) {
              v = Value::Double(static_cast<double>(v.AsInt()), want);
            } else if (v.kind() == Value::Kind::kInt) {
              v = Value::Int(v.AsInt(), want);
            } else if (v.kind() == Value::Kind::kString) {
              v = Value::Str(v.AsString(), want);
            }
          }
          row.push_back(std::move(v));
        }
        data->Append(std::move(row));
      }
      data->BuildIndexes();
      return Status::OK();
    }
    case Statement::Kind::kAnalyze:
      return Analyze(stmt->table_name);
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
    case Statement::Kind::kExplainAnalyze:
      return Status::InvalidArgument(
          "use Query()/Explain() for SELECT statements");
    case Statement::Kind::kShowStatus:
    case Statement::Kind::kShowDigests:
    case Statement::Kind::kShowFlightRecorder:
    case Statement::Kind::kShowProfile:
      return Status::InvalidArgument("use Query() for SHOW statements");
  }
  return Status::Internal("unreachable statement kind");
}

Status Database::BulkLoad(const std::string& table, std::vector<Row> rows) {
  const TableDef* def = catalog_.GetTable(table);
  TableData* data = def != nullptr ? storage_.Get(def->id) : nullptr;
  if (data == nullptr) return Status::NotFound("no such table: " + table);
  data->Reserve(data->NumRows() + rows.size());
  for (Row& r : rows) {
    if (r.size() != def->columns.size()) {
      return Status::InvalidArgument("bulk load arity mismatch for " + table);
    }
    data->Append(std::move(r));
  }
  data->BuildIndexes();
  return Status::OK();
}

Status Database::Analyze(const std::string& table) {
  const TableDef* def = catalog_.GetTable(table);
  TableData* data = def != nullptr ? storage_.Get(def->id) : nullptr;
  if (data == nullptr) return Status::NotFound("no such table: " + table);
  catalog_.SetStats(def->id, ComputeTableStats(*data));
  return Status::OK();
}

Status Database::AnalyzeAll() {
  for (const std::string& name : catalog_.TableNames()) {
    TAURUS_RETURN_IF_ERROR(Analyze(name));
  }
  return Status::OK();
}

Result<std::unique_ptr<CompiledQuery>> Database::Compile(
    const std::string& sql, OptimizerPath path) {
  std::shared_ptr<Tracer> tracer = BeginTrace(QueryOptions{});
  ScopedSpan compile_span(tracer.get(), "compile");
  return CompileInternal(sql, path, plan_cache_config_.enable, tracer.get(),
                         /*failure_facts=*/nullptr);
}

void Database::BindCounters() {
  counters_.detours_attempted =
      metrics_.GetCounter("taurus.health.detours_attempted");
  counters_.detours_failed =
      metrics_.GetCounter("taurus.health.detours_failed");
  counters_.fallbacks = metrics_.GetCounter("taurus.health.fallbacks");
  counters_.budget_kills = metrics_.GetCounter("taurus.health.budget_kills");
  counters_.exec_budget_kills =
      metrics_.GetCounter("taurus.health.exec_budget_kills");
  counters_.quarantine_hits =
      metrics_.GetCounter("taurus.health.quarantine_hits");
  counters_.cache_hits = metrics_.GetCounter("taurus.plan_cache.hits");
  counters_.cache_misses = metrics_.GetCounter("taurus.plan_cache.misses");
  counters_.verifier_rules = metrics_.GetCounter("taurus.verify.rules_checked");
  counters_.verifier_violations =
      metrics_.GetCounter("taurus.verify.violations");
  counters_.queries = metrics_.GetCounter("taurus.query.count");
  counters_.query_errors = metrics_.GetCounter("taurus.query.errors");
  counters_.access_downgrades =
      metrics_.GetCounter("taurus.refine.access_downgrades");
  counters_.parallel_queries =
      metrics_.GetCounter("taurus.exec.parallel_queries");
  counters_.parallel_pipelines =
      metrics_.GetCounter("taurus.exec.parallel_pipelines");
  counters_.batch_pipelines =
      metrics_.GetCounter("taurus.exec.batch.pipelines");
  counters_.batches = metrics_.GetCounter("taurus.exec.batch.batches");
  counters_.batch_rows = metrics_.GetCounter("taurus.exec.batch.rows");
  counters_.exec_rows_scanned = metrics_.GetCounter("taurus.exec.rows_scanned");
  counters_.exec_index_lookups =
      metrics_.GetCounter("taurus.exec.index_lookups");
  counters_.feedback_harvests = metrics_.GetCounter("taurus.feedback.harvests");
  counters_.feedback_drift_bumps =
      metrics_.GetCounter("taurus.feedback.drift_bumps");
  counters_.feedback_actual_overrides =
      metrics_.GetCounter("taurus.feedback.actual_overrides");
  counters_.feedback_sketch_overrides =
      metrics_.GetCounter("taurus.feedback.sketch_overrides");
  counters_.profile_pipelines =
      metrics_.GetCounter("taurus.exec.profile.pipelines");
  counters_.profile_morsels = metrics_.GetCounter("taurus.exec.profile.morsels");
  counters_.profile_last_busy_ms =
      metrics_.GetGauge("taurus.exec.profile.last_busy_ms");
  counters_.profile_last_idle_ms =
      metrics_.GetGauge("taurus.exec.profile.last_idle_ms");
  counters_.profile_last_workers =
      metrics_.GetGauge("taurus.exec.profile.last_workers");
  counters_.optimize_ms = metrics_.GetHistogram("taurus.query.optimize_ms");
  counters_.execute_ms = metrics_.GetHistogram("taurus.query.execute_ms");
}

void Database::SyncGaugeMetrics() {
  const PlanCacheStats s = plan_cache_.stats();
  metrics_.GetGauge("taurus.plan_cache.insertions")
      ->Set(static_cast<double>(s.insertions));
  metrics_.GetGauge("taurus.plan_cache.evictions")
      ->Set(static_cast<double>(s.evictions));
  metrics_.GetGauge("taurus.plan_cache.invalidations")
      ->Set(static_cast<double>(s.invalidations));
  metrics_.GetGauge("taurus.plan_cache.drift_invalidations")
      ->Set(static_cast<double>(s.drift_invalidations));
  metrics_.GetGauge("taurus.plan_cache.entries")
      ->Set(static_cast<double>(plan_cache_.size()));
  metrics_.GetGauge("taurus.plan_cache.capacity")
      ->Set(static_cast<double>(plan_cache_.capacity()));
  metrics_.GetGauge("taurus.plan_cache.shards")
      ->Set(static_cast<double>(plan_cache_.shard_count()));
  metrics_.GetGauge("taurus.quarantine.entries")
      ->Set(static_cast<double>(quarantine_.Size()));
  metrics_.GetGauge("taurus.feedback.entries")
      ->Set(static_cast<double>(feedback_store_.Size()));
  metrics_.GetGauge("taurus.feedback.lru_evictions")
      ->Set(static_cast<double>(feedback_store_.lru_evictions()));
  metrics_.GetGauge("taurus.feedback.version_resets")
      ->Set(static_cast<double>(feedback_store_.version_resets()));
  // Workload introspection (DESIGN.md section 15).
  metrics_.GetGauge("taurus.obs.digest.records")
      ->Set(static_cast<double>(digest_store_.records()));
  metrics_.GetGauge("taurus.obs.digest.entries")
      ->Set(static_cast<double>(digest_store_.Size()));
  metrics_.GetGauge("taurus.obs.digest.lru_evictions")
      ->Set(static_cast<double>(digest_store_.lru_evictions()));
  metrics_.GetGauge("taurus.obs.digest.epoch_bumps")
      ->Set(static_cast<double>(digest_store_.epoch_bumps()));
  metrics_.GetGauge("taurus.obs.digest.capacity")
      ->Set(static_cast<double>(digest_config_.capacity));
  metrics_.GetGauge("taurus.obs.recorder.records")
      ->Set(static_cast<double>(flight_recorder_.records()));
  metrics_.GetGauge("taurus.obs.recorder.entries")
      ->Set(static_cast<double>(flight_recorder_.Size()));
  metrics_.GetGauge("taurus.obs.recorder.pinned")
      ->Set(static_cast<double>(flight_recorder_.pinned()));
  metrics_.GetGauge("taurus.obs.recorder.capacity")
      ->Set(static_cast<double>(flight_config_.capacity));
  metrics_.GetGauge("taurus.exec.profile.enabled")
      ->Set(exec_config_.enable_profiling ? 1.0 : 0.0);
  // Lock-rank analyzer (DESIGN.md section 14). Process-wide, not per-DB:
  // the held-lock stacks are per-thread and every instrumented mutex in
  // the process feeds the same counters.
  metrics_.GetGauge("taurus.verify.lock_rank.enabled")
      ->Set(LockRankRegistry::enabled() ? 1.0 : 0.0);
  metrics_.GetGauge("taurus.verify.lock_rank.checks")
      ->Set(static_cast<double>(LockRankRegistry::checks()));
  metrics_.GetGauge("taurus.verify.lock_rank.violations")
      ->Set(static_cast<double>(LockRankRegistry::violations()));
}

std::string Database::MetricsJson() {
  SyncGaugeMetrics();
  return metrics_.ToJson();
}

Result<QueryResult> Database::ShowStatus(const std::string& pattern) {
  SyncGaugeMetrics();
  QueryResult out;
  out.columns = {"Variable_name", "Value"};
  for (const auto& [name, value] : metrics_.Snapshot()) {
    if (!pattern.empty() && !SqlLikeMatch(name, pattern)) continue;
    Row row;
    row.push_back(Value::Str(name));
    row.push_back(Value::Str(value));
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::shared_ptr<Tracer> Database::BeginTrace(const QueryOptions& options) {
  std::shared_ptr<Tracer> tracer;
  if (trace_config_.enable || options.trace) {
    const Clock* clock = trace_config_.clock != nullptr
                             ? trace_config_.clock
                             : &SteadyClock::Instance();
    tracer = std::make_shared<Tracer>(clock);
    if (options.trace_slot != nullptr) *options.trace_slot = tracer;
  }
  // Publish as the "most recent" trace — or clear it when tracing is off,
  // preserving the single-session contract that last_trace() is null after
  // an untraced query.
  MutexLock lock(&state_mu_);
  last_tracer_ = tracer;
  return tracer;
}

std::string Database::MakeCacheKey(const std::string& canonical,
                                   OptimizerPath path) const {
  // Everything that steers optimization after fingerprinting must be part
  // of the key: the requested path, the router decision inputs, and the
  // Orca knobs / cost constants. A config change then simply misses
  // instead of serving a plan compiled under different settings.
  std::string key = canonical;
  key += "|path=";
  key += std::to_string(static_cast<int>(path));
  key += "|router=";
  key += std::to_string(router_config_.enable_orca);
  key += ",";
  key += std::to_string(router_config_.complex_query_threshold);
  key += "|orca=";
  key += std::to_string(static_cast<int>(orca_config_.strategy));
  for (bool flag :
       {orca_config_.enable_or_factoring, orca_config_.enable_bushy,
        orca_config_.enable_index_nlj, orca_config_.flip_inner_hash_build,
        orca_config_.enable_decorrelation}) {
    key += flag ? '1' : '0';
  }
  const CostParams& c = orca_config_.cost;
  for (double v : {c.seq_row, c.index_descend, c.index_row, c.hash_build,
                   c.hash_probe, c.row_out, c.sort_row, c.materialize_row}) {
    key += ",";
    key += std::to_string(v);
  }
  key += "|fb=";
  key += feedback_config_.enable ? '1' : '0';
  return key;
}

bool Database::IsQuarantined(uint64_t fingerprint_hash) const {
  return quarantine_.IsQuarantined(fingerprint_hash, catalog_.schema_version(),
                                   catalog_.stats_version(),
                                   quarantine_config_.failure_threshold);
}

void Database::RecordDetourFailure(uint64_t fingerprint_hash) {
  bool newly_quarantined = quarantine_.RecordFailure(
      fingerprint_hash, catalog_.schema_version(), catalog_.stats_version(),
      quarantine_config_.failure_threshold);
  // Entering quarantine reroutes the statement to the MySQL path — a plan
  // change the digest's epoch split must surface, same as a cache
  // invalidation.
  if (newly_quarantined) digest_store_.BumpEpoch(fingerprint_hash, "quarantine");
}

Result<std::unique_ptr<CompiledQuery>> Database::CompileInternal(
    const std::string& sql, OptimizerPath path, bool use_cache,
    Tracer* tracer, CompileStats* failure_facts) {
  CompileJob job{sql, path, use_cache, tracer,
                 std::chrono::steady_clock::now()};
  auto compiled = RunCompileStages(&job);
  if (!compiled.ok() && failure_facts != nullptr) {
    *failure_facts = std::move(job.stats);
  }
  return compiled;
}

Result<std::unique_ptr<CompiledQuery>> Database::RunCompileStages(
    CompileJob* job) {
  TAURUS_RETURN_IF_ERROR(CompileFrontend(job));
  if (job->use_cache) {
    std::shared_ptr<const PlanCacheEntry> entry = LookupCache(job);
    if (entry != nullptr) {
      auto hit = CompileFromCacheEntry(*entry, job);
      if (hit.ok()) return hit;
      // Thaw/refine mismatch (should not happen; defensive): the statement
      // was consumed, so recompile from SQL with the cache bypassed.
      counters_.cache_misses->Increment();
      job->use_cache = false;
      TAURUS_RETURN_IF_ERROR(CompileFrontend(job));
    }
  }
  if (RouteCompile(job)) {
    auto compiled = CompileViaOrca(job);
    // Forced-Orca surfaces a detour failure; the auto route aborts the
    // detour and resorts to the usual MySQL optimization (Section 4.2.1).
    if (compiled.ok() || job->path == OptimizerPath::kOrca) return compiled;
    TAURUS_RETURN_IF_ERROR(FallBackToMySql(job, compiled.status()));
  }
  return CompileViaMySql(job);
}

Status Database::CompileFrontend(CompileJob* job) {
  Tracer* tracer = job->tracer;
  ScopedSpan parse_span(tracer, "parse");
  TAURUS_ASSIGN_OR_RETURN(auto parsed, ParseSelect(job->sql));
  parse_span.End();
  ScopedSpan bind_span(tracer, "bind");
  TAURUS_ASSIGN_OR_RETURN(job->stmt,
                          BindStatement(catalog_, std::move(parsed)));
  bind_span.End();
  ScopedSpan prepare_span(tracer, "prepare");
  TAURUS_RETURN_IF_ERROR(PrepareStatement(&job->stmt, prepare_options_));
  prepare_span.End();

  // The normalized statement fingerprint keys the plan cache, the
  // quarantine map, the feedback store and the digest store.
  if (job->use_cache || quarantine_config_.enable || feedback_config_.enable ||
      digest_config_.enable) {
    ScopedSpan fp_span(tracer, "fingerprint");
    StatementFingerprint fp = FingerprintStatement(job->stmt);
    job->stats.fingerprint = fp.hash;
    job->stats.canonical = std::move(fp.canonical);
    job->quarantined = job->path == OptimizerPath::kAuto &&
                       quarantine_config_.enable && IsQuarantined(fp.hash);
    fp_span.Attr("fingerprint", std::to_string(fp.hash));
    if (job->quarantined) fp_span.Attr("quarantined", "true");
  }

  // Execution feedback for this fingerprint: the snapshot feeds the Orca
  // detour's cardinality estimation; the drift version guards the plan
  // cache (an entry stamped with an older version is evicted on lookup).
  if (feedback_config_.enable && job->stats.fingerprint != 0) {
    job->feedback = feedback_store_.Snapshot(job->stats.fingerprint,
                                             catalog_.schema_version(),
                                             catalog_.stats_version());
    job->feedback_version = feedback_store_.DriftVersion(job->stats.fingerprint);
  }
  return Status::OK();
}

std::shared_ptr<const PlanCacheEntry> Database::LookupCache(CompileJob* job) {
  // Looked up strictly before the router, so a hit skips routing and both
  // optimizers. A quarantined statement refuses a cached Orca plan; the
  // fresh compile re-caches it under the same key as a MySQL-path plan.
  if (plan_cache_.capacity() != plan_cache_config_.capacity) {
    plan_cache_.set_capacity(plan_cache_config_.capacity);
  }
  job->cache_key = MakeCacheKey(job->stats.canonical, job->path);
  ScopedSpan lookup_span(job->tracer, "cache.lookup");
  std::shared_ptr<const PlanCacheEntry> entry =
      plan_cache_.Lookup(job->cache_key, catalog_.schema_version(),
                         catalog_.stats_version(), job->feedback_version);
  if (entry != nullptr && job->quarantined && entry->used_orca) entry.reset();
  lookup_span.Attr("hit", entry != nullptr ? "true" : "false");
  if (entry == nullptr) counters_.cache_misses->Increment();
  return entry;
}

Result<std::unique_ptr<CompiledQuery>> Database::CompileFromCacheEntry(
    const PlanCacheEntry& entry, CompileJob* job) {
  // Replay the route's deterministic pre-optimization AST rewrites: the
  // cached skeleton was built against the rewritten statement, and the
  // rewritten predicates must reach refinement/execution exactly as on the
  // cold compile.
  BoundStatement& stmt = job->stmt;
  if (entry.via_orca_route) {
    if (orca_config_.enable_decorrelation) {
      TAURUS_RETURN_IF_ERROR(DecorrelateScalarSubqueries(&stmt).status());
    }
    if (orca_config_.enable_or_factoring) {
      ForEachBlock(stmt.block.get(), [](QueryBlock* b) {
        if (!b->from.empty()) ApplyOrcaOrFactoring(b);
      });
    }
  } else {
    ForEachBlock(stmt.block.get(), [&stmt](QueryBlock* b) {
      ApplyIndexGatedOrFactoring(b, stmt.leaves);
    });
  }
  ScopedSpan thaw_span(job->tracer, "cache.thaw");
  TAURUS_ASSIGN_OR_RETURN(auto skeleton, ThawSkeleton(entry.skeleton, stmt));
  thaw_span.End();
  // Thaw verification: a cached skeleton that no longer satisfies the
  // invariants (stale freeze format, catalog drift the version check
  // missed) fails the compile here, and CompileInternal recompiles from
  // SQL with the cache bypassed.
  VerifyReport report;
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(job->tracer, "verify.thaw");
    VerifySkeletonPlan(*skeleton, catalog_,
                       /*check_cte_pairing=*/entry.used_orca, &report);
    if (verify_config_.enforce && !report.ok()) {
      return report.ToStatus("verify.thaw");
    }
  }
  TAURUS_ASSIGN_OR_RETURN(
      auto compiled, FinishCompile(job, *skeleton, entry.used_orca,
                                   /*cache_plan=*/false, &report));
  counters_.cache_hits->Increment();
  compiled->plan_cache_hit = true;
  compiled->optimize_saved_ms =
      std::max(entry.cold_optimize_ms - compiled->optimize_ms, 0.0);
  return compiled;
}

bool Database::RouteCompile(CompileJob* job) {
  bool try_orca = job->path == OptimizerPath::kOrca ||
                  (job->path == OptimizerPath::kAuto &&
                   ShouldRouteToOrca(job->stmt, router_config_));
  if (try_orca && job->quarantined) {
    try_orca = false;
    job->stats.quarantine_hit = true;
    counters_.quarantine_hits->Increment();
  }
  ScopedSpan route_span(job->tracer, "route");
  route_span.Attr("decision", job->stats.quarantine_hit ? "quarantine"
                              : try_orca                ? "orca"
                                                        : "mysql");
  return try_orca;
}

Result<std::unique_ptr<CompiledQuery>> Database::CompileViaOrca(
    CompileJob* job) {
  counters_.detours_attempted->Increment();
  ScopedSpan detour_span(job->tracer, "orca.detour");
  ResourceGovernor governor(resource_budget_);
  OrcaPathOptimizer orca(
      catalog_, &job->stmt, &mdp_, orca_config_,
      resource_budget_.governs_optimize() ? &governor : nullptr,
      &verify_config_, job->tracer, job->feedback.get());
  auto skeleton = orca.Optimize();
  Status error = skeleton.status();
  if (skeleton.ok()) {
    // The detour proper ends here; freeze/refine/verify.block are shared
    // post-optimization steps and trace as compile-level siblings.
    detour_span.End();
    {
      MutexLock lock(&state_mu_);
      last_orca_metrics_ = orca.metrics();
    }
    VerifyReport report = orca.verify_report();
    auto compiled = FinishCompile(job, **skeleton, /*used_orca=*/true,
                                  job->use_cache, &report);
    if (compiled.ok()) {
      (*compiled)->feedback_actual_overrides =
          orca.metrics().feedback_actual_overrides;
      (*compiled)->feedback_sketch_overrides =
          orca.metrics().feedback_sketch_overrides;
      return compiled;
    }
    error = compiled.status();
  }
  counters_.detours_failed->Increment();
  if (error.code() == StatusCode::kResourceExhausted) {
    counters_.budget_kills->Increment();
  }
  detour_span.End();
  detour_span.Attr("aborted", "true");
  detour_span.Attr("status", error.ToString());
  return error;
}

Status Database::FallBackToMySql(CompileJob* job, const Status& detour_error) {
  counters_.fallbacks->Increment();
  job->stats.fell_back = true;
  job->stats.fallback_reason = detour_error.ToString();
  if (quarantine_config_.enable) RecordDetourFailure(job->stats.fingerprint);
  // Clean fallback: the detour may have rewritten the AST (decorrelation,
  // OR factoring) or consumed it (refinement), so re-parse and re-bind
  // from the pristine SQL. The MySQL path then sees exactly what it would
  // have seen without the detour — which also makes the compile cacheable.
  ScopedSpan reparse_span(job->tracer, "fallback.reparse");
  reparse_span.Attr("reason", job->stats.fallback_reason);
  TAURUS_ASSIGN_OR_RETURN(auto reparsed, ParseSelect(job->sql));
  TAURUS_ASSIGN_OR_RETURN(job->stmt,
                          BindStatement(catalog_, std::move(reparsed)));
  return PrepareStatement(&job->stmt, prepare_options_);
}

Result<std::unique_ptr<CompiledQuery>> Database::CompileViaMySql(
    CompileJob* job) {
  // MySQL path: direct route, quarantine skip, or clean fallback.
  ScopedSpan mysql_span(job->tracer, "mysql.optimize");
  TAURUS_ASSIGN_OR_RETURN(auto skeleton, MySqlOptimize(catalog_, &job->stmt));
  mysql_span.End();
  // Counts-only on the MySQL path: it is the fallback of last resort, so
  // violations are surfaced in QueryResult/EXPLAIN but never fatal. S005
  // (CTE pairing) is skipped — the native optimizer legitimately plans
  // each CTE copy independently.
  VerifyReport report;
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(job->tracer, "verify.skeleton");
    VerifySkeletonPlan(*skeleton, catalog_, /*check_cte_pairing=*/false,
                       &report);
  }
  return FinishCompile(job, *skeleton, /*used_orca=*/false, job->use_cache,
                       &report);
}

Result<std::unique_ptr<CompiledQuery>> Database::FinishCompile(
    CompileJob* job, const BlockSkeleton& skeleton, bool used_orca,
    bool cache_plan, VerifyReport* report) {
  // Freeze before refinement consumes the statement. A skeleton that does
  // not freeze is simply not cached.
  std::optional<FrozenBlockSkeleton> frozen;
  if (cache_plan) {
    ScopedSpan freeze_span(job->tracer, "cache.freeze");
    auto frozen_or = FreezeSkeleton(skeleton);
    if (frozen_or.ok()) frozen = std::move(*frozen_or);
  }
  ScopedSpan refine_span(job->tracer, "refine");
  TAURUS_ASSIGN_OR_RETURN(
      auto compiled, RefinePlan(std::move(job->stmt), skeleton, catalog_));
  refine_span.End();
  counters_.access_downgrades->Increment(compiled->access_downgrades);
  // Post-refinement boundary: the executable block plan (B001-B003).
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(job->tracer, "verify.block");
    VerifyBlockPlan(*compiled, report);
    if (verify_config_.enforce && used_orca && !report->ok()) {
      return report->ToStatus("verify.block");
    }
  }
  CompileStats& stats = *compiled;
  const int access_downgrades = stats.access_downgrades;
  stats = std::move(job->stats);
  stats.access_downgrades = access_downgrades;
  stats.used_orca = used_orca;
  stats.verifier_rules = report->rules_checked;
  stats.verifier_violations = report->violations();
  stats.optimize_ms = MsSince(job->start);
  if (frozen.has_value()) {
    PlanCacheEntry entry;
    entry.fingerprint = stats.fingerprint;
    entry.skeleton = std::move(*frozen);
    entry.used_orca = used_orca;
    entry.via_orca_route = used_orca;
    entry.est_cost = skeleton.cost;
    entry.est_rows = skeleton.out_rows;
    entry.cold_optimize_ms = stats.optimize_ms;
    entry.schema_version = catalog_.schema_version();
    entry.stats_version = catalog_.stats_version();
    entry.feedback_version = job->feedback_version;
    plan_cache_.Insert(job->cache_key, std::move(entry));
  }
  return compiled;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    OptimizerPath path) {
  return Query(sql, path, QueryOptions{});
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    OptimizerPath path,
                                    const QueryOptions& options) {
  // SHOW statements read engine-side state (metrics registry, digest
  // store, flight recorder) and never enter the SELECT pipeline — no
  // trace, no optimizer, and no digest/recorder event of their own, so
  // SHOW DIGESTS totals reconcile exactly with taurus.query.count.
  if (IsShowStatement(sql)) {
    TAURUS_ASSIGN_OR_RETURN(auto stmt, ParseStatement(sql));
    switch (stmt->kind) {
      case Statement::Kind::kShowStatus:
        return ShowStatus(stmt->table_name);
      case Statement::Kind::kShowDigests:
        return ShowDigests(stmt->table_name);
      case Statement::Kind::kShowFlightRecorder:
        return ShowFlightRecorder();
      case Statement::Kind::kShowProfile:
        return ShowProfile(static_cast<uint64_t>(stmt->profile_seq));
      default:
        return Status::InvalidArgument("unsupported SHOW statement");
    }
  }
  return QueryInternal(sql, path, options, nullptr, nullptr);
}

Result<QueryResult> Database::QueryInternal(
    const std::string& sql, OptimizerPath path, const QueryOptions& options,
    OpActualsMap* actuals, std::unique_ptr<CompiledQuery>* compiled_out) {
  QueryResult out;
  std::shared_ptr<Tracer> tracer = BeginTrace(options);
  Status status =
      RunQuery(sql, path, options, actuals, tracer.get(), &out, compiled_out);
  // Fold the session layer's admission outcome into the record so every
  // consumer (client, digest store, flight recorder) sees one story.
  out.shed = options.shed;
  out.admission_queued = options.admission_queued;
  out.admission_wait_ms = options.admission_wait_ms;
  out.profile.admission_wait_ms = options.admission_wait_ms;
  if (options.shed) {
    out.fell_back = true;
    out.fallback_reason =
        Status::ResourceExhausted("admission overload: shed to MySQL path (" +
                                  options.shed_cause + ")")
            .SetOrigin("server.admission", "shed")
            .ToString();
  }
  RecordQuery(&out, status, tracer, options.session_id);
  if (!status.ok()) return status;
  return out;
}

Status Database::RunQuery(const std::string& sql, OptimizerPath path,
                          const QueryOptions& options, OpActualsMap* actuals,
                          Tracer* tracer, QueryResult* out,
                          std::unique_ptr<CompiledQuery>* compiled_out) {
  ScopedSpan query_span(tracer, "query");
  ScopedSpan compile_span(tracer, "compile");
  TAURUS_ASSIGN_OR_RETURN(
      std::unique_ptr<CompiledQuery> compiled,
      CompileInternal(sql, path, plan_cache_config_.enable, tracer, out));
  compile_span.End();
  static_cast<CompileStats&>(*out) = *compiled;
  out->columns = compiled->root->column_names;
  auto rows = ExecuteOnce(compiled.get(), options, actuals, tracer,
                          /*retry=*/false, out);
  if (!rows.ok()) {
    if (!compiled->used_orca || path != OptimizerPath::kAuto ||
        rows.status().code() != StatusCode::kResourceExhausted) {
      return rows.status();
    }
    // The executor budget killed an Orca plan mid-execution on the auto
    // route: recompile through the MySQL path and re-execute unbudgeted.
    counters_.exec_budget_kills->Increment();
    counters_.fallbacks->Increment();
    if (quarantine_config_.enable && compiled->fingerprint != 0) {
      RecordDetourFailure(compiled->fingerprint);
    }
    ScopedSpan recompile_span(tracer, "fallback.recompile");
    TAURUS_ASSIGN_OR_RETURN(
        compiled, CompileInternal(sql, OptimizerPath::kMySql,
                                  plan_cache_config_.enable, tracer,
                                  /*failure_facts=*/nullptr));
    recompile_span.End();
    // The record takes the retry compile's facts; optimize time and
    // verifier counts cover both compiles.
    const CompileStats first = *out;
    static_cast<CompileStats&>(*out) = *compiled;
    out->optimize_ms += first.optimize_ms;
    out->verifier_rules += first.verifier_rules;
    out->verifier_violations += first.verifier_violations;
    out->fell_back = true;
    out->fallback_reason = rows.status().ToString();
    rows = ExecuteOnce(compiled.get(), options, actuals, tracer,
                       /*retry=*/true, out);
    TAURUS_RETURN_IF_ERROR(rows.status());
  }
  out->rows = std::move(*rows);
  out->rows_returned = static_cast<int64_t>(out->rows.size());
  if (compiled_out != nullptr) *compiled_out = std::move(compiled);
  return Status::OK();
}

Result<std::vector<Row>> Database::ExecuteOnce(CompiledQuery* compiled,
                                               const QueryOptions& options,
                                               OpActualsMap* actuals,
                                               Tracer* tracer, bool retry,
                                               QueryStats* stats) {
  auto start = std::chrono::steady_clock::now();
  const Clock* analyze_clock =
      trace_config_.clock != nullptr ? trace_config_.clock
                                     : &SteadyClock::Instance();
  ExecContext ctx;
  ArmExecContext(&ctx, compiled->used_orca, options.worker_cap);
  if (exec_config_.enable_profiling) {
    // Per-worker morsel timing lands in stats->profile; the parallel
    // executor's workers stamp private slots and merge on the main thread.
    stats->profile.enabled = true;
    ctx.exec_profile = &stats->profile;
    ctx.profile_clock = analyze_clock;
  }
  // Cardinality-feedback harvest (DESIGN.md section 11): record per-node
  // actuals — reusing the caller's map when EXPLAIN ANALYZE already asked
  // for them — and stream hash-join keys into Fast-AGMS sketches. Every
  // run starts clean: a killed run's partial actuals and streams are stale.
  const bool harvest = feedback_config_.enable && compiled->fingerprint != 0;
  OpActualsMap harvest_actuals;
  if (actuals != nullptr) actuals->clear();
  ctx.op_actuals = actuals != nullptr ? actuals
                   : harvest          ? &harvest_actuals
                                      : nullptr;
  if (ctx.op_actuals != nullptr) ctx.analyze_clock = analyze_clock;
  std::unique_ptr<SketchSet> sketch_set;
  if (harvest && feedback_config_.sketches) {
    sketch_set = std::make_unique<SketchSet>(feedback_config_.sketch_depth,
                                             feedback_config_.sketch_width);
    ctx.sketches = sketch_set.get();
  }
  if (verify_config_.verify_plans) {
    // B004 — budget hooks present on the armed execution context.
    VerifyReport arm_report;
    VerifyExecBudgetArming(compiled->used_orca,
                           resource_budget_.governs_exec(), ctx, &arm_report);
    stats->verifier_rules += arm_report.rules_checked;
    stats->verifier_violations += arm_report.violations();
  }
  ScopedSpan exec_span(tracer, "execute");
  if (retry) exec_span.Attr("retry", "true");
  auto rows = ExecuteQuery(compiled, storage_, &ctx);
  exec_span.End();
  stats->execute_ms += MsSince(start);
  if (!rows.ok()) {
    exec_span.Attr("aborted", "true");
    exec_span.Attr("status", rows.status().ToString());
    return rows;
  }
  stats->rows_scanned = ctx.rows_scanned;
  stats->index_lookups = ctx.index_lookups;
  stats->rebinds = ctx.rebinds;
  stats->parallel_workers_used = ctx.max_workers_used;
  stats->parallel_pipelines = ctx.parallel_pipelines;
  stats->batch_pipelines = ctx.batch_pipelines;
  stats->batches = ctx.batches;
  stats->batch_rows = ctx.batch_rows;
  exec_span.Attr("workers", std::to_string(stats->parallel_workers_used));
  exec_span.Attr("pipelines", std::to_string(stats->parallel_pipelines));
  exec_span.Attr("batch_pipelines", std::to_string(stats->batch_pipelines));
  if (harvest && !IsQuarantined(compiled->fingerprint)) {
    FeedbackSample sample;
    if (ctx.op_actuals != nullptr) {
      HarvestFeedbackSample(*compiled->root, *ctx.op_actuals, &sample);
    }
    if (sketch_set != nullptr) sample.sketches = sketch_set->TakeValid();
    HarvestResult hr = feedback_store_.Harvest(
        compiled->fingerprint, std::move(sample),
        feedback_config_.qerror_invalidation_threshold,
        catalog_.schema_version(), catalog_.stats_version());
    stats->feedback_harvested = hr.stored;
    stats->feedback_version_bumped = hr.version_bumped;
    stats->feedback_max_q_error = hr.max_q_error;
  }
  return rows;
}

void Database::RecordQuery(QueryStats* stats, const Status& status,
                           const std::shared_ptr<Tracer>& tracer,
                           uint64_t session_id) {
  stats->total_ms = stats->optimize_ms + stats->execute_ms;
  if (tracer != nullptr) {
    const TraceSpan* root = tracer->Find("query");
    if (root != nullptr && root->ended) stats->total_ms = root->duration_ms();
  }
  // Per-query counters fold successful queries, so they reconcile exactly
  // with the records returned to clients.
  counters_.queries->Increment();
  if (!status.ok()) {
    counters_.query_errors->Increment();
  } else {
    counters_.optimize_ms->Record(stats->optimize_ms);
    counters_.execute_ms->Record(stats->execute_ms);
    counters_.exec_rows_scanned->Increment(stats->rows_scanned);
    counters_.exec_index_lookups->Increment(stats->index_lookups);
    counters_.verifier_rules->Increment(stats->verifier_rules);
    counters_.verifier_violations->Increment(stats->verifier_violations);
    if (stats->parallel_pipelines > 0) counters_.parallel_queries->Increment();
    counters_.parallel_pipelines->Increment(stats->parallel_pipelines);
    if (stats->batch_pipelines > 0) {
      counters_.batch_pipelines->Increment(stats->batch_pipelines);
      counters_.batches->Increment(stats->batches);
      counters_.batch_rows->Increment(stats->batch_rows);
    }
    counters_.feedback_actual_overrides->Increment(
        stats->feedback_actual_overrides);
    counters_.feedback_sketch_overrides->Increment(
        stats->feedback_sketch_overrides);
    if (stats->feedback_harvested) counters_.feedback_harvests->Increment();
    if (stats->feedback_version_bumped) {
      counters_.feedback_drift_bumps->Increment();
    }
  }
  const ExecProfile& profile = stats->profile;
  if (profile.enabled && profile.pipelines > 0) {
    counters_.profile_pipelines->Increment(profile.pipelines);
    counters_.profile_morsels->Increment(profile.morsels());
    counters_.profile_last_busy_ms->Set(profile.busy_ms());
    counters_.profile_last_idle_ms->Set(profile.idle_ms());
    counters_.profile_last_workers->Set(
        static_cast<double>(profile.workers.size()));
  }
  digest_store_.Record(*stats, !status.ok());

  if (!flight_config_.enable) return;
  FlightRecord rec;
  static_cast<QueryStats&>(rec) = *stats;
  rec.session_id = session_id;
  rec.status = status.ok() ? "ok" : status.ToString();
  rec.admission = stats->shed              ? "shed"
                  : stats->admission_queued ? "queued"
                                            : "direct";
  // Post-mortem pinning: aborted / shed / fallen-back / quarantined queries
  // keep their full span tree alive in the ring slot, surviving after
  // last_trace() (and per-session slots) get overwritten.
  if (!status.ok() || stats->shed || stats->fell_back ||
      stats->quarantine_hit) {
    rec.pinned_trace = tracer;
  }
  stats->flight_seq = flight_recorder_.Record(std::move(rec));
}

Result<QueryResult> Database::ShowDigests(const std::string& pattern) {
  QueryResult out;
  out.columns = {"Digest",         "Statement",      "Calls",
                 "Errors",         "OrcaCalls",      "MySqlCalls",
                 "CacheHits",      "Shed",           "Fallbacks",
                 "QuarantineHits", "VerifierViolations", "Rows",
                 "P50Ms",          "P95Ms",          "MaxMs",
                 "PlanEpoch",      "EpochCause",     "EpochCalls",
                 "EpochAvgMs",     "PrevEpochCalls", "PrevEpochAvgMs"};
  for (const DigestSnapshot& d : digest_store_.Snapshot()) {
    if (!pattern.empty() && !SqlLikeMatch(d.statement, pattern)) continue;
    Row row;
    row.push_back(Value::Str(HexFingerprint(d.fingerprint)));
    row.push_back(Value::Str(d.statement));
    row.push_back(Value::Int(d.calls));
    row.push_back(Value::Int(d.errors));
    row.push_back(Value::Int(d.orca_calls));
    row.push_back(Value::Int(d.mysql_calls));
    row.push_back(Value::Int(d.plan_cache_hits));
    row.push_back(Value::Int(d.shed));
    row.push_back(Value::Int(d.fallbacks));
    row.push_back(Value::Int(d.quarantine_hits));
    row.push_back(Value::Int(d.verifier_violations));
    row.push_back(Value::Int(d.rows_returned));
    row.push_back(Value::Double(d.latency_p50));
    row.push_back(Value::Double(d.latency_p95));
    row.push_back(Value::Double(d.latency_max_ms));
    row.push_back(Value::Int(d.plan_epoch));
    row.push_back(Value::Str(d.epoch_cause));
    row.push_back(Value::Int(d.epoch_latency.count));
    row.push_back(Value::Double(d.epoch_latency.mean_ms()));
    row.push_back(Value::Int(d.prev_epoch_latency.count));
    row.push_back(Value::Double(d.prev_epoch_latency.mean_ms()));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<QueryResult> Database::ShowFlightRecorder() {
  QueryResult out;
  out.columns = {"Seq",        "Session",  "Digest",     "Status",
                 "Admission",  "WaitMs",   "Path",       "CacheHit",
                 "Rows",       "OptimizeMs", "ExecuteMs", "TotalMs",
                 "Workers",    "Batches",  "PinnedTrace"};
  std::vector<FlightRecord> events = flight_recorder_.Snapshot();
  // Newest first: the post-mortem reader wants the recent past on top.
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    const FlightRecord& e = *it;
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(e.seq)));
    row.push_back(Value::Int(static_cast<int64_t>(e.session_id)));
    row.push_back(Value::Str(HexFingerprint(e.fingerprint)));
    row.push_back(Value::Str(e.status));
    row.push_back(Value::Str(e.admission));
    row.push_back(Value::Double(e.admission_wait_ms));
    row.push_back(Value::Str(e.used_orca ? "orca" : "mysql"));
    row.push_back(Value::Bool(e.plan_cache_hit));
    row.push_back(Value::Int(e.rows_returned));
    row.push_back(Value::Double(e.optimize_ms));
    row.push_back(Value::Double(e.execute_ms));
    row.push_back(Value::Double(e.total_ms));
    row.push_back(Value::Int(e.parallel_workers_used));
    row.push_back(Value::Int(e.batches));
    row.push_back(Value::Str(e.pinned_trace != nullptr
                                 ? e.pinned_trace->TreeString()
                                 : ""));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<QueryResult> Database::ShowProfile(uint64_t seq) {
  FlightRecord rec;
  if (!flight_recorder_.Find(seq, &rec)) {
    return Status::NotFound("no flight-recorder event with seq " +
                            std::to_string(seq) +
                            " (overwritten or never recorded)");
  }
  QueryResult out;
  out.columns = {"Seq",     "Worker",    "BusyMs",     "IdleMs",
                 "Morsels", "BatchRows", "VolcanoRows", "AdmissionWaitMs"};
  for (size_t w = 0; w < rec.profile.workers.size(); ++w) {
    const WorkerProfile& wp = rec.profile.workers[w];
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(seq)));
    row.push_back(Value::Str(std::to_string(w)));
    row.push_back(Value::Double(wp.busy_ms));
    row.push_back(Value::Double(wp.idle_ms));
    row.push_back(Value::Int(wp.morsels));
    row.push_back(Value::Int(wp.batch_rows));
    row.push_back(Value::Int(wp.volcano_rows));
    row.push_back(Value::Double(0.0));
    out.rows.push_back(std::move(row));
  }
  // Totals row (always present, even for serial/unprofiled queries, so the
  // admission wait is visible and "no per-worker rows" is distinguishable
  // from "event not found").
  Row total;
  total.push_back(Value::Int(static_cast<int64_t>(seq)));
  total.push_back(Value::Str("total"));
  total.push_back(Value::Double(rec.profile.busy_ms()));
  total.push_back(Value::Double(rec.profile.idle_ms()));
  total.push_back(Value::Int(rec.profile.morsels()));
  int64_t batch_rows = 0;
  int64_t volcano_rows = 0;
  for (const WorkerProfile& wp : rec.profile.workers) {
    batch_rows += wp.batch_rows;
    volcano_rows += wp.volcano_rows;
  }
  total.push_back(Value::Int(batch_rows));
  total.push_back(Value::Int(volcano_rows));
  total.push_back(Value::Double(rec.profile.admission_wait_ms));
  out.rows.push_back(std::move(total));
  return out;
}

std::string Database::DigestsJson() {
  std::string out = "{\"capacity\":";
  out += std::to_string(digest_config_.capacity);
  out += ",\"records\":";
  out += std::to_string(digest_store_.records());
  out += ",\"lru_evictions\":";
  out += std::to_string(digest_store_.lru_evictions());
  out += ",\"epoch_bumps\":";
  out += std::to_string(digest_store_.epoch_bumps());
  out += ",\"digests\":[";
  bool first = true;
  for (const DigestSnapshot& d : digest_store_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"fingerprint\":\"";
    out += HexFingerprint(d.fingerprint);
    out += "\",\"statement\":\"";
    out += JsonEscape(d.statement);
    out += "\",\"calls\":";
    out += std::to_string(d.calls);
    out += ",\"errors\":";
    out += std::to_string(d.errors);
    out += ",\"orca_calls\":";
    out += std::to_string(d.orca_calls);
    out += ",\"mysql_calls\":";
    out += std::to_string(d.mysql_calls);
    out += ",\"plan_cache_hits\":";
    out += std::to_string(d.plan_cache_hits);
    out += ",\"shed\":";
    out += std::to_string(d.shed);
    out += ",\"fallbacks\":";
    out += std::to_string(d.fallbacks);
    out += ",\"quarantine_hits\":";
    out += std::to_string(d.quarantine_hits);
    out += ",\"verifier_violations\":";
    out += std::to_string(d.verifier_violations);
    out += ",\"rows_returned\":";
    out += std::to_string(d.rows_returned);
    out += ",\"latency\":{\"count\":";
    out += std::to_string(d.latency_count);
    out += ",\"sum_ms\":";
    AppendJsonNum(&out, d.latency_sum_ms);
    out += ",\"p50\":";
    AppendJsonNum(&out, d.latency_p50);
    out += ",\"p95\":";
    AppendJsonNum(&out, d.latency_p95);
    out += ",\"p99\":";
    AppendJsonNum(&out, d.latency_p99);
    out += ",\"max_ms\":";
    AppendJsonNum(&out, d.latency_max_ms);
    out += "},\"orca_latency\":";
    AppendLatencySummaryJson(&out, d.orca_latency);
    out += ",\"mysql_latency\":";
    AppendLatencySummaryJson(&out, d.mysql_latency);
    out += ",\"plan_epoch\":";
    out += std::to_string(d.plan_epoch);
    out += ",\"epoch_cause\":\"";
    out += JsonEscape(d.epoch_cause);
    out += "\",\"epoch_latency\":";
    AppendLatencySummaryJson(&out, d.epoch_latency);
    out += ",\"prev_epoch_latency\":";
    AppendLatencySummaryJson(&out, d.prev_epoch_latency);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string Database::FlightRecorderJson() {
  std::string out = "{\"capacity\":";
  out += std::to_string(flight_config_.capacity);
  out += ",\"records\":";
  out += std::to_string(flight_recorder_.records());
  out += ",\"pinned\":";
  out += std::to_string(flight_recorder_.pinned());
  out += ",\"events\":[";
  bool first = true;
  for (const FlightRecord& e : flight_recorder_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"session\":";
    out += std::to_string(e.session_id);
    out += ",\"fingerprint\":\"";
    out += HexFingerprint(e.fingerprint);
    out += "\",\"status\":\"";
    out += JsonEscape(e.status);
    out += "\",\"error\":";
    AppendJsonBool(&out, e.error());
    out += ",\"admission\":\"";
    out += JsonEscape(e.admission);
    out += "\",\"wait_ms\":";
    AppendJsonNum(&out, e.admission_wait_ms);
    out += ",\"used_orca\":";
    AppendJsonBool(&out, e.used_orca);
    out += ",\"fell_back\":";
    AppendJsonBool(&out, e.fell_back);
    out += ",\"shed\":";
    AppendJsonBool(&out, e.shed);
    out += ",\"quarantine_hit\":";
    AppendJsonBool(&out, e.quarantine_hit);
    out += ",\"plan_cache_hit\":";
    AppendJsonBool(&out, e.plan_cache_hit);
    out += ",\"optimize_ms\":";
    AppendJsonNum(&out, e.optimize_ms);
    out += ",\"execute_ms\":";
    AppendJsonNum(&out, e.execute_ms);
    out += ",\"total_ms\":";
    AppendJsonNum(&out, e.total_ms);
    out += ",\"rows\":";
    out += std::to_string(e.rows_returned);
    out += ",\"workers\":";
    out += std::to_string(e.parallel_workers_used);
    out += ",\"batches\":";
    out += std::to_string(e.batches);
    out += ",\"profiled\":";
    AppendJsonBool(&out, e.profile.enabled);
    out += ",\"morsels\":";
    out += std::to_string(e.profile.morsels());
    out += ",\"busy_ms\":";
    AppendJsonNum(&out, e.profile.busy_ms());
    out += ",\"pinned_trace\":";
    AppendJsonBool(&out, e.pinned_trace != nullptr);
    out += "}";
  }
  out += "]}";
  return out;
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql,
                                             OptimizerPath path) {
  OpActualsMap actuals;
  std::unique_ptr<CompiledQuery> compiled;
  TAURUS_ASSIGN_OR_RETURN(
      QueryResult res,
      QueryInternal(sql, path, QueryOptions{}, &actuals, &compiled));
  ExplainAnalyzeData data;
  data.actuals = &actuals;
  data.execute_ms = res.execute_ms;
  data.rows_returned = static_cast<int64_t>(res.rows.size());
  return RenderExplainAnalyze(*compiled, data);
}

Result<std::string> Database::ExplainAnalyzeJsonDump(const std::string& sql,
                                                     OptimizerPath path) {
  OpActualsMap actuals;
  std::unique_ptr<CompiledQuery> compiled;
  TAURUS_ASSIGN_OR_RETURN(
      QueryResult res,
      QueryInternal(sql, path, QueryOptions{}, &actuals, &compiled));
  ExplainAnalyzeData data;
  data.actuals = &actuals;
  data.execute_ms = res.execute_ms;
  data.rows_returned = static_cast<int64_t>(res.rows.size());
  return ExplainAnalyzeJson(*compiled, data);
}

std::shared_ptr<ThreadPool> Database::GetPool(int workers) {
  MutexLock lock(&pool_mu_);
  if (pool_ == nullptr || pool_->size() != workers) {
    // Resize by replacement: queries armed against the old pool keep it
    // alive (and functional) through their ExecContext::pool_owner.
    pool_ = std::make_shared<ThreadPool>(workers);
  }
  return pool_;
}

void Database::ArmExecContext(ExecContext* ctx, bool used_orca,
                              int worker_cap) {
  if (used_orca && resource_budget_.governs_exec()) {
    // The executor budget governs the detour only; the MySQL path (and any
    // fallback re-execution) runs unbudgeted.
    ctx->max_rows_scanned = resource_budget_.max_exec_rows;
    if (resource_budget_.exec_deadline_ms > 0) {
      ctx->clock_ms = resource_budget_.clock_ms
                          ? resource_budget_.clock_ms
                          : std::function<double()>(
                                &ResourceGovernor::SteadyNowMs);
      ctx->exec_deadline_ms =
          ctx->clock_ms() + resource_budget_.exec_deadline_ms;
    }
  }
  int pool_size = exec_config_.parallel_workers;
  if (pool_size <= 0) pool_size = ThreadPool::HardwareWorkers();
  int workers = pool_size;
  // The admission controller's worker-token lease caps this query's DOP
  // without resizing the shared pool (other queries keep their own leases).
  if (worker_cap > 0) workers = std::min(workers, worker_cap);
  ctx->parallel_workers = workers;
  ctx->morsel_rows = std::max<int64_t>(1, exec_config_.morsel_rows);
  ctx->parallel_min_driver_rows = exec_config_.parallel_min_driver_rows;
  ctx->use_batch = exec_config_.enable_batch;
  ctx->batch_size = std::max<int64_t>(1, exec_config_.batch_size);
  if (workers > 1) {
    ctx->pool_owner = GetPool(pool_size);
    ctx->pool = ctx->pool_owner.get();
  }
}

Result<std::string> Database::Explain(const std::string& sql,
                                      OptimizerPath path) {
  TAURUS_ASSIGN_OR_RETURN(auto compiled, Compile(sql, path));
  return RenderExplain(*compiled);
}

}  // namespace taurus
