#include "stages.h"

#include <algorithm>
#include <utility>

#include "bridge/decorrelate.h"
#include "bridge/orca_path.h"
#include "bridge/parse_tree_converter.h"
#include "bridge/router.h"
#include "common/clock.h"
#include "common/resource_budget.h"
#include "engine/plan_cache.h"
#include "exec/block_executor.h"
#include "frontend/binder.h"
#include "frontend/fingerprint.h"
#include "frontend/prepare.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "parser/parser.h"

namespace perfbench {

namespace {

using taurus::BoundStatement;
using taurus::QueryBlock;

/// Calls `fn`, adds its wall time to `*sum` and, when `ledger` is set, to
/// the stage's self time.
template <typename Fn>
auto Timed(Ledger* ledger, const char* stage, double* sum, Fn&& fn) {
  const double t0 = NowMs();
  auto result = fn();
  const double ms = NowMs() - t0;
  if (ledger != nullptr) ledger->Time(stage, ms);
  *sum += ms;
  return result;
}

/// Visits every query block of a statement: derived tables, expression
/// subqueries and UNION arms (the walk the engine's cache-hit path uses to
/// replay its route rewrites).
template <typename Fn>
void ForEachBlock(QueryBlock* block, const Fn& fn) {
  fn(block);
  std::vector<taurus::TableRef*> refs;
  std::vector<taurus::Expr*> exprs;
  for (auto& t : block->from) refs.push_back(t.get());
  for (auto& item : block->select_items) exprs.push_back(item.expr.get());
  if (block->where) exprs.push_back(block->where.get());
  for (auto& g : block->group_by) exprs.push_back(g.get());
  if (block->having) exprs.push_back(block->having.get());
  for (auto& o : block->order_by) exprs.push_back(o.expr.get());
  while (!refs.empty()) {
    taurus::TableRef* r = refs.back();
    refs.pop_back();
    if (r->kind == taurus::TableRef::Kind::kJoin) {
      if (r->on) exprs.push_back(r->on.get());
      refs.push_back(r->left.get());
      refs.push_back(r->right.get());
    } else if (r->kind == taurus::TableRef::Kind::kDerived &&
               r->derived != nullptr) {
      ForEachBlock(r->derived.get(), fn);
    }
  }
  while (!exprs.empty()) {
    taurus::Expr* e = exprs.back();
    exprs.pop_back();
    if (e == nullptr) continue;
    if (e->subquery) ForEachBlock(e->subquery.get(), fn);
    for (auto& c : e->children) exprs.push_back(c.get());
  }
  if (block->union_next) ForEachBlock(block->union_next.get(), fn);
}

/// Executes `query` through ExecuteQuery with an ExecContext armed from
/// db->exec_config() (and the exec budget for Orca plans, as the engine
/// does), timing the call into `ledger` as exec.execute.
taurus::Result<std::vector<taurus::Row>> TimedExecute(
    taurus::Database* db, taurus::ThreadPool* pool,
    taurus::CompiledQuery* query, Ledger* ledger, double* exec_ms) {
  const taurus::ExecutorConfig& cfg = db->exec_config();
  const taurus::ResourceBudgetConfig& budget = db->resource_budget();
  taurus::ExecContext ctx;
  if (query->used_orca && budget.governs_exec()) {
    ctx.max_rows_scanned = budget.max_exec_rows;
    if (budget.exec_deadline_ms > 0) {
      ctx.clock_ms = budget.clock_ms
                         ? budget.clock_ms
                         : std::function<double()>(
                               &taurus::ResourceGovernor::SteadyNowMs);
      ctx.exec_deadline_ms = ctx.clock_ms() + budget.exec_deadline_ms;
    }
  }
  ctx.parallel_workers = EngineWorkers(db);
  ctx.morsel_rows = std::max<int64_t>(1, cfg.morsel_rows);
  ctx.parallel_min_driver_rows = cfg.parallel_min_driver_rows;
  ctx.use_batch = cfg.enable_batch;
  ctx.batch_size = std::max<int64_t>(1, cfg.batch_size);
  if (ctx.parallel_workers > 1) ctx.pool = pool;
  taurus::ExecProfile profile;
  if (cfg.enable_profiling) {
    profile.enabled = true;
    ctx.exec_profile = &profile;
    ctx.profile_clock = &taurus::SteadyClock::Instance();
  }
  const double t0 = NowMs();
  auto rows = taurus::ExecuteQuery(query, db->storage(), &ctx);
  *exec_ms = NowMs() - t0;
  ledger->Time("exec.execute", *exec_ms);
  ledger->Count("exec.rows_scanned", static_cast<double>(ctx.rows_scanned));
  ledger->Count("exec.index_lookups", static_cast<double>(ctx.index_lookups));
  ledger->Count("exec.parallel_pipelines", ctx.parallel_pipelines);
  ledger->Count("exec.batch_pipelines", ctx.batch_pipelines);
  ledger->Count("exec.worker_busy_ms", profile.busy_ms());
  ledger->Count("exec.worker_idle_ms", profile.idle_ms());
  for (const taurus::WorkerProfile& w : profile.workers) {
    ledger->Count("exec.batch_driver_rows", static_cast<double>(w.batch_rows));
    ledger->Count("exec.volcano_driver_rows",
                  static_cast<double>(w.volcano_rows));
  }
  if (rows.ok()) {
    ledger->Count("exec.result_rows", static_cast<double>(rows->size()));
  }
  return rows;
}

}  // namespace

double StageReplay::Replay(const std::string& sql, const CompileFacts& facts,
                           Ledger* ledger) {
  const double ms = facts.plan_cache_hit ? CompileHit(sql, ledger)
                                          : CompileMiss(sql, facts, ledger);
  if (ms < 0) ledger->Count("replay.errors");
  return ms;
}

double StageReplay::CompileMiss(const std::string& sql,
                                const CompileFacts& facts, Ledger* ledger) {
  const taurus::Catalog& catalog = db_->catalog();
  double sum = 0.0;
  auto parse_bind_prepare = [&]() -> taurus::Result<BoundStatement> {
    auto parsed = Timed(ledger, "parser.parse", &sum,
                        [&] { return taurus::ParseSelect(sql); });
    if (!parsed.ok()) return parsed.status();
    auto bound = Timed(ledger, "frontend.bind", &sum, [&] {
      return taurus::BindStatement(catalog, std::move(*parsed));
    });
    if (!bound.ok()) return bound.status();
    BoundStatement stmt = std::move(*bound);
    taurus::Status st = Timed(ledger, "frontend.prepare", &sum, [&] {
      return taurus::PrepareStatement(&stmt, db_->prepare_options());
    });
    if (!st.ok()) return st;
    return stmt;
  };
  auto stmt_or = parse_bind_prepare();
  if (!stmt_or.ok()) return -1.0;
  BoundStatement stmt = std::move(*stmt_or);
  const taurus::StatementFingerprint fp =
      Timed(ledger, "frontend.fingerprint", &sum,
            [&] { return taurus::FingerprintStatement(stmt); });
  const bool routed = Timed(ledger, "bridge.route", &sum, [&] {
    return taurus::ShouldRouteToOrca(stmt, db_->router_config());
  });
  // Follow the engine's decision (a quarantine can veto the route); when
  // priming without one, follow the route.
  const bool try_orca = ledger != nullptr ? facts.used_orca || facts.fell_back
                                          : routed;

  std::unique_ptr<taurus::BlockSkeleton> skeleton;
  bool via_orca = false;
  if (try_orca) {
    const taurus::ResourceBudgetConfig& budget = db_->resource_budget();
    taurus::ResourceGovernor governor(budget);
    taurus::OrcaPathOptimizer orca(
        catalog, &stmt, &db_->mdp(), db_->orca_config(),
        budget.governs_optimize() ? &governor : nullptr, &db_->verify_config());
    // The provider's counters are cumulative: take this detour's share.
    const int64_t serialized0 = db_->mdp().dxl_requests();
    const int64_t hits0 = db_->mdp().cache_hits();
    auto detour = Timed(ledger, "bridge.orca_detour", &sum,
                        [&] { return orca.Optimize(); });
    if (ledger != nullptr) {
      const taurus::OrcaPathMetrics& m = orca.metrics();
      const double serialized =
          static_cast<double>(db_->mdp().dxl_requests() - serialized0);
      const double hits = static_cast<double>(db_->mdp().cache_hits() - hits0);
      ledger->Count("bridge.detours");
      ledger->Count("orca.partitions_evaluated",
                    static_cast<double>(m.partitions_evaluated));
      ledger->Count("orca.memo_groups", m.memo_groups);
      ledger->Count("mdp.dxl_requests", serialized + hits);
      ledger->Count("mdp.dxl_serialized", serialized);
      ledger->Count("mdp.cache_hits", hits);
    }
    if (detour.ok() && !facts.fell_back) {
      skeleton = std::move(*detour);
      via_orca = true;
    } else {
      // Clean fallback, as the engine does: re-parse the pristine SQL.
      stmt_or = parse_bind_prepare();
      if (!stmt_or.ok()) return -1.0;
      stmt = std::move(*stmt_or);
    }
  }
  if (skeleton == nullptr) {
    auto mysql = Timed(ledger, "myopt.optimize", &sum, [&] {
      return taurus::MySqlOptimize(catalog, &stmt);
    });
    if (!mysql.ok()) return -1.0;
    skeleton = std::move(*mysql);
  }
  auto frozen = Timed(ledger, "engine.freeze", &sum,
                      [&] { return taurus::FreezeSkeleton(*skeleton); });
  if (frozen.ok()) frozen_[fp.hash] = Frozen{std::move(*frozen), via_orca};
  auto refined = Timed(ledger, "myopt.refine", &sum, [&] {
    return taurus::RefinePlan(std::move(stmt), *skeleton, catalog);
  });
  return refined.ok() ? sum : -1.0;
}

double StageReplay::CompileHit(const std::string& sql, Ledger* ledger) {
  const taurus::Catalog& catalog = db_->catalog();
  double sum = 0.0;
  auto parsed = Timed(ledger, "parser.parse", &sum,
                      [&] { return taurus::ParseSelect(sql); });
  if (!parsed.ok()) return -1.0;
  auto bound = Timed(ledger, "frontend.bind", &sum, [&] {
    return taurus::BindStatement(catalog, std::move(*parsed));
  });
  if (!bound.ok()) return -1.0;
  BoundStatement stmt = std::move(*bound);
  taurus::Status st = Timed(ledger, "frontend.prepare", &sum, [&] {
    return taurus::PrepareStatement(&stmt, db_->prepare_options());
  });
  if (!st.ok()) return -1.0;
  const taurus::StatementFingerprint fp =
      Timed(ledger, "frontend.fingerprint", &sum,
            [&] { return taurus::FingerprintStatement(stmt); });
  auto it = frozen_.find(fp.hash);
  if (it == frozen_.end()) {
    // First sight of this statement in the replay: compile it once, untimed,
    // to hold a frozen skeleton like the engine's cache entry.
    if (CompileMiss(sql, CompileFacts{}, nullptr) < 0) return -1.0;
    it = frozen_.find(fp.hash);
    if (it == frozen_.end()) return -1.0;
  }
  const Frozen& entry = it->second;
  const taurus::OrcaConfig& orca = db_->orca_config();
  // Replay the route's AST rewrites, then thaw (the engine's cache.thaw).
  auto thawed = Timed(
      ledger, "engine.thaw", &sum,
      [&]() -> taurus::Result<std::unique_ptr<taurus::BlockSkeleton>> {
        if (entry.via_orca) {
          if (orca.enable_decorrelation) {
            auto d = taurus::DecorrelateScalarSubqueries(&stmt);
            if (!d.ok()) return d.status();
          }
          if (orca.enable_or_factoring) {
            ForEachBlock(stmt.block.get(), [](QueryBlock* b) {
              if (!b->from.empty()) taurus::ApplyOrcaOrFactoring(b);
            });
          }
        } else {
          ForEachBlock(stmt.block.get(), [&stmt](QueryBlock* b) {
            taurus::ApplyIndexGatedOrFactoring(b, stmt.leaves);
          });
        }
        return taurus::ThawSkeleton(entry.skeleton, stmt);
      });
  if (!thawed.ok()) return -1.0;
  auto refined = Timed(ledger, "myopt.refine", &sum, [&] {
    return taurus::RefinePlan(std::move(stmt), **thawed, catalog);
  });
  return refined.ok() ? sum : -1.0;
}

taurus::Result<std::vector<taurus::Row>> TraceCompileExecute(
    taurus::Database* db, StageReplay* replay, taurus::ThreadPool* pool,
    const std::string& sql, Ledger* ledger, TracedTimes* times) {
  const double c0 = NowMs();
  auto compiled = db->Compile(sql);
  times->compile_ms = NowMs() - c0;
  if (!compiled.ok()) return compiled.status();
  taurus::CompiledQuery* cq = compiled->get();
  const CompileFacts facts{cq->plan_cache_hit, cq->used_orca, cq->fell_back};
  ledger->Count("engine.compiles");
  if (facts.plan_cache_hit) {
    ledger->Count("engine.cache_hits");
    ledger->Time("engine.compile_hit", times->compile_ms);
  } else {
    ledger->Time("engine.compile_miss", times->compile_ms);
    if (facts.used_orca || facts.fell_back) {
      ledger->Count("bridge.engine_detours");
    }
    if (facts.fell_back) ledger->Count("bridge.fallbacks");
  }
  const double stages_ms = replay->Replay(sql, facts, ledger);
  ledger->Time("engine.compile_self",
               times->compile_ms - std::max(stages_ms, 0.0));
  return TimedExecute(db, pool, cq, ledger, &times->exec_ms);
}

double BookQuery(const taurus::QueryResult& r, double query_ms,
                 const TracedTimes& times, Ledger* ledger) {
  const double overhead =
      query_ms - r.admission_wait_ms - r.optimize_ms - r.execute_ms;
  ledger->Time("engine.overhead", overhead);
  return times.compile_ms + times.exec_ms + overhead + r.admission_wait_ms;
}

int EngineWorkers(taurus::Database* db) {
  const int knob = db->exec_config().parallel_workers;
  return knob > 0 ? knob : taurus::ThreadPool::HardwareWorkers();
}

}  // namespace perfbench
