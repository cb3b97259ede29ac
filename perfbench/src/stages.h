// Traced-run instrumentation. Everything here times calls into the engine's
// public entry points from the benchmark side; no span is added inside the
// engine. The replay re-runs one statement's compile stages along the path
// the engine's own compile took (cache hit: thaw; miss: route + optimize +
// freeze), so their self times decompose Database::Compile.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "engine/database.h"

namespace perfbench {

/// What the engine's compile of a statement did (from its CompiledQuery).
struct CompileFacts {
  bool plan_cache_hit = false;
  bool used_orca = false;
  bool fell_back = false;
};

class StageReplay {
 public:
  explicit StageReplay(taurus::Database* db) : db_(db) {}

  /// Replays the compile of `sql` along the path described by `facts`,
  /// timing each stage into `ledger`. Returns the summed stage time in ms,
  /// or a negative value when a stage failed (counted as replay.errors).
  double Replay(const std::string& sql, const CompileFacts& facts,
                Ledger* ledger);

 private:
  struct Frozen {
    taurus::FrozenBlockSkeleton skeleton;
    bool via_orca = false;
  };
  /// Runs the miss path (optimize + freeze + refine) and keeps the frozen
  /// skeleton for later thaws. `ledger` may be null (untimed priming).
  double CompileMiss(const std::string& sql, const CompileFacts& facts,
                     Ledger* ledger);
  double CompileHit(const std::string& sql, Ledger* ledger);

  taurus::Database* db_;
  std::unordered_map<uint64_t, Frozen> frozen_;  ///< by statement fingerprint
};

/// Wall times of one traced statement's compile and execute.
struct TracedTimes {
  double compile_ms = 0.0;
  double exec_ms = 0.0;
};

/// Traces one statement up to its result: Database::Compile (it sees the
/// plan cache exactly as Query would; booked by cache outcome), the
/// replayed compile stages (Database::Compile less them is booked as
/// engine.compile_self), and ExecuteQuery of the engine's plan.
taurus::Result<std::vector<taurus::Row>> TraceCompileExecute(
    taurus::Database* db, StageReplay* replay, taurus::ThreadPool* pool,
    const std::string& sql, Ledger* ledger, TracedTimes* times);

/// Books the remainder of a traced Database::Query / Session::Query call
/// (`query_ms` wall) over its own admission wait, compile and execute as
/// engine.overhead, and returns the statement's traced latency: compile +
/// execute + overhead + admission wait.
double BookQuery(const taurus::QueryResult& r, double query_ms,
                 const TracedTimes& times, Ledger* ledger);

/// Worker count the engine would arm for a query (exec_config knob,
/// 0 = hardware concurrency).
int EngineWorkers(taurus::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
