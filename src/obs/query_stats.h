#ifndef TAURUS_OBS_QUERY_STATS_H_
#define TAURUS_OBS_QUERY_STATS_H_

#include <cstdint>

#include "exec/exec_profile.h"
#include "exec/physical_plan.h"

namespace taurus {

/// The one record of one query: its compile facts plus what execution and
/// admission control added. The engine fills it as facts become known, on
/// every exit path, and folds it exactly once into the taurus.* counters,
/// the digest store and the flight recorder (DESIGN.md section 10).
///
/// Timing rule: compile and execute intervals are disjoint. `optimize_ms`
/// sums every compile of the query (an executor-budget fallback compiles
/// twice), `execute_ms` every execution, so optimize_ms + execute_ms never
/// exceeds the traced `query` span.
struct QueryStats : CompileStats {
  double execute_ms = 0.0;
  /// Wall time of the whole query: the traced `query` span when traced,
  /// optimize_ms + execute_ms otherwise. Set when the record is folded.
  double total_ms = 0.0;
  int64_t rows_returned = 0;
  int64_t rows_scanned = 0;
  int64_t index_lookups = 0;
  int64_t rebinds = 0;
  /// Widest worker count any pipeline of this query actually used
  /// (1 = everything ran serial).
  int parallel_workers_used = 1;
  /// How many pipelines ran through the morsel-driven parallel executor.
  int parallel_pipelines = 0;
  /// How many driving pipelines ran vectorized through the batch
  /// executor (DESIGN.md section 13).
  int batch_pipelines = 0;
  /// Batches emitted / selected rows carried by those batches.
  int64_t batches = 0;
  int64_t batch_rows = 0;
  /// True when this execution's actuals were folded into the feedback store
  /// (feedback enabled, fingerprinted, not quarantined).
  bool feedback_harvested = false;
  /// True when the harvest bumped the fingerprint's drift version — its
  /// cached skeleton will be evicted and re-optimized with actuals.
  bool feedback_version_bumped = false;
  /// Max q-error observed across this execution's harvested nodes (1.0
  /// when nothing was harvested).
  double feedback_max_q_error = 1.0;
  /// --- Session/admission state (set by the src/server/ layer; always
  /// default for queries issued directly against the Database) ---
  /// True when the admission controller shed this query onto the cheap
  /// MySQL path under overload (DESIGN.md section 12).
  bool shed = false;
  /// True when the query waited in the admission queue before running.
  bool admission_queued = false;
  /// Wall time spent waiting for admission.
  double admission_wait_ms = 0.0;
  /// --- Workload introspection (DESIGN.md section 15) ---
  /// Per-worker morsel timing (busy/idle/morsels, batch vs Volcano rows);
  /// enabled iff ExecutorConfig::enable_profiling.
  ExecProfile profile;
  /// This query's flight-recorder event id (0 when the recorder is off);
  /// SHOW PROFILE FOR <flight_seq> replays the profile later.
  uint64_t flight_seq = 0;
};

}  // namespace taurus

#endif  // TAURUS_OBS_QUERY_STATS_H_
