// The benchmark's workloads and the set-up helpers they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "engine/database.h"

namespace perfbench {

/// TPC-H SF 0.006, the 22 queries in order, one client (threshold 3).
Outcome RunTpchPower(const Options& opt, Progress* progress);
/// TPC-DS scale 0.001, the 99 queries in order, one client (threshold 2).
Outcome RunTpcdsAdhoc(const Options& opt, Progress* progress);
/// A Server with one Session per hardware worker sending short
/// literal-varying statements over TPC-H SF 0.001.
Outcome RunSessionsHitpath(const Options& opt, Progress* progress);

/// The generators' own seeds; every workload loads this data. --seed
/// (default kDefaultSeed) draws the sessions workload's literals.
constexpr uint64_t kTpchDataSeed = 20220329;
constexpr uint64_t kTpcdsDataSeed = 19990401;
constexpr uint64_t kDefaultSeed = kTpchDataSeed;

/// A generator: schema DDL plus the seeded data load (which ends in ANALYZE).
struct DataSpec {
  taurus::Status (*create_schema)(taurus::Database*);
  taurus::Status (*load)(taurus::Database*, double, uint64_t);
  double scale;
};

/// Whole set-ups repeat until kMaxSetups are done or kSetupBudgetS is
/// spent (at least one): short set-ups get a median, tpch_power's ~10 s
/// one (its warm-up runs Q20) runs once.
constexpr size_t kMaxSetups = 5;
constexpr double kSetupBudgetS = 3.0;

/// Runs `one_setup` by the rule above, recording each set-up's time.
template <typename Fn>
taurus::Status RepeatSetups(SetupTimes* times, const Fn& one_setup) {
  double spent_s = 0.0;
  do {
    const double t0 = NowMs();
    TAURUS_RETURN_IF_ERROR(one_setup());
    times->setup_s.push_back((NowMs() - t0) / 1000.0);
    spent_s += times->setup_s.back();
  } while (times->setup_s.size() < kMaxSetups && spent_s < kSetupBudgetS);
  return taurus::Status::OK();
}

/// Builds the data set into a fresh database (freeing the previous one
/// first, so peak RSS holds one copy), timing it into times->data_s.
taurus::Status BuildData(const DataSpec& spec, uint64_t seed,
                         std::unique_ptr<taurus::Database>* db,
                         SetupTimes* times);

/// Traced runs only: splits one data set-up into generation, bulk load and
/// ANALYZE by timing Database::BulkLoad and Database::AnalyzeAll on a copy
/// of freshly generated data (workloads.datagen_s is the generator's time
/// less the load and ANALYZE it performs).
taurus::Status MeasureSetupLayers(const DataSpec& spec, uint64_t seed,
                                  Ledger* ledger);

/// One report line: the plan cache's counters between two snapshots.
std::string PlanCacheLine(const taurus::PlanCacheStats& before,
                          const taurus::PlanCacheStats& after);

/// Checks warm-up checksums against the stored set when it applies (the
/// statements do not depend on --seed, or it is kDefaultSeed), or writes
/// that set when asked. Mismatches count as failures.
void CheckStoredChecksums(
    const Options& opt, bool stored_set_applies,
    const std::vector<std::pair<std::string, Checksum>>& warm, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
