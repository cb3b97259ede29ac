// perfbench: one benchmark for the Orca-in-MySQL engine.
//
//   perfbench --workload <tpch_power|tpcds_adhoc|sessions_hitpath>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--checksums <dir>] [--write-checksums]
//
// Prints a report, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// and runs it; perfbench/README.md describes workloads and metrics.
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "common/lock_rank.h"
#include "common/thread_pool.h"
#include "verify/diagnostics.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// The watchdog reports a run as failed once set-up takes longer than
/// kSetupLimitS, or the timed phase longer than kTimedMultiple times its
/// expected length, or the process longer than kProcessLimitS in all.
constexpr double kSetupLimitS = 120.0;
constexpr double kTimedMultiple = 4.0;
constexpr double kProcessLimitS = 170.0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += Fmt(", \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i > 0 ? ", " : "") + JsonString(m.name) +
            Fmt(": {\"value\": %.17g, \"unit\": ", m.value) +
            JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Reports a run that stopped making progress as failed and ends the
/// process: there is no query cancellation, so a statement stuck in the
/// engine (for instance a fallback onto a nested-loop plan) cannot be
/// interrupted any other way.
class Watchdog {
 public:
  explicit Watchdog(const Progress* progress)
      : progress_(progress), start_ms_(NowMs()), thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    double timed_start_ms = 0.0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return done_; })) {
      const double now = NowMs();
      const double expected_s = progress_->timed_expected_s.load();
      if (expected_s > 0 && timed_start_ms == 0.0) timed_start_ms = now;
      const char* phase = nullptr;
      double limit_s = 0.0;
      if ((now - start_ms_) / 1000.0 > kProcessLimitS) {
        phase = "the run";
        limit_s = kProcessLimitS;
      } else if (expected_s == 0 && (now - start_ms_) / 1000.0 > kSetupLimitS) {
        phase = "set-up";
        limit_s = kSetupLimitS;
      } else if (expected_s > 0 && (now - timed_start_ms) / 1000.0 >
                                       kTimedMultiple * expected_s) {
        phase = "the timed phase";
        limit_s = kTimedMultiple * expected_s;
      }
      if (phase == nullptr) continue;
      const std::string* current = progress_->current.load();
      std::printf("watchdog: %s exceeded %.1f s while running %s; reported "
                  "as failed\n",
                  phase, limit_s, current != nullptr ? current->c_str() : "-");
      PrintResult(false, std::max<int64_t>(progress_->attempted.load(), 1),
                  progress_->failed.load() + 1, {});
      std::_Exit(0);
    }
  }

  const Progress* progress_;
  const double start_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// The environment record printed with every result.
std::string EnvironmentLine() {
  std::string malloc_env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MALLOC_", 7) == 0 ||
        std::strncmp(*e, "GLIBC_TUNABLES=", 15) == 0) {
      malloc_env += std::string(" ") + *e;
    }
  }
  return Fmt("env: nproc=%ld hardware_workers=%d compiler=\"%s\" NDEBUG=%s "
             "malloc_env=[%s]",
             sysconf(_SC_NPROCESSORS_ONLN),
             taurus::ThreadPool::HardwareWorkers(), Compiler().c_str(),
             kNdebug ? "set" : "unset",
             malloc_env.empty() ? "" : malloc_env.c_str() + 1);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tpch_power|tpcds_adhoc|sessions_hitpath> --seed <n> "
               "--seconds <s> --trace <0|1> [--checksums <dir>] "
               "[--write-checksums]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  opt.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--write-checksums") {
      opt.write_checksums = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--checksums") {
      opt.checksum_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.seconds < 1) return Usage("--seconds must be at least 1");

  Outcome (*run)(const Options&, Progress*) = nullptr;
  if (opt.workload == "tpch_power") {
    run = RunTpchPower;
  } else if (opt.workload == "tpcds_adhoc") {
    run = RunTpcdsAdhoc;
  } else if (opt.workload == "sessions_hitpath") {
    run = RunSessionsHitpath;
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  std::printf("%s\n", EnvironmentLine().c_str());
  // Plan verifiers (and lock-rank checks) forced on means a Debug or
  // sanitizer build: its timings say nothing about the shipped engine.
  if (taurus::kVerifyPlansDefault || taurus::kLockRankChecksDefault ||
      !kNdebug || Sanitized()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build with plan verifiers "
                 "forced on (Debug or sanitizer); build RelWithDebInfo\n");
    return 3;
  }
  std::printf("workload %s seed %" PRIu64 " seconds %d trace %d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);

  Progress progress;
  Outcome out;
  {
    Watchdog watchdog(&progress);
    out = run(opt, &progress);
  }
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite; reported as 0\n", m.name.c_str());
      m.value = 0.0;
      out.correct = false;
    }
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (out.attempted < 1) out.attempted = 1;
  PrintResult(out.correct && out.failed == 0, out.attempted, out.failed,
              out.metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
