// perfbench/src/bench.hpp
//
// Shared vocabulary of the exploration benchmark: the workloads (sets of
// Session::run explorations), the contract counts each exploration must
// reproduce, small statistics helpers, and the line protocol
// perfbench/run.py reads back.
//
// Output protocol (stdout, one record per line):
//   ready {...}     the workload is set up and ready to time
//   counts {...}    contract counts of one exploration id, per source
//                   ("session" = untraced Session::run, "traced" = the
//                   layer-timed rerun)
//   metrics {...}   metric name -> {"value", "unit"}
// Every other line is human-readable commentary.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "lazyhb/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One exploration the benchmark performs: a strategy on a registered
/// scenario under a memory model and a schedule budget.
struct Exploration {
  std::string strategy;
  std::string scenario;
  std::string model = "sc";
  std::uint64_t limit = 0;
  int workers = 1;
  bool stopOnBug = false;
  std::uint64_t seed = 0;  ///< used by the "random" strategy only
  bool mustComplete = false;  ///< a run that does not report complete fails

  [[nodiscard]] bool seeded() const { return strategy == "random"; }
  /// Stable key for golden counts; seeded explorations include their seed.
  [[nodiscard]] std::string id() const;
  /// The configured public facade for this exploration.
  [[nodiscard]] lazyhb::Session session() const;
};

struct Workload {
  std::string name;
  /// The fixed exploration set schedules_per_s is measured over. Empty for
  /// bug-hunt, whose exploration set is its hunts.
  std::vector<Exploration> main;
  /// stopOnFirstViolation hunts; time_to_bug is their latency.
  std::vector<Exploration> hunts;

  /// The set schedules_per_s and cpu_us_per_schedule are computed over.
  [[nodiscard]] const std::vector<Exploration>& rateSet() const {
    return main.empty() ? hunts : main;
  }
};

/// tree-complete, random-walk, bug-hunt or parallel-tree; nullopt for an
/// unknown name. `workers` is the parallel-tree shard count.
[[nodiscard]] std::optional<Workload> makeWorkload(const std::string& name,
                                                   std::uint64_t seed, int workers);

/// The contract counts of one exploration. TSO flush/fence totals are only
/// known where the benchmark sees an ExplorationResult (the traced run):
/// the public TestReport does not carry them.
struct Counts {
  std::uint64_t schedules = 0;
  std::uint64_t terminal = 0;
  std::uint64_t pruned = 0;
  std::uint64_t violations = 0;
  std::uint64_t hbrs = 0;
  std::uint64_t lazyHbrs = 0;
  std::uint64_t valueClasses = 0;
  std::uint64_t states = 0;
  bool complete = false;
  bool hasTso = false;
  std::uint64_t flushEvents = 0;
  std::uint64_t fenceEvents = 0;

  /// Equal on every field both sides carry.
  [[nodiscard]] bool sameContract(const Counts& other) const;
  [[nodiscard]] std::string json() const;
};

[[nodiscard]] Counts countsOf(const lazyhb::TestReport& report);
[[nodiscard]] Counts countsOf(const lazyhb::explore::ExplorationResult& result);

/// Per-id record of every attempt of one source: the first counts seen,
/// how many later attempts disagreed, how many threw.
class CountLedger {
 public:
  void record(const Exploration& e, const Counts& counts);
  void threw(const Exploration& e);
  /// The first counts recorded for `id`, if any.
  [[nodiscard]] const Counts* find(const std::string& id) const;
  /// Print one `counts` record per id.
  void emit(const char* source) const;

 private:
  struct Entry {
    bool mustComplete = false;
    bool hasCounts = false;
    Counts counts;
    std::uint64_t attempts = 0;
    std::uint64_t repeatMismatch = 0;
    std::uint64_t threw = 0;
  };
  Entry& entry(const Exploration& e);
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

// --- statistics ---------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double pct);
struct WeightedSample {
  double value = 0.0;
  double weight = 1.0;
};
/// Smallest value whose cumulative weight reaches pct% of the total.
[[nodiscard]] double weightedPercentile(std::vector<WeightedSample> samples, double pct);
/// "median X, pNN Y (n=K)": the highest of p99.9/p99/p90/p75 that still has
/// at least ten samples beyond it, or none when the sample is too small.
[[nodiscard]] std::string describeTiming(std::vector<double> values, double scale,
                                         const char* unit);

/// User+sys CPU seconds of the whole process (all threads), from getrusage.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set size of this process image in MiB.
[[nodiscard]] double peakRssMib();

// --- line protocol ------------------------------------------------------------

/// Single-line JSON object builder for the protocol records.
class JsonLine {
 public:
  JsonLine& field(const std::string& key, const std::string& value);
  JsonLine& field(const std::string& key, const char* value);
  JsonLine& field(const std::string& key, double value);
  JsonLine& field(const std::string& key, std::uint64_t value);
  JsonLine& field(const std::string& key, bool value);
  JsonLine& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Metric name -> (value, unit), printed as the `metrics` record.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void emit() const;

 private:
  JsonLine line_;
};

void emitRecord(const char* tag, const std::string& json);

// --- phases -------------------------------------------------------------------

/// One pass over the workload at a small budget (the warm-up the setup
/// time includes).
void warmUp(const Workload& workload);

/// End-to-end measurement with tracing off. Returns the process exit code.
int runUntraced(const Workload& workload, double seconds);
/// Per-layer measurement from the benchmark's own timed loops.
int runTraced(const Workload& workload, double seconds);

}  // namespace perfbench
