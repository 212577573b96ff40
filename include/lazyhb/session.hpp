// lazyhb/session.hpp — the public embedding facade.
//
// Session is a small builder over the exploration engine: configure a
// strategy and budgets with chained setters, then run() a program (or a
// registered scenario by name) and receive a self-describing TestReport.
// The whole API is value types and strings — no internal engine types leak
// through this boundary, so embedders depend only on <lazyhb/lazyhb.hpp>.
//
//   const lazyhb::TestReport report = lazyhb::Session()
//                                         .strategy("caching-lazy")
//                                         .schedules(100'000)
//                                         .detectRaces(true)
//                                         .run(myProgram);
//   if (report.foundViolation()) {
//     const auto trace = lazyhb::traceSchedule(myProgram,
//                                              report.violations.front().schedule);
//     std::fputs(trace.rendered.c_str(), stderr);
//   }
//
// Configuration errors (unknown strategy or scenario name) throw
// std::invalid_argument from run(); everything else is reported through the
// TestReport. Counts produced through Session are byte-identical to driving
// the underlying explorers directly — the parity test suite pins this.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lazyhb/progress.hpp"
#include "lazyhb/scenario.hpp"
#include "lazyhb/stats.hpp"

namespace lazyhb {

inline constexpr const char* kTestReportSchemaName = "lazyhb-test-report";
inline constexpr int kTestReportSchemaVersion = 4;

/// A property violation with the schedule that reproduces it (feed the
/// schedule to lazyhb::traceSchedule, or to `lazyhb replay --schedule`).
struct TestViolation {
  std::string kind;  ///< "assertion-failure" | "deadlock" | "usage-error"
  std::string message;
  std::vector<int> schedule;  ///< thread picked at each step; replayable
};

/// A sync-HB data race (only populated when detectRaces is on).
struct TestRace {
  std::string object;  ///< name of the shared variable raced on
  int firstEvent = -1;
  int secondEvent = -1;
};

/// The self-describing result of one Session::run: every statistic the
/// engine reports (the ExplorationStats base — the extended §3 chain reads
/// distinctStates <= distinctValueClasses <= distinctLazyHbrs <=
/// distinctHbrs <= schedulesExecuted, and Theorems 2.1/2.2 and value
/// soundness say hbrConflicts, lazyHbrConflicts and valueConflicts are 0),
/// the configuration echo and the findings.
struct TestReport : ExplorationStats {
  // Identity and configuration echo.
  std::string scenario;  ///< registered scenario name; empty for ad-hoc programs
  std::string family;    ///< scenario family; empty for ad-hoc programs
  std::string strategy;
  std::uint64_t scheduleLimit = 0;
  std::uint32_t maxEventsPerSchedule = 0;
  std::uint64_t seed = 0;
  bool incremental = true;
  bool checkpointable = false;
  /// Memory model the exploration ran under: "sc" | "tso".
  std::string memoryModel = "sc";

  // Findings.
  std::vector<TestViolation> violations;
  std::vector<TestRace> races;

  double wallSeconds = 0.0;

  [[nodiscard]] bool foundViolation() const noexcept { return !violations.empty(); }
  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }

  /// The versioned lazyhb-test-report JSON document (newline-terminated);
  /// the same document `lazyhb explore --out` writes.
  [[nodiscard]] std::string toJson() const;

  /// One human-readable summary line (no trailing newline).
  [[nodiscard]] std::string summary() const;
};

/// Builder facade over the exploration engine. A Session is a reusable
/// value: run() constructs a fresh single-use explorer each call, so one
/// configured Session can test many programs.
class Session {
 public:
  Session();

  /// Exploration strategy, one of strategies() (default "caching-lazy").
  /// Validated at run().
  Session& strategy(std::string name);
  /// Maximum number of schedules to execute (default 10,000; the paper's
  /// experiments use 100,000).
  Session& schedules(std::uint64_t limit);
  /// Per-schedule event budget, guarding against unbounded loops.
  Session& maxEventsPerSchedule(std::uint32_t events);
  /// Seed for the "random" strategy (ignored by the others).
  Session& seed(std::uint64_t value);
  /// Memory model to explore under: "sc" (sequential consistency, the
  /// default — semantics and counts identical to every prior release) or
  /// "tso" (x86-style total store order: writes enter a per-thread FIFO
  /// store buffer, flushes become scheduler-visible transitions, reads
  /// forward from the local buffer; see docs/memory-models.md). Validated
  /// at run().
  Session& memoryModel(std::string model);
  /// Run the sync-HB data-race detector on every execution.
  Session& detectRaces(bool on = true);
  /// Stop the whole exploration at the first violation (testing-tool mode;
  /// the default keeps exploring and counting).
  Session& stopOnFirstViolation(bool on = true);
  /// Keep at most this many violation records (default 16).
  Session& keepViolations(std::uint32_t max);
  /// Incremental prefix replay (checkpoint/rollback; default on). Counts
  /// are byte-identical either way; only wall time changes.
  Session& incremental(bool on);
  /// Assert the program satisfies the checkpointable contract (see
  /// ScenarioTraits::checkpointable); enables full runtime rollback.
  /// run(name) inherits this from the scenario's registered traits.
  Session& checkpointable(bool on = true);
  /// Shard the scenario's schedule tree across this many OS threads
  /// (default 1 = sequential). Only the tree searches with
  /// order-independent counts shard ("dfs", "caching-full", "caching-lazy",
  /// "caching-value"); other strategies — and order-sensitive options
  /// such as stopOnFirstViolation — run sequentially whatever this is set
  /// to. Every count in the TestReport is byte-identical at any worker
  /// count. At most 256: run() throws std::invalid_argument above it.
  Session& workers(int count);
  /// Byte budget for staged incremental-replay snapshots (0 = unlimited;
  /// default: the LAZYHB_SNAPSHOT_BUDGET environment variable, else
  /// 256 MiB). When staging would exceed it, the engine evicts the staged
  /// checkpoint furthest from the search frontier and later rollbacks into
  /// the evicted region replay from the deepest surviving shallower stage.
  /// Counts are byte-identical at any budget; only wall time and memory
  /// change. With workers(N), the budget is split evenly per worker.
  Session& snapshotBudget(std::uint64_t bytes);
  /// Progress hook: a ProgressEvent of kind ScheduleTick every
  /// progressInterval() executed schedules, synchronously on the exploring
  /// thread (lazyhb/progress.hpp documents the full callback contract).
  /// Setting a callback forces the exploration sequential even when
  /// workers(N > 1) was requested — ticks from racing shard workers would
  /// interleave nondeterministically. Counts are unaffected.
  Session& onProgress(ProgressCallback callback);
  /// Schedules between ScheduleTick events (default 1024; 0 is clamped
  /// to 1). Only meaningful together with onProgress().
  Session& progressInterval(std::uint64_t schedules);

  /// Explore an ad-hoc program. Throws std::invalid_argument for an
  /// unknown strategy name or more than 256 workers.
  [[nodiscard]] TestReport run(const Program& program) const;
  /// Explore a registered scenario by name (inheriting its checkpointable
  /// trait). Throws std::invalid_argument for an unknown scenario name.
  [[nodiscard]] TestReport run(const std::string& scenarioName) const;
  [[nodiscard]] TestReport run(const char* scenarioName) const;

  /// Every strategy name run() accepts, canonical modes first.
  [[nodiscard]] static std::vector<std::string> strategies();

 private:
  struct Config {
    std::string strategy = "caching-lazy";
    std::uint64_t scheduleLimit = 10'000;
    std::uint32_t maxEventsPerSchedule = 1u << 16;
    std::uint64_t seed = 42;
    std::string memoryModel = "sc";
    bool detectRaces = false;
    bool stopOnFirstViolation = false;
    std::uint32_t maxViolationsKept = 16;
    bool incremental = true;
    bool checkpointable = false;
    int workers = 1;
    /// Set to defaultSnapshotBudgetBytes() by the Session constructor.
    std::uint64_t snapshotBudgetBytes = 0;
    ProgressCallback progress;
    std::uint64_t progressInterval = 1024;
    std::string scenarioLabel;  ///< names run(name) ticks; empty for ad-hoc
  };

  Config config_;
};

/// Options for traceSchedule.
struct TraceOptions {
  /// Relation whose inter-thread edges annotate the trace:
  /// "sync" | "full" | "lazy".
  std::string relation = "full";
  /// Memory model to re-execute under: "sc" | "tso". Must match the model
  /// the schedule was recorded under — TSO schedules carry flush picks
  /// (>= 32) that no SC execution can apply.
  std::string memoryModel = "sc";
  bool detectRaces = false;
  bool renderTrace = true;
  std::uint32_t maxEventsPerSchedule = 1u << 16;
};

/// Deterministic re-execution of a recorded schedule.
struct ScheduleTrace {
  /// False when the schedule does not apply to the program (a pick named a
  /// thread that was not enabled at that point); every other field is then
  /// meaningless.
  bool applied = false;
  std::string outcome;  ///< "terminal" | "deadlock" | "assertion-failure" | ...
  bool violated = false;
  std::string message;   ///< violation message, if any
  std::string rendered;  ///< human-readable interleaving with HB edges
  std::size_t events = 0;
  std::string hbrFingerprint;    ///< 32 hex digits
  std::string lazyFingerprint;   ///< 32 hex digits
  std::string stateFingerprint;  ///< 32 hex digits
  std::vector<TestRace> races;
};

/// Re-execute `schedule` (e.g. a TestViolation::schedule) under `program`
/// and render the interleaving. Throws std::invalid_argument for an unknown
/// relation name in `options`.
[[nodiscard]] ScheduleTrace traceSchedule(const Program& program,
                                          const std::vector<int>& schedule,
                                          const TraceOptions& options = {});

/// Same, for a registered scenario. Throws std::invalid_argument for an
/// unknown scenario name.
[[nodiscard]] ScheduleTrace traceSchedule(const std::string& scenarioName,
                                          const std::vector<int>& schedule,
                                          const TraceOptions& options = {});

}  // namespace lazyhb
