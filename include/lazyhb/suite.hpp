// lazyhb/suite.hpp — the public batch-campaign facade.
//
// Suite is to the campaign layer what Session (lazyhb/session.hpp) is to a
// single exploration: a builder of value types and strings that runs a
// whole (scenario × strategy) matrix and returns a self-describing
// SuiteReport. It is a thin adapter over the same campaign runner the CLI's
// `bench` subcommand drives, so every durability feature rides along:
// checkpointed resume, shard slicing, failed-cell recording and the
// serialized progress-event stream. A cell is bounded by schedules() and
// maxEventsPerSchedule() alone, so its counts depend on nothing but the
// configuration.
//
//   const lazyhb::SuiteReport report = lazyhb::Suite()
//                                          .add("peterson")
//                                          .add("disjoint-lock")      // a family
//                                          .strategies({"dfs", "caching-lazy"})
//                                          .schedules(50'000)
//                                          .checkpointDir("ckpt/")    // resumable
//                                          .onProgress([](const lazyhb::ProgressEvent& e) {
//                                            /* serialized; see lazyhb/progress.hpp */
//                                          })
//                                          .run();
//   if (!report.allInequalitiesHold()) { /* §3 chain broke — a bug */ }
//   writeFile("shard0.json", report.toJson());  // `lazyhb merge`-able
//
// Configuration errors (unknown strategy/scenario name, bad shard spec)
// throw std::invalid_argument from run(); journal problems (config
// mismatch, nothing to resume) throw std::runtime_error. Counts are
// byte-identical to the CLI's `bench` for the same configuration — the
// parity tests pin this.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lazyhb/progress.hpp"
#include "lazyhb/stats.hpp"

namespace lazyhb {

/// The lazyhb-bench-report schema Suite::run and `lazyhb bench` write
/// (docs/bench-report-schema.md).
inline constexpr const char* kSuiteReportSchemaName = "lazyhb-bench-report";
inline constexpr int kSuiteReportSchemaVersion = 12;

/// One (scenario, strategy) cell of the suite matrix — the public mirror of
/// the campaign report's cell block: every statistic (the ExplorationStats
/// base; the §3 chain reads distinctStates <= distinctValueClasses <=
/// distinctLazyHbrs <= distinctHbrs <= schedulesExecuted) plus the cell's
/// identity and provenance.
struct SuiteCell : ExplorationStats {
  std::string scenario;
  std::string family;
  std::string strategy;

  bool fromCheckpoint = false; ///< loaded from the journal, not re-run
  std::string error;           ///< non-empty: the explorer threw; counts are zero

  double wallSeconds = 0.0;
  bool inequalityHolds = true;
  std::string inequalityDiagnostic;  ///< empty when the §3 chain holds

  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

/// The self-describing result of one Suite::run.
struct SuiteReport {
  std::vector<SuiteCell> cells;  ///< scenario-major, strategy-minor

  ExplorationStats totals;       ///< every cell's statistics, folded
  int inequalityViolations = 0;  ///< cells whose §3 chain failed (expect 0)
  double wallSeconds = 0.0;

  std::size_t cellsFromCheckpoint = 0;
  int cellsFailed = 0;

  // The shard this run covered (0-based; 0/1 when unsharded).
  int shardIndex = 0;
  int shardCount = 1;

  [[nodiscard]] bool allInequalitiesHold() const noexcept {
    return inequalityViolations == 0;
  }

  /// The versioned lazyhb-bench-report JSON document (newline-terminated)
  /// — the same document `lazyhb bench --out` writes, accepted by
  /// `lazyhb merge` and `lazyhb diff`.
  [[nodiscard]] const std::string& toJson() const noexcept { return json_; }

  /// One human-readable summary line (no trailing newline).
  [[nodiscard]] std::string summary() const;

 private:
  friend class Suite;
  std::string json_;
};

/// Builder facade over the campaign runner. A Suite is a reusable value:
/// run() executes the configured matrix and returns a fresh SuiteReport.
class Suite {
 public:
  Suite();

  /// Select a scenario or a whole family by name (repeatable; order is
  /// kept, duplicates collapse). No add() at all runs the full registered
  /// corpus. Validated at run().
  Suite& add(std::string scenarioOrFamily);
  /// Strategies to run each scenario under (default: the five canonical
  /// modes). Validated at run().
  Suite& strategies(std::vector<std::string> names);
  /// Schedule budget per cell (default 10,000; the paper's experiments use
  /// 100,000).
  Suite& schedules(std::uint64_t limit);
  /// Per-schedule event budget, guarding against unbounded loops.
  Suite& maxEventsPerSchedule(std::uint32_t events);
  /// Seed for the "random" strategy; identical in every cell.
  Suite& seed(std::uint64_t value);
  /// Incremental prefix replay (default on); counts are byte-identical
  /// either way.
  Suite& incremental(bool on);
  /// Memory model every cell explores under: "sc" (default) or "tso"
  /// (x86-style store buffering; see docs/memory-models.md). Validated at
  /// run(). The report's config.memory_model echoes this — TSO and SC
  /// reports never merge.
  Suite& memoryModel(std::string model);
  /// Campaign worker threads fanning cells out (<= 0: one per hardware
  /// thread, at most 256 / workers()). Counts are byte-identical at any
  /// value.
  Suite& jobs(int count);
  /// Intra-cell worker threads sharding each scenario's schedule tree
  /// (dfs/caching-* only; counts stay byte-identical). jobs() × workers()
  /// may not exceed 256.
  Suite& workers(int count);
  /// Run only this 0-based slice of the cell matrix (cells with
  /// index % count == index_). Shard reports merge back to the unsharded
  /// count set via `lazyhb merge`. Validated at run().
  Suite& shard(int index, int count);
  /// Journal finished cells into this directory and resume from it when it
  /// already holds a matching journal (see docs/campaign-service.md).
  Suite& checkpointDir(std::string directory);
  /// Require checkpointDir() to hold an existing journal — run() then
  /// throws std::runtime_error instead of silently starting fresh.
  Suite& resumeOnly(bool on = true);
  /// Campaign lifecycle events (serialized; lazyhb/progress.hpp documents
  /// the contract).
  Suite& onProgress(ProgressCallback callback);

  /// Run the configured matrix. Throws std::invalid_argument for unknown
  /// names, a bad shard spec or jobs() × workers() above 256 (before any
  /// cell runs), std::runtime_error for journal problems.
  [[nodiscard]] SuiteReport run() const;

 private:
  struct Config {
    std::vector<std::string> selectors;
    std::vector<std::string> strategies;
    std::uint64_t scheduleLimit = 10'000;
    std::uint32_t maxEventsPerSchedule = 1u << 16;
    std::uint64_t seed = 42;
    bool incremental = true;
    std::string memoryModel = "sc";
    int jobs = 0;
    int workers = 1;
    int shardIndex = 0;
    int shardCount = 1;
    std::string checkpointDir;
    bool resumeOnly = false;
    ProgressCallback progress;
  };

  Config config_;
};

}  // namespace lazyhb
