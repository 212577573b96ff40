// lazyhb/explore/prefix_replay.hpp
//
// The incremental prefix-replay engine: the piece that lets a tree search
// pay only for the *suffix* of each schedule past its divergence point.
//
// Tree searches (DFS, cached or not, and DPOR) visit schedules in an
// order where consecutive schedules share a — usually deep — prefix: the
// next schedule is "the previous one up to depth d, then a different
// sibling". Classic stateless exploration re-runs the program from scratch
// and replays the prefix choices; everything about that replay (fiber
// switches, engine bookkeeping, recorder clock/hash work) recomputes values
// that are already known.
//
// This engine removes that cost in two tiers:
//
//   * Full runtime rollback (checkpointable programs, fast-fiber builds):
//     one persistent resumable Execution survives across schedules. At
//     every scheduling point that the search will revisit (a node with
//     unexplored siblings), the engine stages an Execution checkpoint and a
//     TraceRecorder checkpoint in lockstep. To start the next schedule it
//     rolls both back to the divergence depth and resumes — the prefix is
//     never re-executed at all ("elided" events).
//
//   * Recorder elision (every other program/build): the program is
//     re-executed from scratch as before, but the recorder is rolled back
//     to its staged checkpoint and *skips* the replayed prefix events
//     instead of recomputing clock rows, hashes and histories for them
//     ("replayed" events; only their recording cost disappears).
//
// Both tiers leave every observable count byte-identical to a
// non-incremental run: rollback restores exactly the state the prefix
// produces, and the re-extension is the same deterministic computation.
// tests/test_incremental.cpp holds the equivalence properties; the golden
// count suite runs the corpus matrix in both modes.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/execution.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::explore {

class PrefixReplayEngine {
 public:
  /// What one upcoming schedule execution should do.
  struct Session {
    runtime::Execution* exec = nullptr;
    bool resumed = false;        ///< true: call exec->resume(), else exec->run()
    std::size_t startDepth = 0;  ///< scheduler starts at this absolute depth
  };

  /// `incremental` turns the engine on at all; `runtimeRollback`
  /// additionally enables the full tier (the caller is responsible for
  /// checking the program's checkpointable contract and
  /// Execution::checkpointingSupported()). `snapshotBudgetBytes` bounds the
  /// approximate bytes held by staged checkpoints (0 = unlimited): staging
  /// past the budget evicts the shallowest staged depth — the one furthest
  /// from the frontier of a deepest-first walk — and a later divergence
  /// into an evicted region falls back to the deepest surviving shallower
  /// stage (or a full restart). Pure performance policy: counts stay
  /// byte-identical at any budget.
  PrefixReplayEngine(runtime::StackPool& stackPool, trace::TraceRecorder& recorder,
                     bool incremental, bool runtimeRollback,
                     std::uint64_t snapshotBudgetBytes);

  PrefixReplayEngine(const PrefixReplayEngine&) = delete;
  PrefixReplayEngine& operator=(const PrefixReplayEngine&) = delete;

  [[nodiscard]] bool incremental() const noexcept { return incremental_; }
  [[nodiscard]] bool runtimeRollback() const noexcept { return runtimeRollback_; }

  /// Scheduler hook: called from Scheduler::pick at a node the search may
  /// revisit (unexplored siblings remain), with `depth` == the number of
  /// committed events. Stages recorder and (full tier) execution
  /// checkpoints; no-ops while the recorder is still skipping a replayed
  /// prefix, or when the depth is already staged.
  void stageCheckpoint(runtime::Execution& exec, std::size_t depth);

  /// Plan the next schedule given the divergence depth the search's
  /// advance() chose. Performs the rollback (full tier, to any staged
  /// depth including 0 — a random walk's root) or arms the recorder resume
  /// (elision tier, depth > 0). Returns the Session::startDepth the next
  /// scheduler must be constructed with.
  std::size_t prepareNext(std::size_t divergenceDepth);

  /// Hand out the execution for the next schedule: the rolled-back
  /// persistent one, or a fresh one — the previous execution restarted in
  /// place (Execution::restart), so a steady-state fresh schedule allocates
  /// nothing here. Also commits the pending elided/replayed accounting
  /// planned by prepareNext.
  Session beginSchedule(const runtime::Config& config,
                        runtime::ExecutionObserver* observer);

  // --- accounting -------------------------------------------------------------

  /// Prefix events never re-executed (full runtime rollback).
  [[nodiscard]] std::uint64_t eventsElided() const noexcept { return eventsElided_; }
  /// Prefix events re-executed to reach a divergence point (their recording
  /// was skipped whenever a recorder checkpoint covered them).
  [[nodiscard]] std::uint64_t eventsReplayed() const noexcept { return eventsReplayed_; }
  /// Successful runtime rollbacks of the persistent execution.
  [[nodiscard]] std::uint64_t rollbacks() const noexcept { return rollbacks_; }
  /// Distinct depths staged over the whole run (re-stages of a still-live
  /// depth do not count).
  [[nodiscard]] std::uint64_t stagesCreated() const noexcept { return stagesCreated_; }
  /// Sum of approximate checkpoint bytes at their staging time.
  [[nodiscard]] std::uint64_t bytesStaged() const noexcept { return bytesStaged_; }
  /// Stages evicted to honour the byte budget.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  /// prepareNext calls where an evicted stage would have served the chosen
  /// divergence better than the deepest surviving one.
  [[nodiscard]] std::uint64_t replayFallbacks() const noexcept { return replayFallbacks_; }

 private:
  /// One live staged depth with the approximate bytes it pinned when staged
  /// (kept sorted by depth: staging is strictly deepening between rollbacks).
  struct StageInfo {
    std::size_t depth = 0;
    std::uint64_t bytes = 0;
  };

  /// Evict shallowest-first until the ledger fits the budget; never evicts
  /// the deepest (just-staged) stage — it is the imminent rollback target.
  void enforceBudget();
  /// Reconcile the ledger with a prepareNext decision: count a replay
  /// fallback if an evicted depth in (keepAtOrBelow, divergenceDepth] would
  /// have been the better rollback target, drop ledger entries above
  /// keepAtOrBelow, and (after a full restart) re-price surviving stages to
  /// their recorder-only cost.
  void settleStages(std::size_t keepAtOrBelow, std::size_t divergenceDepth,
                    bool repriceRecorderOnly);
  runtime::StackPool& stackPool_;
  trace::TraceRecorder& recorder_;
  bool incremental_;
  bool runtimeRollback_;
  std::uint64_t budgetBytes_;  ///< 0 = unlimited

  std::unique_ptr<runtime::Execution> exec_;
  /// The persistent execution after a full restart: no longer a rollback
  /// target, kept for beginSchedule to restart in place.
  std::unique_ptr<runtime::Execution> retired_;
  bool pendingResume_ = false;
  std::size_t pendingStart_ = 0;
  std::uint64_t pendingElided_ = 0;
  std::uint64_t pendingReplayed_ = 0;

  std::uint64_t eventsElided_ = 0;
  std::uint64_t eventsReplayed_ = 0;
  std::uint64_t rollbacks_ = 0;

  std::vector<StageInfo> stages_;          ///< live stages, sorted by depth
  std::vector<std::size_t> evictedDepths_; ///< evicted, still above no live stage
  std::uint64_t liveBytes_ = 0;
  std::uint64_t stagesCreated_ = 0;
  std::uint64_t bytesStaged_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t replayFallbacks_ = 0;
};

}  // namespace lazyhb::explore
