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
//     unexplored siblings), the engine stages a checkpoint: an Execution
//     snapshot and a TraceRecorder snapshot, captured together. To start
//     the next schedule it restores both at the divergence depth and
//     resumes — the prefix is never re-executed at all ("elided" events).
//
//   * Recorder elision (every other program/build): the program is
//     re-executed from scratch as before, but the recorder is armed with
//     its staged snapshot and *skips* the replayed prefix events instead of
//     recomputing clock rows, hashes and histories for them ("replayed"
//     events; only their recording cost disappears).
//
// The engine owns the one checkpoint ledger: which depths are staged, which
// stage a divergence rolls back to, and what the byte budget evicts.
// Execution and TraceRecorder only capture and restore snapshots; they
// keep none themselves. Both layers record their non-truncatable state in
// undo logs (support/undo_log.hpp), so a snapshot is a few cursors and log
// marks, and an evicted stage's log entries stay in place — rolling back
// past it to a shallower stage replays them.
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

  /// Adopt the constructor's three settings for the next exploration. Only
  /// on a new or quiesced engine.
  void configure(bool incremental, bool runtimeRollback,
                 std::uint64_t snapshotBudgetBytes);

  /// End an exploration while its program is still alive, keeping the
  /// storage for the next one: the execution's deferred teardown runs and
  /// its threads drop the program's closures, every stage is dropped, and
  /// the accounting restarts from zero. Disarming the recorder is the
  /// recorder's own reset (TraceRecorder::reset).
  void quiesce();

  [[nodiscard]] bool incremental() const noexcept { return incremental_; }
  [[nodiscard]] bool runtimeRollback() const noexcept { return runtimeRollback_; }

  /// Scheduler hook: called from Scheduler::pick at a node the search may
  /// revisit (unexplored siblings remain), with `depth` == the number of
  /// committed events. Stages a checkpoint there (a recorder snapshot and,
  /// on the full tier, an execution snapshot); no-op while the recorder is
  /// still skipping a replayed prefix, or when the depth is already staged.
  void stageCheckpoint(runtime::Execution& exec, std::size_t depth);

  /// Plan the next schedule given the divergence depth the search's
  /// advance() chose. Rolls back to the deepest stage at or below it: on
  /// the full tier by restoring both snapshots (any staged depth, 0 too —
  /// a random walk's root), on the elision tier by arming the recorder
  /// (depth > 0). Returns the Session::startDepth the next scheduler must
  /// be constructed with.
  std::size_t prepareNext(std::size_t divergenceDepth);

  /// Hand out the execution for the next schedule: the rolled-back
  /// persistent one, or a fresh one — the previous execution restarted in
  /// place (Execution::restart), so a steady-state fresh schedule allocates
  /// nothing here. A fresh schedule the recorder does not resume into
  /// starts a new tree and drops the ledger. Also commits the pending
  /// elided/replayed accounting planned by prepareNext.
  Session beginSchedule(const runtime::Config& config,
                        runtime::ExecutionObserver* observer);

  // --- accounting -------------------------------------------------------------

  /// Prefix events never re-executed (full runtime rollback).
  [[nodiscard]] std::uint64_t eventsElided() const noexcept { return eventsElided_; }
  /// Prefix events re-executed to reach a divergence point (their recording
  /// was skipped whenever a staged recorder snapshot covered them).
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
  /// One staged checkpoint: its depth, the approximate bytes its snapshots
  /// pinned when captured, and the snapshots themselves.
  struct Stage {
    std::size_t depth = 0;
    std::uint64_t bytes = 0;
    trace::TraceRecorder::Snapshot recorder;
    runtime::Execution::Snapshot exec;  ///< full tier only
  };

  /// A stage taken from the pool (or a new one), appended as the deepest.
  Stage& pushStage();
  /// Return a live stage to the pool, dropping its fiber images at once.
  void recycle(std::vector<std::unique_ptr<Stage>>::iterator stage);
  /// Evict shallowest-first until the ledger fits the budget; never evicts
  /// the deepest (just-staged) stage — it is the imminent rollback target.
  void enforceBudget();

  runtime::StackPool& stackPool_;
  trace::TraceRecorder& recorder_;
  bool incremental_;
  bool runtimeRollback_;
  std::uint64_t budgetBytes_;  ///< 0 = unlimited

  std::unique_ptr<runtime::Execution> exec_;
  bool pendingResume_ = false;    ///< the next schedule resumes exec_
  bool recorderArmed_ = false;    ///< the next fresh schedule resumes the recorder
  std::size_t pendingDepth_ = 0;  ///< depth the rollback restored
  std::uint64_t pendingReplayed_ = 0;

  std::uint64_t eventsElided_ = 0;
  std::uint64_t eventsReplayed_ = 0;
  std::uint64_t rollbacks_ = 0;

  // The ledger. Stages are pooled: a popped stage keeps its snapshots'
  // storage for the next one, so steady-state staging allocates nothing.
  // Held by pointer, so moving one between the lists (or evicting from the
  // front) moves no snapshot.
  std::vector<std::unique_ptr<Stage>> stages_;  ///< live, shallow -> deep
  std::vector<std::unique_ptr<Stage>> pool_;
  std::vector<std::size_t> evictedDepths_;  ///< evicted, still above no live stage
  std::uint64_t liveBytes_ = 0;
  std::uint64_t stagesCreated_ = 0;
  std::uint64_t bytesStaged_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t replayFallbacks_ = 0;
};

}  // namespace lazyhb::explore
