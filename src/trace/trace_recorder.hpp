// lazyhb/trace/trace_recorder.hpp
//
// Online computation of the happens-before relations of one execution:
//
//   Sync  — program order + spawn/join + mutex release->acquire + condvar
//           signal->wakeup. Used by the data-race detector.
//   Full  — the paper's HBR: Sync edges plus conflict edges between events
//           that access the same variable/mutex with at least one
//           modification (every mutex/condvar/semaphore op is treated as a
//           modification of its object).
//   Lazy  — the paper's lazy HBR: Full minus the inter-thread edges induced
//           by blocking lock/unlock (and condvar wait's hidden unlock/lock).
//           TryLock edges are retained: a trylock observes the mutex state,
//           so erasing them would break Theorem 2.2 (see
//           docs/architecture.md §2–3).
//   Value — not a relation but an observation equivalence, coarser than
//           Lazy (value-centric DPOR's framing): two prefixes are
//           value-equivalent when they executed the same operations and
//           every read/RMW observed the same *value* — regardless of which
//           writer produced it — and the shared state they reach is the
//           same (per-variable values plus each condvar's FIFO wait queue;
//           mutex owners, semaphore counts and per-thread progress are
//           already determined by the operation multiset). Lazy-equal
//           prefixes are always value-equal: the lazy relation keeps every
//           reads-from edge, orders same-variable write chains and condvar
//           chains totally, and trylock results sit in the event labels —
//           so #valueClasses <= #lazyHBRs, the next link of the §3 chain.
//
// For the Full and Lazy relations the recorder maintains an incremental
// canonical fingerprint of the executed *prefix* from per-object epochs. An
// *opener* is an event ordered against every earlier event on its object; a
// *member* is ordered only against the object's latest opener. Variables are
// opened by writes, RMWs and flushes (reads are members); under Full every
// mutex op opens, under Lazy only trylocks do (lock, unlock and the mutex
// side of wait/reacquire are members); condvar, semaphore and thread ops
// always open. Each object keeps a rolling hash of its openers per
// relation. An event's hash mixes its schedule-invariant label with the
// current epochs of the objects it touches, then an opener mixes its label
// into them; the prefix fingerprint is an order-independent multiset combine
// of all event hashes. Labels pin program order, an opener's hash pins every
// earlier opener of its objects and a member's pins it between two openers,
// so two prefixes have equal fingerprints iff (modulo 128-bit collisions)
// they are linearizations of the same labelled partial order (the argument,
// including the spawn/join, signal->wakeup and TSO cases, is in
// docs/architecture.md section 3). This is what HBR caching and lazy HBR
// caching key on, and what the terminal-HBR counts of Figures 2 and 3
// de-duplicate by. Each update adds to an accumulator in O(1); no
// predecessor list is built.
//
// The recorder builds only what a consumer declared at construction
// (Options). Always: the Full/Lazy/Value prefix fingerprints, which is all
// the caching searches and the counts read. The predecessor half — event
// records, the per-object cursors predecessors are collected from, and
// what is built from the lists — runs only when one of these is set:
//   fullClocks       — Full clock rows (DPOR's happens-before test);
//   detectRaces      — Sync clock rows and the sync-HB race detector;
//   keepPredecessors — per-event predecessor lists of all three relations
//                      and the object-name map (Foata, HB graph rendering,
//                      tests). The Lazy relation has no clocks at all:
//                      foata.hpp rebuilds its transitive closure from the
//                      kept lists.
// Reading a clock, an event record or a cursor-derived list no consumer
// asked for fails a LAZYHB_CHECK.
//
// Storage is structure-of-arrays: the requested clock rows live in flat
// ClockArena matrices (trace/clock_arena.hpp); a thread's running clock is
// simply its last event's row, so no per-thread clock storage exists at
// all. EventRecords (consulted by DPOR's race analysis and the race
// reports) and the kept predecessor lists sit in separate arrays. Clock
// accessors deal in ClockView spans; the owning VectorClock class remains
// for the test layers.
//
// The recorder is an ExecutionObserver and is reset on every
// onExecutionStart, so one instance can monitor millions of executions with
// no steady-state allocation: every array, arena, object history and scratch
// buffer keeps its capacity across executions.
//
// Incremental prefix replay: consecutive schedules of a tree search share a
// prefix, and everything the recorder computes for that prefix is identical
// across them. capture() fills a Snapshot of the current depth (the
// per-event arrays are append-only, the clock matrices truncate in place,
// and the prefix fingerprint accumulators are abelian — so a snapshot is
// just the handful of non-monotonic cursors plus an undo-log mark);
// restore() rewinds the whole recorder to it. Two consumers exist:
// resumable executions re-extend directly after a restore, and re-executed
// schedules arm armResume() so the next onExecutionStart restores and then
// *skips* the replayed prefix events instead of recomputing them — the
// recorder's share of the replay cost disappears. The recorder keeps no
// snapshots itself; the replay engine's ledger does
// (explore/prefix_replay.hpp).

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/execution.hpp"
#include "runtime/operation.hpp"
#include "support/hash.hpp"
#include "support/undo_log.hpp"
#include "trace/clock_arena.hpp"
#include "trace/vector_clock.hpp"

namespace lazyhb::trace {

/// Which happens-before relation (or, for Value, which prefix equivalence)
/// to consult.
enum class Relation : std::uint8_t { Sync, Full, Lazy, Value };

[[nodiscard]] const char* relationName(Relation r) noexcept;

/// A detected data race: two sync-concurrent accesses to one variable with
/// at least one write.
struct RaceReport {
  runtime::Uid objectUid = 0;
  std::string objectName;
  std::int32_t firstEvent = -1;
  std::int32_t secondEvent = -1;
};

class TraceRecorder final : public runtime::ExecutionObserver {
 public:
  /// What the recorder's consumers read beyond the fingerprints; the
  /// default builds the fingerprints only.
  struct Options {
    /// Record per-event direct-predecessor lists and object names (needed
    /// by the Foata canonicaliser, the HB graph export and the tests; not
    /// needed by the experiment explorers, which only use fingerprints).
    bool keepPredecessors = false;
    /// Build Sync clock rows and run the sync-HB data-race detector.
    bool detectRaces = false;
    /// Build Full clock rows (DPOR's race analysis).
    bool fullClocks = false;
  };

  TraceRecorder();  // fingerprints only
  explicit TraceRecorder(Options options);

  /// Forget the current execution and any armed resume, and build what
  /// `options` asks for from the next execution on, keeping every array's
  /// capacity but returning the clock rows to their initial width: how a
  /// recorder serves a new exploration without being rebuilt (the leased
  /// kits of explore/explorer.hpp).
  void reset(Options options);

  // --- ExecutionObserver ----------------------------------------------------
  void onExecutionStart(const runtime::Execution& exec) override;
  void onObjectRegistered(const runtime::Execution& exec, std::int32_t index,
                          runtime::Uid uid, runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override;
  void onEvent(const runtime::Execution& exec,
               const runtime::EventRecord& event) override;
  void onExecutionEnd(const runtime::Execution& exec,
                      runtime::Outcome outcome) override;

  // --- prefix fingerprints (valid after every event) -------------------------
  [[nodiscard]] support::Hash128 fingerprint(Relation r) const;
  [[nodiscard]] std::size_t eventCount() const noexcept { return eventCount_; }

  // --- incremental prefix replay ---------------------------------------------

  class Snapshot;

  /// Capture the current depth (eventCount()) into `s`, reusing its
  /// storage. Returns its approximate bytes (cursors only, small next to
  /// the fiber images of Execution::capture).
  std::size_t capture(Snapshot& s);

  /// Rewind to the depth `s` captured. All per-event data below it stays
  /// valid; everything past it is truncated and the cursors and
  /// fingerprints restored. `s` stays valid, but every snapshot captured
  /// after it is invalidated.
  void restore(const Snapshot& s);

  /// Arm the next onExecutionStart to restore(s) and then skip the replayed
  /// events below its depth (and their object re-registrations) instead of
  /// resetting — for re-executed schedules whose prefix is a replay of the
  /// previous one. `s` must stay untouched until that start.
  void armResume(const Snapshot& s);

  /// Live undo-log entries: one per object touched between two captures.
  /// Introspection for tests pinning the O(touched) staging contract (two
  /// writes to one object between captures must coalesce into one entry).
  [[nodiscard]] std::size_t undoLogSize() const noexcept { return undo_.size(); }

  /// Events skipped as already-recorded replays since construction.
  [[nodiscard]] std::uint64_t replaysSkipped() const noexcept { return replaysSkipped_; }

  // --- per-event data (valid until the next onExecutionStart) ----------------
  // Everything below is built by the predecessor half, so it needs one of
  // Options::fullClocks, detectRaces or keepPredecessors.
  [[nodiscard]] const runtime::EventRecord& eventRecord(std::int32_t index) const;
  /// Clock row of an event: Full needs Options::fullClocks, Sync needs
  /// Options::detectRaces; no other relation has clocks.
  [[nodiscard]] ClockView eventClock(Relation r, std::int32_t index) const;
  /// Requires Options::keepPredecessors.
  [[nodiscard]] const std::vector<std::int32_t>& eventPredecessors(
      Relation r, std::int32_t index) const;

  /// Clock of thread `tid`'s most recent event (zero clock if none); the
  /// same requirements as eventClock.
  [[nodiscard]] ClockView threadClock(Relation r, int tid) const;

  /// Event indices of already-executed events that conflict (under the Full
  /// relation) with thread `tid`'s pending variable access (read, write,
  /// RMW or flush) — the candidate backtracking points DPOR examines, in
  /// schedule order. Other kinds are ordered by chainEvents; `out` stays
  /// empty for them.
  void collectConflicts(const runtime::Execution& exec, int tid,
                        std::vector<std::int32_t>& out) const;

  /// All events so far on an object's conflict chain (mutex / condvar /
  /// semaphore / thread objects), in schedule order. DPOR walks these from
  /// the back: the most recent chain event may fail the co-enabledness
  /// filter (e.g. an unlock against a pending lock) while an earlier one
  /// (the matching lock) is the real backtracking candidate.
  [[nodiscard]] const std::vector<std::int32_t>& chainEvents(std::int32_t objectIndex) const;

  // --- races ------------------------------------------------------------------
  [[nodiscard]] const std::vector<RaceReport>& races() const noexcept { return races_; }

  /// Human-readable object name for a UID seen in the current execution
  /// (names are kept under keepPredecessors; otherwise "obj-NNNN").
  [[nodiscard]] std::string objectName(runtime::Uid uid) const;

 private:
  /// Per-event predecessor lists, populated only under keepPredecessors.
  /// Pooled: the outer vector never shrinks, so inner capacity is reused.
  struct EventPreds {
    std::vector<std::int32_t> full;
    std::vector<std::int32_t> lazy;
    std::vector<std::int32_t> sync;
  };

  /// Everything a rollback restores about one object, logged whole on its
  /// first update after a stage.
  struct ObjectCursor {
    // Fingerprint half (always kept).
    /// Rolling hash of the object's openers in schedule order: the Full
    /// relation's epoch, and the Lazy one for every object but a mutex.
    support::Hash128 epoch;
    /// A mutex's Lazy epoch, whose only openers are trylocks.
    support::Hash128 lazyEpoch;
    /// Value equivalence: mirror of the variable's current value hash
    /// (Execution commits the post-value before recording the event, so the
    /// recorder keeps the pre-value itself — a read/RMW observes this).
    std::uint64_t valueHash = 0;
    /// The variable's current (uid, valueHash) contribution to valueState_,
    /// kept so that a write removes it without hashing it again.
    support::Hash128 valueTerm;
    /// Value equivalence: mirror of the condvar's FIFO wait queue, as
    /// thread UIDs in arrival order. Signal wakes the front deterministically,
    /// so arrival *order* is observable state an abelian multiset of labels
    /// cannot encode; the value fingerprint folds it order-sensitively.
    std::vector<runtime::Uid> cvQueue;

    // Predecessor half (kept only while a consumer reads predecessors).
    // Variables:
    std::int32_t lastWrite = -1;
    std::vector<std::int32_t> readersSinceWrite;
    // Mutex Lazy-relation trylock bookkeeping:
    std::int32_t lastTryLock = -1;
    std::vector<std::int32_t> mutexOpsSinceTryLock;
    // Sync relation: last release (unlock/wait) event on this mutex.
    std::int32_t lastReleaseEvent = -1;
    // Race detection:
    std::int32_t lastWriteEvent = -1;
    std::vector<std::pair<int, std::int32_t>> lastReadPerThread;  // (tid, event)
  };

  struct ObjectHistory : ObjectCursor {
    runtime::Uid uid = 0;
    /// Every event on the object's Full conflict chain (mutex, condvar,
    /// semaphore, thread objects), schedule order. Append-only, so an undo
    /// entry records its length only.
    std::vector<std::int32_t> chain;
    /// Undo-log stamp (support/undo_log.hpp): epochs are never reused, so
    /// reset() need not clear it.
    std::uint64_t stamp = 0;

    /// Clears per-execution state; every vector keeps its capacity, so a
    /// steady-state execution allocates nothing here.
    void reset(runtime::Uid u) {
      uid = u;
      epoch = {};
      lazyEpoch = {};
      valueHash = 0;
      valueTerm = {};
      cvQueue.clear();
      lastWrite = -1;
      readersSinceWrite.clear();
      lastTryLock = -1;
      mutexOpsSinceTryLock.clear();
      lastReleaseEvent = -1;
      lastWriteEvent = -1;
      lastReadPerThread.clear();
      chain.clear();
    }
  };

  /// Undo-log entry: an object's cursor pre-image, logged on its first
  /// history update after a capture — so a capture costs O(objects touched
  /// since the last one) instead of O(all objects).
  struct ObjectUndo {
    std::int32_t index = -1;
    std::size_t chainSize = 0;
    ObjectCursor cursor;
  };

  void resetAll();

  /// True when a consumer reads what the predecessor half builds.
  [[nodiscard]] bool tracksPredecessors() const noexcept {
    return options_.fullClocks || options_.detectRaces || options_.keepPredecessors;
  }

  /// The predecessor half of onEvent: records the event, collects its
  /// direct predecessors under each relation while advancing the cursors
  /// they come from, then builds the requested clock rows, runs the race
  /// detector and keeps the lists.
  void trackPredecessors(const runtime::Execution& exec,
                         const runtime::EventRecord& ev, std::int32_t index);

  /// Undo-log hook, called before every history update: the first touch
  /// per epoch logs the cursor pre-image; a no-op until the first capture.
  void touchHistory(std::int32_t index) {
    ObjectHistory& h = history(index);
    if (undo_.firstTouch(h.stamp)) logHistory(index, h);
  }
  void logHistory(std::int32_t index, const ObjectHistory& h);

  /// The condvar's contribution to valueState_: an order-sensitive fold of
  /// its FIFO wait queue over the condvar's uid. Computed before and after
  /// every queue change so the accumulator can remove/add the pair.
  [[nodiscard]] static support::Hash128 cvQueueContribution(const ObjectHistory& h) noexcept;

  /// The history of an object, growing the table on first sight. Inline:
  /// onEvent reaches it several times per event.
  ObjectHistory& history(std::int32_t objectIndex) {
    const auto i = static_cast<std::size_t>(objectIndex);
    if (i >= objects_.size()) [[unlikely]] objects_.resize(i + 1);
    if (i >= objectCount_) objectCount_ = i + 1;
    return objects_[i];
  }
  /// The clock matrix of `r`; fails a LAZYHB_CHECK unless it is built.
  [[nodiscard]] const ClockArena& arena(Relation r) const;
  /// Sync-HB race check of a variable access against the pre-update race
  /// state, which it then advances.
  void detectRace(const runtime::Execution& exec,
                  const runtime::EventRecord& ev, std::int32_t index);

  Options options_;
  std::size_t eventCount_ = 0;

  // Fingerprints.
  support::MultisetHash prefixFull_;
  support::MultisetHash prefixLazy_;
  /// Value equivalence, two abelian accumulators: prefixValue_ holds one
  /// contribution per event — its label, mixed with the observed pre-value
  /// for reads/RMWs and nothing causal (that omission is the coarsening) —
  /// and valueState_ holds the currently-visible shared state: one
  /// (uid, value) contribution per variable and one order-sensitive queue
  /// fold per condvar. fingerprint(Relation::Value) combines both digests.
  support::MultisetHash prefixValue_;
  support::MultisetHash valueState_;

  std::vector<ObjectHistory> objects_;
  std::size_t objectCount_ = 0;

  // Predecessor half, per event (indexed by event). A clock matrix holds
  // rows only when its consumer is on (see Options); both share one stride.
  std::vector<runtime::EventRecord> records_;
  ClockArena syncClocks_;
  ClockArena fullClocks_;
  std::vector<EventPreds> preds_;  // eventCount_ entries live iff keepPredecessors

  // Predecessor half, per thread: index of the thread's latest event (its
  // running clock is that event's arena row).
  std::vector<std::int32_t> threadLastEvent_;
  std::size_t threadCount_ = 0;

  std::vector<RaceReport> races_;
  std::unordered_map<runtime::Uid, std::string> names_;  // keepPredecessors only

  // Scratch buffers reused across events (no hot-path allocation).
  std::vector<std::int32_t> scratchFull_;
  std::vector<std::int32_t> scratchLazy_;
  std::vector<std::int32_t> scratchSync_;

  // Incremental prefix replay.
  support::UndoLog<ObjectUndo> undo_;  // object cursors
  const Snapshot* pendingResume_ = nullptr;  // armed by armResume
  std::size_t skipEvents_ = 0;  // replayed prefix events left to skip
  std::uint64_t replaysSkipped_ = 0;
};

/// The recorder's non-truncatable state at one depth. Object cursors are
/// not copied: `undoMark` remembers where the undo log stood. Default-
/// constructed empty; capture() refills one in place, keeping its storage.
class TraceRecorder::Snapshot {
  friend class TraceRecorder;
  std::size_t eventCount = 0;
  support::MultisetHash prefixFull;
  support::MultisetHash prefixLazy;
  support::MultisetHash prefixValue;
  support::MultisetHash valueState;
  std::size_t threadCount = 0;
  std::vector<std::int32_t> threadLastEvent;
  std::size_t objectCount = 0;
  std::size_t undoMark = 0;
  std::size_t raceCount = 0;
};

}  // namespace lazyhb::trace
