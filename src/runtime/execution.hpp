// lazyhb/runtime/execution.hpp
//
// One controlled execution of a program under test.
//
// The engine runs every logical thread on a fiber and multiplexes them on
// the calling OS thread. A thread runs until it reaches its next *visible
// operation* (see operation.hpp), publishes the operation descriptor, and
// yields; the host loop then asks the Scheduler which enabled thread may
// commit its pending operation. One pick == one committed event, so the
// sequence of picks is a complete, replayable encoding of the schedule.
//
// This structure gives explorers exactly what dynamic partial-order
// reduction needs: at every scheduling point, the pending operation of every
// live thread is known *before* anything is committed.
//
// Resumable executions (incremental prefix replay). A tree search's
// consecutive schedules share a prefix; re-running it costs fibers, engine
// bookkeeping and recorder work just to get back to the divergence point.
// In resumable mode an execution can instead *fork itself at a scheduling
// point*: capture() fills a Snapshot with every thread's suspended
// continuation (fiber stack bytes restored in place — see fiber.hpp) and
// the undo-log marks of the object table and store buffers; restore()
// returns to it after the schedule completes, and resume() drives the host
// loop onward along a different suffix. Threads spawned past the snapshot
// are discarded, threads that existed resume exactly where they were
// parked. The execution keeps no snapshots itself: which scheduling points
// are captured, and which snapshot a divergence restores, is the replay
// engine's ledger (explore/prefix_replay.hpp).
//
// Soundness contract (the "checkpointable program" contract): restore
// rewrites fiber stacks as raw bytes, so the program under test must keep
// all its cross-schedule-varying state either in registered lazyhb objects
// (Shared/Mutex/CondVar/Semaphore — snapshotted by the engine) or in
// trivially-copyable stack locals. A program whose stack owns heap memory
// (std::vector, std::string, ...) must not run in resumable mode: the heap
// is not versioned, so a restored stack would resurrect stale owners.
// Closures passed to spawn are exempt — spawnThread parks them in an
// engine-side slot before publishing, and the snapshot copies the slot.
// Explorers fall back to full re-execution (with recorder-side replay
// elision) for programs that do not declare the contract.
//
// Recycled executions. A fresh execution need not be a new object:
// restart() returns a finished one to its just-constructed state while
// keeping the capacity of everything it built — thread records with their
// fibers (re-armed on the stacks they own), the object table, the event
// and choice logs, the undo logs and the violation record — so a
// steady-state fresh run allocates nothing in the engine. The replay
// engine (explore/prefix_replay.hpp) hands out every fresh execution this
// way.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "memory/memory_model.hpp"
#include "runtime/fiber.hpp"
#include "runtime/operation.hpp"
#include "support/hash.hpp"
#include "support/thread_set.hpp"
#include "support/undo_log.hpp"

namespace lazyhb::runtime {

class Execution;

/// Strategy interface: decides which enabled thread commits next.
class Scheduler {
 public:
  /// Sentinel return value: prune (abandon) the current execution.
  static constexpr int kAbandon = -1;

  virtual ~Scheduler() = default;

  /// Called at every scheduling point. Must return a member of
  /// exec.enabled(), or kAbandon to abandon the execution.
  virtual int pick(Execution& exec) = 0;
};

/// Passive listener for execution lifecycle and events (the trace module's
/// TraceRecorder is the canonical implementation).
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void onExecutionStart(const Execution&) {}
  /// `initialValueHash` is the Var's initial value hash (0 for other kinds),
  /// so observers can mirror value state without reading back into the
  /// Execution — the registration + event stream alone replays a trace.
  virtual void onObjectRegistered(const Execution&, std::int32_t index, Uid uid,
                                  ObjectKind kind, const std::string& name,
                                  std::uint64_t initialValueHash) {
    (void)index; (void)uid; (void)kind; (void)name; (void)initialValueHash;
  }
  virtual void onEvent(const Execution&, const EventRecord&) {}
  virtual void onExecutionEnd(const Execution&, Outcome) {}
};

/// Execution-time limits and knobs.
struct Config {
  /// Abort an execution that commits more events than this (guards against
  /// unbounded spin loops in programs under test).
  std::uint32_t maxEventsPerSchedule = 1u << 20;
  /// The memory model this execution runs under (memory/memory_model.hpp).
  /// Sc is byte-identical to the pre-subsystem engine; Tso adds per-thread
  /// FIFO store buffers whose flushes are scheduler picks
  /// >= memory::kFlushPickOffset.
  memory::MemoryModel memoryModel = memory::MemoryModel::Sc;
};

/// A thread's pending (published but uncommitted) visible operation.
struct PendingOp {
  bool valid = false;
  OpKind kind = OpKind::Yield;
  std::int32_t object = -1;       ///< primary object index (-1: none)
  std::int32_t mutexObject = -1;  ///< Wait/Reacquire: the mutex
  int targetThread = -1;          ///< Join: joined thread's index
  std::uint64_t aux = 0;
};

/// Registry entry for a shared object. `a` is kind-dependent scalar state:
/// mutex owner thread index (-1 free), semaphore count, thread index for
/// Thread entries, and the engine-resident value bits for Var entries
/// (small trivially-copyable Shared<T> values live here — see api.hpp);
/// `valueHash` is the current value hash for Var entries.
struct ObjectInfo {
  Uid uid = 0;
  ObjectKind kind = ObjectKind::Var;
  std::string name;
  std::uint64_t valueHash = 0;
  std::int64_t a = -1;
  std::vector<int> waiters;  ///< CondVar: parked thread indices, FIFO
  /// Engine-internal undo-log stamp (support/undo_log.hpp): the epoch that
  /// last logged this object's pre-image.
  std::uint64_t epoch = 0;
};

/// Details of a detected violation (assertion failure, deadlock, API
/// misuse), with the choice sequence that reproduces it.
struct Violation {
  Outcome kind = Outcome::Terminal;
  std::string message;
  std::vector<int> schedule;  ///< thread index picked at each step
};

class Execution {
 public:
  /// `observer` may be nullptr. The stack pool outlives the execution and is
  /// typically shared by all executions of one exploration.
  Execution(const Config& config, StackPool& stackPool,
            ExecutionObserver* observer);
  ~Execution();

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  /// Run `body` as thread 0 under `scheduler` control. May be called once
  /// per construction or restart().
  Outcome run(const std::function<void()>& body, Scheduler& scheduler);

  /// Return to the just-constructed state under `config` and `observer`
  /// (not resumable, nothing run), keeping the storage the previous run
  /// built — see "Recycled executions" above. Fibers a resumable run left
  /// suspended are first run forward, as the destructor would. Not callable
  /// from inside a run.
  void restart(const Config& config, ExecutionObserver* observer);

  // --- resumable mode (incremental prefix replay) ---------------------------

  /// True when this build can snapshot/restore executions (fast-fiber
  /// switch, no AddressSanitizer).
  [[nodiscard]] static constexpr bool checkpointingSupported() noexcept {
    return Fiber::kSnapshotSupported;
  }

  /// Switch this execution into resumable mode. Must be called before
  /// run(). End-of-run teardown is deferred (fibers keep their state so
  /// snapshots can be restored); the destructor tears down whatever is
  /// left. Requires checkpointingSupported().
  void enableResumable();

  class Snapshot;

  /// Capture the current scheduling point into `s`, reusing its storage
  /// (only callable from Scheduler::pick, when every fiber is suspended).
  /// Returns the snapshot's approximate resident bytes: dominated by the
  /// fiber stack images, which adjacent snapshots share — each referenced
  /// image counts in full, an upper bound.
  std::size_t capture(Snapshot& s);

  /// After run()/resume() has returned: return to the scheduling point `s`
  /// captured. `s` stays valid — a node is restored once per remaining
  /// sibling — but every snapshot captured after it is invalidated (the
  /// undo logs they point into are rolled back past them).
  void restore(const Snapshot& s);

  /// Continue a rolled-back execution under `scheduler` from its restored
  /// scheduling point. Returns like run().
  Outcome resume(Scheduler& scheduler);

  // --- introspection for schedulers/explorers -------------------------------

  /// Picks the scheduler may return: thread indices whose pending operation
  /// can commit, plus — under TSO — one flush pick
  /// (memory::kFlushPickOffset + t) per thread with a non-empty store
  /// buffer. Flush picks ignore the owning thread's status: a thread may
  /// finish, park or block with stores still buffered, and those stores
  /// must still be able to drain. Built from the maintained sets (see
  /// ready_), re-checking only the threads whose operation can block;
  /// while Scheduler::pick runs it is the set the host loop built for the
  /// scheduling point.
  [[nodiscard]] support::ThreadSet enabled() const {
    return picking_ ? pickEnabled_ : buildEnabled();
  }

  /// Number of threads created so far (indices are [0, threadCount())).
  [[nodiscard]] int threadCount() const noexcept { return static_cast<int>(threads_.size()); }

  /// Exclusive upper bound on pick values: threadCount() under SC,
  /// memory::kFlushPickOffset + threadCount() under TSO. Loops that inspect
  /// every potential pick (DPOR's race analysis) iterate to this bound.
  [[nodiscard]] int pickLimit() const noexcept {
    return tso_ ? memory::kFlushPickOffset + threadCount() : threadCount();
  }

  /// The memory model this execution runs under.
  [[nodiscard]] memory::MemoryModel memoryModel() const noexcept {
    return config_.memoryModel;
  }

  /// The pending operation behind a pick. For a thread index this is the
  /// thread's published operation; for a flush pick (TSO) it is a
  /// synthesized OpKind::Flush on the buffer head's variable (valid iff the
  /// buffer is non-empty), so DPOR's dependence machinery sees flushes as
  /// ordinary pending writes.
  [[nodiscard]] const PendingOp& pending(int tid) const;
  [[nodiscard]] bool threadFinished(int tid) const;
  [[nodiscard]] Uid threadUid(int tid) const;

  [[nodiscard]] const ObjectInfo& object(std::int32_t index) const;
  [[nodiscard]] int objectCount() const noexcept { return static_cast<int>(objects_.size()); }

  /// Committed events, in schedule order.
  [[nodiscard]] const std::vector<EventRecord>& events() const noexcept { return events_; }

  /// Thread indices picked so far, one per committed event.
  [[nodiscard]] const std::vector<int>& choices() const noexcept { return choices_; }

  /// Fingerprint of the shared state: all Var values, mutex owners and
  /// semaphore counts, combined order-independently. Computed on each call:
  /// while the execution is in flight, of the live state; once run() has
  /// returned, of the state at the moment the schedule ended (teardown
  /// destructors run after that point and do not perturb it). Meaningful
  /// for comparing *terminal* states of complete executions (Theorems
  /// 2.1/2.2).
  [[nodiscard]] support::Hash128 stateFingerprint() const;

  /// The violation record if run() ended with isViolation(outcome).
  [[nodiscard]] const Violation& violation() const noexcept { return violation_; }

  // --- entry points used by the user-facing API (api.hpp) -------------------
  // These must only be called from inside a running fiber of this execution.

  /// The execution the calling fiber belongs to (null outside of run()).
  [[nodiscard]] static Execution* current() noexcept;

  /// Index of the thread whose fiber is currently running.
  [[nodiscard]] int currentThread() const noexcept { return currentThread_; }

  /// True while unfinished fibers are being run forward with all visible
  /// operations granted as no-ops (see teardownUnfinished).
  [[nodiscard]] bool isTearingDown() const noexcept { return abandoning_; }

  [[nodiscard]] std::int32_t registerObject(ObjectKind kind, const char* name,
                                            std::uint64_t initialValueHash,
                                            std::int64_t initialA);

  /// Publish a variable access and block until the scheduler grants it. The
  /// caller then mutates the value and calls varCommit (no yield between).
  void varPublish(std::int32_t object, OpKind kind);
  void varCommit(std::int32_t object, OpKind kind, std::uint64_t newValueHash);

  /// Engine-resident Var value bits (api.hpp Shared<T> keeps small
  /// trivially-copyable values in the object table, so they are part of
  /// checkpoints and never live on a fiber stack). Under TSO a load
  /// forwards from the calling thread's own store buffer (newest matching
  /// entry) before falling through to memory.
  [[nodiscard]] std::int64_t varBits(std::int32_t object) const noexcept {
    if (tso_) return varBitsTso(object);
    return objects_[static_cast<std::size_t>(object)].a;
  }

  /// Under TSO a granted Write stages `bits` into the calling thread's FIFO
  /// store buffer instead of memory (varCommit then fills in the entry's
  /// value hash); Rmw — granted only on an empty buffer — and every SC
  /// write still land in memory directly.
  void setVarBits(std::int32_t object, std::int64_t bits) {
    if (tso_ && stageStoreTso(object, bits)) return;
    touchObject(object);
    objects_[static_cast<std::size_t>(object)].a = bits;
  }

  /// lazyhb::fence(): a visible Fence event. Under TSO it is enabled only
  /// once the caller's store buffer has fully drained; under SC it is a
  /// Yield-like scheduling point, so fenced programs run under both models.
  void fenceNow();

  // --- per-schedule TSO statistics (all zero under SC) ----------------------

  /// Flush events committed in this schedule so far.
  [[nodiscard]] std::uint64_t flushEventCount() const noexcept { return flushEvents_; }
  /// Fence events committed in this schedule so far.
  [[nodiscard]] std::uint64_t fenceEventCount() const noexcept { return fenceEvents_; }
  /// High-water mark of any single thread's buffered store count.
  [[nodiscard]] std::uint32_t maxBufferedStores() const noexcept {
    return maxBufferedStores_;
  }

  void mutexLock(std::int32_t object);
  void mutexUnlock(std::int32_t object);
  [[nodiscard]] bool mutexTryLock(std::int32_t object);
  [[nodiscard]] bool mutexHeldByCurrent(std::int32_t object) const;

  void condWait(std::int32_t condvar, std::int32_t mutex);
  void condSignal(std::int32_t condvar);
  void condBroadcast(std::int32_t condvar);

  void semAcquire(std::int32_t semaphore);
  void semRelease(std::int32_t semaphore);

  [[nodiscard]] int spawnThread(std::function<void()> fn);
  void joinThread(int tid);
  void yieldNow();

  /// Record an assertion failure in the program under test and end the
  /// execution. The failing thread is parked (not unwound — its locals may
  /// be referenced by other threads) and later run forward during teardown.
  /// During teardown this is a no-op (conditions evaluated over no-op'd
  /// operations are meaningless).
  void failAssertion(std::string message);

 private:
  enum class ThreadStatus : std::uint8_t {
    Pending,   ///< has a published, uncommitted operation
    Parked,    ///< inside CondVar::wait, not yet signalled
    Finished,  ///< entry function returned (or was abandoned)
  };

  /// One store parked in a thread's TSO store buffer: destination object,
  /// the engine-resident value bits, and the value's hash (filled by
  /// varCommit immediately after the store stages — no scheduling point in
  /// between, so every entry an observer can see is complete).
  struct StoreBufferEntry {
    std::int32_t object = -1;
    std::int64_t bits = 0;
    std::uint64_t valueHash = 0;
  };

  struct ThreadRec {
    std::unique_ptr<Fiber> fiber;
    Uid uid = 0;
    ThreadStatus status = ThreadStatus::Pending;
    PendingOp pendingOp;
    std::uint32_t eventsExecuted = 0;
    /// TSO: this thread's FIFO store buffer, oldest first. Always empty
    /// under SC. Outlives the thread's own activity — a thread can finish
    /// with stores still buffered, and they drain via later flush picks.
    std::vector<StoreBufferEntry> storeBuffer;
    /// TSO: flush events committed for this thread's buffer so far — the
    /// indexInThread counter of its flush agent's event stream.
    std::uint32_t flushCount = 0;
    /// Undo-log stamp of the store buffer (mirrors ObjectInfo::epoch).
    std::uint64_t bufferEpoch = 0;
    std::uint32_t creationSeq = 0;   ///< per-thread counter for derived UIDs
    std::int32_t spawnPredecessor = -1;   ///< consumed by the first event
    std::int32_t signalPredecessor = -1;  ///< consumed by the Reacquire event
    std::int32_t joinPredecessor = -1;    ///< staged just before a Join event
    std::int32_t lastEventIndex = -1;
    std::int32_t objectIndex = -1;        ///< this thread's own Thread object
    /// Times this thread's fiber has been resumed. The stack is a pure
    /// function of (shared prefix, advanceCount), which makes this the
    /// version tag for snapshot image sharing.
    std::uint32_t advanceCount = 0;
    /// A closure handed to spawnThread is parked here, engine-side, before
    /// the Spawn is published — so no fiber stack owns heap at a
    /// suspension point and snapshots can copy the slot instead.
    std::function<void()> pendingSpawnFn;
  };

  /// The byte-level part of a thread's suspended state: fiber continuation
  /// plus the armed spawn slot. Immutable once captured and shared between
  /// adjacent snapshots — a thread's stack only changes when the thread is
  /// advanced, so consecutive snapshots along a descent reuse the same
  /// image for every thread that did not move (advanceCount versioning).
  struct ThreadImage {
    FiberImage fiber;
    std::function<void()> pendingSpawnFn;
  };

  /// Rollback snapshot of one thread.
  struct ThreadSnapshot {
    ThreadStatus status = ThreadStatus::Pending;
    PendingOp pendingOp;
    std::uint32_t eventsExecuted = 0;
    std::uint32_t creationSeq = 0;
    std::uint32_t advanceCount = 0;  ///< image version (see ThreadImage)
    std::int32_t spawnPredecessor = -1;
    std::int32_t signalPredecessor = -1;
    std::int32_t joinPredecessor = -1;
    std::int32_t lastEventIndex = -1;
    std::shared_ptr<const ThreadImage> image;  ///< null for Finished threads
  };

  /// Per-thread cache of the latest captured image, keyed by advanceCount.
  struct ImageCacheEntry {
    std::uint32_t version = kInvalidVersion;
    std::shared_ptr<const ThreadImage> image;
  };
  static constexpr std::uint32_t kInvalidVersion = static_cast<std::uint32_t>(-1);

  /// Object undo-log entry: the pre-image of an object's mutable state on
  /// its first write after a capture (uid/kind/name are immutable after
  /// registration and need no copy), so a capture costs O(objects touched
  /// since the last one) instead of O(all objects).
  struct ObjectUndo {
    std::int32_t index = -1;
    std::uint64_t valueHash = 0;
    std::int64_t a = -1;
    std::vector<int> waiters;
  };

  /// Store-buffer undo-log entry: the pre-image of a thread's store buffer
  /// and flush counter on the first mutation of either after a capture —
  /// the store-buffer twin of ObjectUndo.
  struct BufferUndo {
    int tid = -1;
    std::uint32_t flushCount = 0;
    std::vector<StoreBufferEntry> entries;
  };

  /// Run tid's fiber until it publishes its next operation or finishes.
  void advance(int tid);

  /// Append a thread record whose fiber runs `entry`: a retired record with
  /// its fiber re-armed on the stack it owns, or a new one.
  ThreadRec& addThread(std::function<void()> entry);
  /// Retire the thread records past `count` (their fibers finished or
  /// abandoned) to spareThreads_, keeping each one's fiber, stack and
  /// store-buffer capacity and resetting the rest.
  void retireThreadsAbove(std::size_t count);
  /// Append an object-table entry, reusing a retired entry's name and
  /// waiter capacity.
  ObjectInfo& addObject(Uid uid, ObjectKind kind, std::string_view name,
                        std::uint64_t valueHash, std::int64_t a);
  /// Retire the object-table entries past `count` to spareObjects_.
  void retireObjectsAbove(std::size_t count);

  /// Run fibers a resumable run left suspended forward to their end
  /// (deferred teardown; destructor and restart()).
  void finishDeferredTeardown();

  /// The scheduling loop shared by run() and resume().
  void driveLoop(Scheduler& scheduler);

  /// Common tail of run()/resume(): end-state bound, teardown (unless
  /// resumable), observer notification.
  Outcome finishRun();

  /// Yield the current fiber until the scheduler grants its pending op.
  void publishAndPark(OpKind kind, std::int32_t object, std::int32_t mutexObject,
                      int targetThread, std::uint64_t aux);

  /// True when an operation of `kind` can be disabled at a scheduling
  /// point (isEnabled may return false for it): blocking acquires and
  /// joins, and under TSO every kind but Read, Write and Yield, which wait
  /// for the issuer's store buffer to drain.
  [[nodiscard]] bool canBlock(OpKind kind) const noexcept {
    switch (kind) {
      case OpKind::Lock:
      case OpKind::Reacquire:
      case OpKind::SemAcquire:
      case OpKind::Join:
        return true;
      case OpKind::Read:
      case OpKind::Write:
      case OpKind::Yield:
        return false;
      default:
        return tso_;
    }
  }

  /// Enter `tid`, whose operation was just published, into the ready set,
  /// and into the blocking subset when its operation can block.
  void markReady(int tid) {
    ready_.insert(tid);
    if (canBlock(threads_[static_cast<std::size_t>(tid)].pendingOp.kind)) {
      blocking_.insert(tid);
    }
  }

  /// Append a committed event for the current thread and notify observers.
  /// Returns the event's global index. `valueOverride`, when non-null,
  /// supplies the event's valueHash instead of the object's memory value —
  /// TSO needs it for buffered writes (memory untouched) and forwarded
  /// reads (observed value is the buffer's, not memory's).
  std::int32_t recordEvent(OpKind kind, std::int32_t object,
                           std::int32_t mutexObject, std::uint64_t aux,
                           const std::uint64_t* valueOverride = nullptr);

  // --- TSO store-buffer machinery (all no-ops / unreachable under SC) -------

  /// Commit a flush pick: pop the oldest buffered store of `tid` into
  /// memory and record the Flush event under the thread's flush agent.
  void commitFlush(int tid);

  /// varCommit's TSO path: buffered Write (fills the staged entry's hash,
  /// memory untouched, event aux=1), forwarded Read (event carries the
  /// forwarded-or-memory value), or write-through (Rmw, non-resident
  /// Write).
  void varCommitTso(std::int32_t object, OpKind kind, std::uint64_t newValueHash);

  /// Out-of-line slow path of varBits(): newest matching own-buffer entry,
  /// else memory.
  [[nodiscard]] std::int64_t varBitsTso(std::int32_t object) const noexcept;

  /// setVarBits's TSO hook: returns true when the bits were staged into the
  /// calling thread's store buffer (granted Write on an engine-resident
  /// Shared<T>); false directs the caller to write through.
  bool stageStoreTso(std::int32_t object, std::int64_t bits);

  /// Undo-log hooks, called before every mutation of an object's state or
  /// a thread's store buffer: the first touch per epoch logs the
  /// pre-image; no-ops until the first capture.
  void touchObject(std::int32_t index) {
    ObjectInfo& o = objects_[static_cast<std::size_t>(index)];
    if (objectUndo_.firstTouch(o.epoch)) logObject(index, o);
  }
  void touchBuffer(int tid) {
    ThreadRec& t = threads_[static_cast<std::size_t>(tid)];
    if (bufferUndo_.firstTouch(t.bufferEpoch)) logBuffer(tid, t);
  }
  void logObject(std::int32_t index, const ObjectInfo& o);
  void logBuffer(int tid, const ThreadRec& t);

  [[nodiscard]] support::ThreadSet buildEnabled() const;
  [[nodiscard]] bool isEnabled(const ThreadRec& t) const;
  [[nodiscard]] bool allFinished() const;
  void teardownUnfinished();
  void consumeTeardownFuel();
  /// Fill or clear violation_ in place (its buffers keep their capacity).
  void recordViolation(Outcome kind, std::string_view message);
  void clearViolation() noexcept {
    violation_.kind = Outcome::Terminal;
    violation_.message.clear();
    violation_.schedule.clear();
  }
  void parkForViolation();
  void failUsage(std::string message);

  Config config_;
  StackPool& stackPool_;
  ExecutionObserver* observer_;
  /// Cached config_.memoryModel == Tso: varBits sits on the hot path of
  /// every Shared<T> access, so the SC fast path tests one bool.
  bool tso_ = false;

  std::vector<ThreadRec> threads_;
  std::vector<ObjectInfo> objects_;
  std::vector<EventRecord> events_;
  std::vector<int> choices_;
  /// Records retired by restart() or a rollback, newest last: the next
  /// thread or object at index i reuses the one last retired from index i.
  std::vector<ThreadRec> spareThreads_;
  std::vector<ObjectInfo> spareObjects_;

  int currentThread_ = -1;
  bool ran_ = false;
  bool done_ = false;
  bool abandoning_ = false;
  bool resumable_ = false;
  /// Scheduler::pick is running: enabled() returns pickEnabled_.
  bool picking_ = false;
  support::ThreadSet pickEnabled_;
  /// The enabled set, kept up to date instead of scanned for at every
  /// pick: threads with a published, ungranted operation (entered by
  /// publishAndPark and a condvar wake-up, left at the grant); the subset
  /// of them whose operation can block (canBlock), the only ones
  /// buildEnabled re-checks; and under TSO the flush picks, one per thread
  /// with buffered stores (stageStoreTso, commitFlush). restore() rebuilds
  /// all three from the restored thread table.
  support::ThreadSet ready_;
  support::ThreadSet blocking_;
  support::ThreadSet flushPicks_;
  std::uint32_t teardownFuel_ = 0;
  Outcome outcome_ = Outcome::Terminal;
  Violation violation_;
  /// objects_.size() when the run ended: objects a teardown registers are
  /// not part of the end state stateFingerprint() describes.
  std::size_t endObjectCount_ = 0;

  // Resumable mode: the latest captured image per thread, and the undo
  // logs captures mark and restores roll back (the buffer log stays empty
  // under SC).
  std::vector<ImageCacheEntry> imageCache_;  // per thread, advanceCount-keyed
  support::UndoLog<ObjectUndo> objectUndo_;
  support::UndoLog<BufferUndo> bufferUndo_;

  // --- TSO state (quiescent under SC) ---------------------------------------

  /// Set by stageStoreTso, consumed by varCommit: the granted Write between
  /// them staged a buffer entry (no scheduling point separates the two, so
  /// one flag — not per-thread state — suffices).
  bool stagedStore_ = false;
  /// Backing storage for pending() on flush picks (synthesized per call).
  mutable PendingOp flushScratch_;
  std::uint64_t flushEvents_ = 0;
  std::uint64_t fenceEvents_ = 0;
  std::uint32_t maxBufferedStores_ = 0;
};

/// One captured scheduling point of a resumable execution. Object state is
/// not copied: the undo-log marks remember where the logs stood, and a
/// restore replays the entries above them backwards. Default-constructed
/// empty; capture() refills one in place, keeping its storage.
class Execution::Snapshot {
 public:
  /// Drop the fiber images now, keeping the rest of the storage for reuse
  /// (a pooled snapshot would otherwise keep them alive until recaptured).
  void release() noexcept {
    for (ThreadSnapshot& ts : threads) ts.image = nullptr;
  }

 private:
  friend class Execution;
  std::size_t depth = 0;  ///< events_.size() == choices_.size()
  std::size_t threadCount = 0;
  std::size_t objectCount = 0;
  std::size_t objectUndoMark = 0;
  std::size_t bufferUndoMark = 0;
  std::uint64_t flushEvents = 0;  ///< TSO stat counters at capture time
  std::uint64_t fenceEvents = 0;
  std::uint32_t maxBufferedStores = 0;
  std::vector<ThreadSnapshot> threads;
};

}  // namespace lazyhb::runtime
