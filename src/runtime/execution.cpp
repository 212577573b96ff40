#include "runtime/execution.hpp"

#include <exception>
#include <utility>

#include "support/diagnostics.hpp"

namespace lazyhb::runtime {

namespace {
/// The execution owning the currently running fiber on this OS thread.
thread_local Execution* g_current = nullptr;
}  // namespace

Execution* Execution::current() noexcept { return g_current; }

Execution::Execution(const Config& config, StackPool& stackPool,
                     ExecutionObserver* observer)
    : config_(config),
      stackPool_(stackPool),
      observer_(observer),
      tso_(config.memoryModel == memory::MemoryModel::Tso) {}

Execution::~Execution() {
  finishDeferredTeardown();
  // Otherwise run() tears all fibers down before returning; if run() was
  // never called there are no fibers.
  for (const auto& t : threads_) {
    LAZYHB_CHECK(!t.fiber || t.fiber->finished());
  }
}

void Execution::finishDeferredTeardown() {
  // In resumable mode end-of-run teardown is deferred (fibers stay restorable
  // between schedules); run whatever is left forward now so destructors in
  // the program under test execute normally.
  if (!resumable_ || !ran_ || abandoning_) return;
  LAZYHB_CHECK(g_current == nullptr);
  g_current = this;
  teardownUnfinished();
  g_current = nullptr;
}

void Execution::restart(const Config& config, ExecutionObserver* observer) {
  LAZYHB_CHECK(g_current == nullptr);
  finishDeferredTeardown();
  config_ = config;
  observer_ = observer;
  tso_ = config.memoryModel == memory::MemoryModel::Tso;

  retireThreadsAbove(0);
  retireObjectsAbove(0);
  events_.clear();
  choices_.clear();

  currentThread_ = -1;
  ran_ = false;
  done_ = false;
  resumable_ = false;
  picking_ = false;
  pickEnabled_ = support::ThreadSet{};
  ready_.clear();
  blocking_.clear();
  flushPicks_.clear();
  teardownFuel_ = 0;
  outcome_ = Outcome::Terminal;
  clearViolation();

  // Every snapshot of the previous run is dead: the undo logs stop logging
  // until the next capture, their entries keeping their capacity.
  imageCache_.clear();
  objectUndo_.clear();
  bufferUndo_.clear();
  stagedStore_ = false;
  flushEvents_ = 0;
  fenceEvents_ = 0;
  maxBufferedStores_ = 0;
}

void Execution::enableResumable() {
  LAZYHB_CHECK(!ran_);
  LAZYHB_CHECK(checkpointingSupported());
  resumable_ = true;
}

Outcome Execution::run(const std::function<void()>& body, Scheduler& scheduler) {
  LAZYHB_CHECK(!ran_);
  ran_ = true;
  LAZYHB_CHECK(g_current == nullptr);
  g_current = this;

  if (observer_ != nullptr) observer_->onExecutionStart(*this);

  // Thread 0 runs the test body. It doubles as an object so that spawn/join
  // events targeting it have an identity; the root UID is a fixed constant.
  {
    const ObjectInfo& rootObj =
        addObject(kRootThreadUid, ObjectKind::Thread, "main", 0, 0);
    if (observer_ != nullptr) {
      observer_->onObjectRegistered(*this, 0, kRootThreadUid, ObjectKind::Thread,
                                    rootObj.name, 0);
    }
    ThreadRec& root = addThread([&body] { body(); });
    root.uid = kRootThreadUid;
    root.objectIndex = 0;
  }
  advance(0);
  driveLoop(scheduler);
  return finishRun();
}

Outcome Execution::resume(Scheduler& scheduler) {
  LAZYHB_CHECK(ran_ && resumable_ && !done_);
  LAZYHB_CHECK(g_current == nullptr);
  g_current = this;
  driveLoop(scheduler);
  return finishRun();
}

void Execution::driveLoop(Scheduler& scheduler) {
  for (;;) {
    if (violation_.kind != Outcome::Terminal) {
      outcome_ = violation_.kind;
      break;
    }
    if (events_.size() >= config_.maxEventsPerSchedule) {
      outcome_ = Outcome::EventLimit;
      break;
    }
    pickEnabled_ = buildEnabled();
    if (pickEnabled_.empty()) {
      if (allFinished()) {
        outcome_ = Outcome::Terminal;
      } else {
        outcome_ = Outcome::Deadlock;
        recordViolation(Outcome::Deadlock, "deadlock; blocked threads:");
        for (int tid = 0; tid < threadCount(); ++tid) {
          if (threads_[static_cast<std::size_t>(tid)].status != ThreadStatus::Finished) {
            violation_.message += ' ';
            violation_.message += std::to_string(tid);
          }
        }
      }
      break;
    }
    picking_ = true;
    const int pick = scheduler.pick(*this);
    picking_ = false;
    if (pick == Scheduler::kAbandon) {
      outcome_ = Outcome::Abandoned;
      break;
    }
    LAZYHB_CHECK(pickEnabled_.contains(pick));
    choices_.push_back(pick);
    if (tso_ && memory::isFlushPick(pick)) {
      // A flush pick commits an event without resuming any fiber: the
      // oldest buffered store of the designated thread lands in memory.
      commitFlush(memory::flushPickOwner(pick));
    } else {
      // The grant: the thread leaves the ready set until it publishes again.
      ready_.erase(pick);
      blocking_.erase(pick);
      advance(pick);
    }
  }
}

Outcome Execution::finishRun() {
  endObjectCount_ = objects_.size();
  done_ = true;
  // Resumable executions stay restorable: teardown is deferred until the
  // destructor (or never needed, when the schedule ended with every fiber
  // finished naturally).
  if (!resumable_) teardownUnfinished();
  if (observer_ != nullptr) observer_->onExecutionEnd(*this, outcome_);
  g_current = nullptr;
  return outcome_;
}

std::size_t Execution::capture(Snapshot& s) {
  // Only legal at a scheduling point: the host loop is asking the scheduler
  // for a pick, so every fiber is suspended at its publish/park site.
  LAZYHB_CHECK(resumable_ && !done_ && currentThread_ == -1);
  s.depth = events_.size();
  LAZYHB_CHECK(choices_.size() == s.depth);
  s.threadCount = threads_.size();
  s.objectCount = objects_.size();
  if (s.threads.size() < s.threadCount) s.threads.resize(s.threadCount);
  if (imageCache_.size() < threads_.size()) imageCache_.resize(threads_.size());
  std::size_t bytes = sizeof(Snapshot);
  for (std::size_t i = 0; i < s.threadCount; ++i) {
    const ThreadRec& t = threads_[i];
    ThreadSnapshot& ts = s.threads[i];
    ts.status = t.status;
    ts.pendingOp = t.pendingOp;
    ts.eventsExecuted = t.eventsExecuted;
    ts.creationSeq = t.creationSeq;
    ts.advanceCount = t.advanceCount;
    ts.spawnPredecessor = t.spawnPredecessor;
    ts.signalPredecessor = t.signalPredecessor;
    ts.joinPredecessor = t.joinPredecessor;
    ts.lastEventIndex = t.lastEventIndex;
    bytes += sizeof(ThreadSnapshot);
    if (t.status == ThreadStatus::Finished) {
      // A finished thread never runs again on any suffix of this prefix;
      // its continuation is irrelevant and its stack bytes stay dead.
      ts.image = nullptr;
      continue;
    }
    // Image sharing: the stack only changes when the fiber is advanced, so
    // a cached image at the same advanceCount is byte-identical — only the
    // (usually one) thread that moved since the last capture is copied.
    ImageCacheEntry& cached = imageCache_[i];
    if (cached.version != t.advanceCount || cached.image == nullptr) {
      auto image = std::make_shared<ThreadImage>();
      t.fiber->snapshotTo(image->fiber);
      image->pendingSpawnFn = t.pendingSpawnFn;
      cached.version = t.advanceCount;
      cached.image = std::move(image);
    }
    ts.image = cached.image;
    bytes += sizeof(ThreadImage) + ts.image->fiber.bytes.size();
  }
  // Object state and store buffers are not copied: the logs above the marks
  // are this snapshot's pre-image, and the fresh epochs the marks open make
  // the next write to anything log it again. The stat counters are tiny
  // scalars, copied outright so replayed prefixes report the same totals
  // regardless of how they were reached.
  s.objectUndoMark = objectUndo_.mark();
  s.bufferUndoMark = bufferUndo_.mark();
  s.flushEvents = flushEvents_;
  s.fenceEvents = fenceEvents_;
  s.maxBufferedStores = maxBufferedStores_;
  return bytes;
}

void Execution::logObject(std::int32_t index, const ObjectInfo& o) {
  ObjectUndo& u = objectUndo_.append();
  u.index = index;
  u.valueHash = o.valueHash;
  u.a = o.a;
  u.waiters.assign(o.waiters.begin(), o.waiters.end());
}

void Execution::logBuffer(int tid, const ThreadRec& t) {
  BufferUndo& u = bufferUndo_.append();
  u.tid = tid;
  u.flushCount = t.flushCount;
  u.entries.assign(t.storeBuffer.begin(), t.storeBuffer.end());
}

void Execution::restore(const Snapshot& s) {
  LAZYHB_CHECK(resumable_ && ran_ && done_);
  LAZYHB_CHECK(g_current == nullptr);
  LAZYHB_CHECK(s.depth <= events_.size());

  // Store buffers roll back before the thread truncation below: an undo
  // entry can name a thread spawned past the snapshot, whose rec must
  // still be addressable while its (empty) pre-image is applied. Swaps
  // consume each entry and keep its vector's capacity pooled.
  bufferUndo_.rollBack(s.bufferUndoMark, [this](BufferUndo& u) {
    ThreadRec& t = threads_[static_cast<std::size_t>(u.tid)];
    t.storeBuffer.swap(u.entries);
    t.flushCount = u.flushCount;
  });
  flushEvents_ = s.flushEvents;
  fenceEvents_ = s.fenceEvents;
  maxBufferedStores_ = s.maxBufferedStores;

  // Threads spawned past the snapshot are discarded outright: their stacks
  // are dropped as raw bytes (checkpointable-program contract), and their
  // records retire with their fibers for the next spawn to re-arm.
  for (std::size_t i = s.threadCount; i < threads_.size(); ++i) {
    threads_[i].fiber->abandonForRollback();
  }
  retireThreadsAbove(s.threadCount);
  if (imageCache_.size() > threads_.size()) imageCache_.resize(threads_.size());
  for (std::size_t i = 0; i < s.threadCount; ++i) {
    ThreadRec& t = threads_[i];
    const ThreadSnapshot& ts = s.threads[i];
    t.status = ts.status;
    t.pendingOp = ts.pendingOp;
    t.eventsExecuted = ts.eventsExecuted;
    t.creationSeq = ts.creationSeq;
    t.spawnPredecessor = ts.spawnPredecessor;
    t.signalPredecessor = ts.signalPredecessor;
    t.joinPredecessor = ts.joinPredecessor;
    t.lastEventIndex = ts.lastEventIndex;
    if (ts.status == ThreadStatus::Finished) {
      t.fiber->abandonForRollback();  // stays finished
      t.advanceCount = ts.advanceCount;
      continue;
    }
    if (t.advanceCount == ts.advanceCount) {
      // The thread has not been advanced since this snapshot was taken:
      // its stack (and spawn slot) are already exactly the snapshot state.
      LAZYHB_ASSERT(!t.fiber->finished());
      continue;
    }
    t.fiber->restoreFrom(ts.image->fiber);
    t.pendingSpawnFn = ts.image->pendingSpawnFn;  // copy; snapshot stays reusable
    t.advanceCount = ts.advanceCount;
    // The cached image (if any) was taken further along the abandoned
    // suffix; at this advanceCount it is only valid if it *is* this
    // snapshot's image.
    if (imageCache_[i].version != ts.advanceCount) {
      imageCache_[i] = ImageCacheEntry{};
    }
  }

  // Replay the object log backwards to the mark, then drop the objects
  // registered past the snapshot. Replay-before-truncate order matters:
  // entries can reference indices >= s.objectCount (objects that existed
  // under a deeper snapshot), which must still be addressable while their
  // pre-images are applied — the retirement then discards them.
  objectUndo_.rollBack(s.objectUndoMark, [this](ObjectUndo& u) {
    ObjectInfo& o = objects_[static_cast<std::size_t>(u.index)];
    o.valueHash = u.valueHash;
    o.a = u.a;
    o.waiters.swap(u.waiters);
  });
  retireObjectsAbove(s.objectCount);

  // The maintained enabled sets, rebuilt from the restored thread table and
  // store buffers.
  ready_.clear();
  blocking_.clear();
  flushPicks_.clear();
  for (int tid = 0; tid < static_cast<int>(s.threadCount); ++tid) {
    const ThreadRec& t = threads_[static_cast<std::size_t>(tid)];
    if (t.status == ThreadStatus::Pending && t.pendingOp.valid) markReady(tid);
    if (!t.storeBuffer.empty()) flushPicks_.insert(memory::kFlushPickOffset + tid);
  }

  events_.resize(s.depth);
  choices_.resize(s.depth);
  done_ = false;
  outcome_ = Outcome::Terminal;
  clearViolation();
  teardownFuel_ = 0;
  LAZYHB_CHECK(!abandoning_);
}

Execution::ThreadRec& Execution::addThread(std::function<void()> entry) {
  if (spareThreads_.empty()) {
    threads_.emplace_back();
    threads_.back().fiber = std::make_unique<Fiber>(stackPool_, std::move(entry));
  } else {
    threads_.push_back(std::move(spareThreads_.back()));
    spareThreads_.pop_back();
    threads_.back().fiber->rearm(std::move(entry));
  }
  return threads_.back();
}

void Execution::retireThreadsAbove(std::size_t count) {
  while (threads_.size() > count) {
    ThreadRec& t = threads_.back();
    ThreadRec spare;
    spare.fiber = std::move(t.fiber);
    spare.fiber->disarm();
    spare.storeBuffer = std::move(t.storeBuffer);
    spare.storeBuffer.clear();
    threads_.pop_back();
    spareThreads_.push_back(std::move(spare));
  }
}

ObjectInfo& Execution::addObject(Uid uid, ObjectKind kind, std::string_view name,
                                 std::uint64_t valueHash, std::int64_t a) {
  if (spareObjects_.empty()) {
    objects_.emplace_back();
  } else {
    objects_.push_back(std::move(spareObjects_.back()));
    spareObjects_.pop_back();
  }
  ObjectInfo& o = objects_.back();
  o.uid = uid;
  o.kind = kind;
  o.name.assign(name);
  o.valueHash = valueHash;
  o.a = a;
  o.waiters.clear();
  o.epoch = 0;
  return o;
}

void Execution::retireObjectsAbove(std::size_t count) {
  while (objects_.size() > count) {
    spareObjects_.push_back(std::move(objects_.back()));
    objects_.pop_back();
  }
}

void Execution::advance(int tid) {
  const int previous = currentThread_;
  currentThread_ = tid;
  ++threads_[static_cast<std::size_t>(tid)].advanceCount;
  threads_[static_cast<std::size_t>(tid)].fiber->resume();
  if (threads_[static_cast<std::size_t>(tid)].fiber->finished()) {
    threads_[static_cast<std::size_t>(tid)].status = ThreadStatus::Finished;
  }
  currentThread_ = previous;
}

void Execution::publishAndPark(OpKind kind, std::int32_t object,
                               std::int32_t mutexObject, int targetThread,
                               std::uint64_t aux) {
  // During teardown, visible operations are granted immediately as no-ops:
  // the schedule's end state is fixed and nothing observes the execution
  // any more. This lets fibers run forward to the end of their entry
  // function with destructors executing in ordinary contexts (unwinding
  // with an exception would std::terminate when the suspension point is
  // inside a destructor, e.g. a lock guard publishing its unlock).
  if (abandoning_) {
    consumeTeardownFuel();
    return;
  }
  ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
  LAZYHB_CHECK(me.status == ThreadStatus::Pending && !me.pendingOp.valid);
  me.pendingOp = PendingOp{true, kind, object, mutexObject, targetThread, aux};
  markReady(currentThread_);
  me.fiber->yieldToHost();
  // Woken. Either the scheduler granted the operation, or the execution is
  // being torn down (in which case the operation is a no-op for the caller).
  threads_[static_cast<std::size_t>(currentThread_)].pendingOp.valid = false;
  if (abandoning_) {
    consumeTeardownFuel();
  }
}

void Execution::consumeTeardownFuel() {
  // A fiber looping over visible operations (e.g. a condvar predicate loop
  // whose waits are now no-ops) would run forward forever; after a per-fiber
  // budget, fall back to unwinding it. While that unwinding is in flight,
  // operations issued by destructors must stay silent no-ops — throwing
  // again from inside a destructor would terminate the process.
  if (teardownFuel_ > 0) {
    --teardownFuel_;
    return;
  }
  if (std::uncaught_exceptions() > 0) {
    return;  // already unwinding this fiber; let destructors finish
  }
  throw AbandonExecution{};
}

std::int32_t Execution::recordEvent(OpKind kind, std::int32_t object,
                                    std::int32_t mutexObject, std::uint64_t aux,
                                    const std::uint64_t* valueOverride) {
  if (abandoning_) return -1;  // teardown-time operations are not events
  ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
  const auto index = static_cast<std::int32_t>(events_.size());
  EventRecord& event = events_.emplace_back();
  event.threadIndex = currentThread_;
  event.indexInThread = me.eventsExecuted++;
  event.kind = kind;
  event.aux = aux;
  event.threadUid = me.uid;
  if (object >= 0) {
    const ObjectInfo& obj = objects_[static_cast<std::size_t>(object)];
    event.objectUid = obj.uid;
    event.objectIndex = object;
    if (obj.kind == ObjectKind::Var) {
      event.valueHash = valueOverride != nullptr ? *valueOverride : obj.valueHash;
    }
  }
  if (mutexObject >= 0) {
    event.mutexUid = objects_[static_cast<std::size_t>(mutexObject)].uid;
    event.mutexIndex = mutexObject;
  }
  if (event.indexInThread == 0) {
    event.spawnPredecessor = me.spawnPredecessor;
  }
  if (kind == OpKind::Reacquire) {
    event.signalPredecessor = me.signalPredecessor;
    me.signalPredecessor = -1;
  }
  if (kind == OpKind::Join) {
    event.joinPredecessor = me.joinPredecessor;
    me.joinPredecessor = -1;
  }
  me.lastEventIndex = index;
  if (observer_ != nullptr) observer_->onEvent(*this, event);
  return index;
}

support::ThreadSet Execution::buildEnabled() const {
  // A ready thread whose operation cannot block is enabled as it stands;
  // only the blocking subset is checked against the object table. Flush
  // picks are independent of the owner thread's status, so a thread that
  // finished (or parked) with buffered stores still gets them drained
  // before the run can end.
  support::ThreadSet result = ready_.minus(blocking_).unionWith(flushPicks_);
  for (const int tid : blocking_) {
    if (isEnabled(threads_[static_cast<std::size_t>(tid)])) result.insert(tid);
  }
  return result;
}

bool Execution::isEnabled(const ThreadRec& t) const {
  const PendingOp& op = t.pendingOp;
  if (tso_) {
    // TSO ordering gates. Everything except plain loads, stores and pure
    // yields acts as a full fence (on real hardware these are locked
    // instructions or syscalls), so it commits only once the issuing
    // thread's buffer has drained — the scheduler must interleave the
    // flush picks first.
    switch (op.kind) {
      case OpKind::Read:
      case OpKind::Write:
      case OpKind::Yield:
        break;
      default:
        if (!t.storeBuffer.empty()) return false;
        break;
    }
    // Join additionally waits for the *target's* buffered stores to land:
    // everything a finished thread wrote is visible to its joiner.
    if (op.kind == OpKind::Join &&
        !threads_[static_cast<std::size_t>(op.targetThread)].storeBuffer.empty()) {
      return false;
    }
  }
  switch (op.kind) {
    case OpKind::Lock:
    case OpKind::Reacquire: {
      const std::int32_t m = op.kind == OpKind::Lock ? op.object : op.mutexObject;
      return objects_[static_cast<std::size_t>(m)].a == -1;
    }
    case OpKind::SemAcquire:
      return objects_[static_cast<std::size_t>(op.object)].a > 0;
    case OpKind::Join:
      return threads_[static_cast<std::size_t>(op.targetThread)].status ==
             ThreadStatus::Finished;
    default:
      return true;
  }
}

bool Execution::allFinished() const {
  for (const auto& t : threads_) {
    if (t.status != ThreadStatus::Finished) return false;
  }
  return true;
}

const PendingOp& Execution::pending(int tid) const {
  if (tso_ && memory::isFlushPick(tid)) {
    // Synthesize the operation a flush pick would commit: a Flush of the
    // object at the head of the owner's buffer (an invalid op when the
    // buffer is empty — callers sweep the whole pick range). Scratch-backed
    // so callers get the usual reference semantics without an allocation.
    const ThreadRec& owner =
        threads_[static_cast<std::size_t>(memory::flushPickOwner(tid))];
    if (owner.storeBuffer.empty()) {
      flushScratch_ = PendingOp{};
    } else {
      flushScratch_ = PendingOp{true, OpKind::Flush,
                                owner.storeBuffer.front().object, -1, -1, 0};
    }
    return flushScratch_;
  }
  if (tso_ && static_cast<std::size_t>(tid) >= threads_.size()) {
    // The pick range under TSO is [0, kFlushPickOffset + threadCount()),
    // but real threads occupy only its first threadCount() slots: picks in
    // the gap up to the flush offset name no thread. Callers sweeping the
    // whole range (the DPOR backtrack analysis) must see them as invalid
    // operations, not index past the thread table.
    flushScratch_ = PendingOp{};
    return flushScratch_;
  }
  return threads_[static_cast<std::size_t>(tid)].pendingOp;
}

bool Execution::threadFinished(int tid) const {
  return threads_[static_cast<std::size_t>(tid)].status == ThreadStatus::Finished;
}

Uid Execution::threadUid(int tid) const {
  return threads_[static_cast<std::size_t>(tid)].uid;
}

const ObjectInfo& Execution::object(std::int32_t index) const {
  return objects_[static_cast<std::size_t>(index)];
}

support::Hash128 Execution::stateFingerprint() const {
  // Teardown mutates no fingerprinted state (every mutator returns early
  // while abandoning_), but a fiber run forward may still register objects:
  // the schedule's end state is the first endObjectCount_ of them.
  const std::size_t objectCount = done_ ? endObjectCount_ : objects_.size();
  support::MultisetHash acc;
  for (std::size_t i = 0; i < objectCount; ++i) {
    const ObjectInfo& obj = objects_[i];
    switch (obj.kind) {
      case ObjectKind::Var:
        acc.add(support::hash128(obj.uid, obj.valueHash));
        break;
      case ObjectKind::Mutex: {
        const std::uint64_t owner =
            obj.a == -1 ? 0 : threads_[static_cast<std::size_t>(obj.a)].uid;
        acc.add(support::hash128(obj.uid ^ 0xA5A5A5A5ULL, owner));
        break;
      }
      case ObjectKind::Semaphore:
        acc.add(support::hash128(obj.uid ^ 0x5A5A5A5AULL,
                                 static_cast<std::uint64_t>(obj.a)));
        break;
      case ObjectKind::CondVar:
      case ObjectKind::Thread:
        break;  // no observable terminal state of their own
    }
  }
  if (tso_) {
    // Live store buffers are part of the machine state: two mid-run states
    // with the same memory but different in-flight stores are not the same
    // state. Terminal states always have empty buffers (flush picks stay
    // enabled until drained), so terminal fingerprints match SC's shape.
    for (const ThreadRec& t : threads_) {
      std::uint64_t position = 0;
      for (const StoreBufferEntry& e : t.storeBuffer) {
        acc.add(support::hash128(
            t.uid ^ support::mix64(0xB0FFULL + position),
            objects_[static_cast<std::size_t>(e.object)].uid ^
                support::mix64(e.valueHash)));
        ++position;
      }
    }
  }
  return acc.digest();
}

std::int32_t Execution::registerObject(ObjectKind kind, const char* name,
                                       std::uint64_t initialValueHash,
                                       std::int64_t initialA) {
  LAZYHB_CHECK(currentThread_ >= 0);
  ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
  const Uid uid = deriveUid(me.uid, me.creationSeq++, kind);
  const auto index = static_cast<std::int32_t>(objects_.size());
  const ObjectInfo& stored = addObject(uid, kind, name != nullptr ? name : "",
                                       initialValueHash, initialA);
  if (observer_ != nullptr) {
    observer_->onObjectRegistered(*this, index, stored.uid, kind, stored.name,
                                  stored.valueHash);
  }
  return index;
}

void Execution::varPublish(std::int32_t object, OpKind kind) {
  LAZYHB_CHECK(kind == OpKind::Read || kind == OpKind::Write || kind == OpKind::Rmw);
  publishAndPark(kind, object, -1, -1, 0);
}

void Execution::varCommit(std::int32_t object, OpKind kind,
                          std::uint64_t newValueHash) {
  // A teardown-time store still lands in the value bits (setVarBits), so the
  // fiber runs forward on the values it wrote; its hash is not an event.
  if (abandoning_) return;
  if (tso_) {
    varCommitTso(object, kind, newValueHash);
    return;
  }
  if (kind != OpKind::Read) {
    touchObject(object);
    objects_[static_cast<std::size_t>(object)].valueHash = newValueHash;
  }
  recordEvent(kind, object, -1, 0);
}

void Execution::varCommitTso(std::int32_t object, OpKind kind,
                             std::uint64_t newValueHash) {
  ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
  if (stagedStore_) {
    // setVarBits staged this store into the buffer instead of memory; all
    // that is missing is the value hash (bits were available to setVarBits,
    // the hash only to us). The event's aux=1 marks it buffered and its
    // valueHash carries the enqueued value — memory stays untouched until
    // the matching flush pick.
    stagedStore_ = false;
    LAZYHB_CHECK(kind == OpKind::Write && !me.storeBuffer.empty() &&
                 me.storeBuffer.back().object == object);
    me.storeBuffer.back().valueHash = newValueHash;
    recordEvent(kind, object, -1, 1, &newValueHash);
    return;
  }
  if (kind == OpKind::Read) {
    // Store-to-load forwarding: a load observes the *newest* matching entry
    // of its own buffer, memory only when no entry matches. The event's
    // valueHash records the observed value either way.
    std::uint64_t observed = objects_[static_cast<std::size_t>(object)].valueHash;
    for (auto it = me.storeBuffer.rbegin(); it != me.storeBuffer.rend(); ++it) {
      if (it->object == object) {
        observed = it->valueHash;
        break;
      }
    }
    recordEvent(kind, object, -1, 0, &observed);
    return;
  }
  // Write-through: an Rmw (empty-buffer-gated, so it is atomic against the
  // buffer) or a store to a non-engine-resident Shared<T> (documented SC
  // escape — its bytes live in the wrapper, not the engine, so there is no
  // buffer slot to stage into).
  touchObject(object);
  objects_[static_cast<std::size_t>(object)].valueHash = newValueHash;
  recordEvent(kind, object, -1, 0);
}

bool Execution::stageStoreTso(std::int32_t object, std::int64_t bits) {
  if (abandoning_ || currentThread_ < 0) return false;
  ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
  // Only the commit half of a granted Write stages; every other caller of
  // setVarBits (Rmw commit, initialization) writes through.
  if (me.pendingOp.kind != OpKind::Write || me.pendingOp.object != object ||
      me.pendingOp.valid) {
    return false;
  }
  touchBuffer(currentThread_);
  me.storeBuffer.push_back(StoreBufferEntry{object, bits, 0});
  flushPicks_.insert(memory::kFlushPickOffset + currentThread_);
  const auto depth = static_cast<std::uint32_t>(me.storeBuffer.size());
  if (depth > maxBufferedStores_) maxBufferedStores_ = depth;
  stagedStore_ = true;
  return true;
}

std::int64_t Execution::varBitsTso(std::int32_t object) const noexcept {
  if (currentThread_ >= 0) {
    const ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
    for (auto it = me.storeBuffer.rbegin(); it != me.storeBuffer.rend(); ++it) {
      if (it->object == object) return it->bits;
    }
  }
  return objects_[static_cast<std::size_t>(object)].a;
}

void Execution::commitFlush(int tid) {
  ThreadRec& t = threads_[static_cast<std::size_t>(tid)];
  LAZYHB_CHECK(!t.storeBuffer.empty());
  touchBuffer(tid);
  const StoreBufferEntry entry = t.storeBuffer.front();
  t.storeBuffer.erase(t.storeBuffer.begin());
  if (t.storeBuffer.empty()) flushPicks_.erase(memory::kFlushPickOffset + tid);
  touchObject(entry.object);
  ObjectInfo& obj = objects_[static_cast<std::size_t>(entry.object)];
  obj.a = entry.bits;
  obj.valueHash = entry.valueHash;
  ++flushEvents_;

  // The flush event is committed host-side — no fiber runs. It carries the
  // flush *agent's* identity (threadUid derived from, but distinct from,
  // the owner's; threadIndex in the flush-pick range) and its own per-agent
  // event counter, so labels stay schedule-invariant and program order among
  // one thread's flushes mirrors the buffer's FIFO discipline.
  EventRecord& event = events_.emplace_back();
  event.threadIndex = memory::kFlushPickOffset + tid;
  event.indexInThread = t.flushCount++;
  event.kind = OpKind::Flush;
  event.threadUid = memory::flushAgentUid(t.uid);
  event.objectUid = obj.uid;
  event.objectIndex = entry.object;
  event.valueHash = entry.valueHash;
  if (observer_ != nullptr) observer_->onEvent(*this, event);
}

void Execution::fenceNow() {
  publishAndPark(OpKind::Fence, -1, -1, -1, 0);
  if (abandoning_) return;
  // Under TSO the grant itself is the guarantee: Fence is enabled only once
  // the caller's buffer is empty (isEnabled), so there is nothing to drain
  // here. Under SC it is a Yield-like event, so fenced programs produce
  // comparable traces under both models.
  LAZYHB_CHECK(!tso_ ||
               threads_[static_cast<std::size_t>(currentThread_)].storeBuffer.empty());
  recordEvent(OpKind::Fence, -1, -1, 0);
  // The TSO stat block stays all-zero under SC (a fence is a plain yield
  // there), so SC reports carry no tso cells at all.
  if (tso_) ++fenceEvents_;
}

void Execution::mutexLock(std::int32_t object) {
  publishAndPark(OpKind::Lock, object, -1, -1, 0);
  if (abandoning_) return;
  ObjectInfo& m = objects_[static_cast<std::size_t>(object)];
  LAZYHB_CHECK(m.a == -1);  // the scheduler only grants lock when free
  touchObject(object);
  m.a = currentThread_;
  recordEvent(OpKind::Lock, object, -1, 0);
}

void Execution::mutexUnlock(std::int32_t object) {
  publishAndPark(OpKind::Unlock, object, -1, -1, 0);
  if (abandoning_) return;
  ObjectInfo& m = objects_[static_cast<std::size_t>(object)];
  if (m.a != currentThread_) {
    failUsage("unlock of mutex '" + m.name + "' not held by the calling thread");
    return;
  }
  touchObject(object);
  m.a = -1;
  recordEvent(OpKind::Unlock, object, -1, 0);
}

bool Execution::mutexTryLock(std::int32_t object) {
  publishAndPark(OpKind::TryLock, object, -1, -1, 0);
  if (abandoning_) return false;
  ObjectInfo& m = objects_[static_cast<std::size_t>(object)];
  const bool acquired = m.a == -1;
  if (acquired) {
    touchObject(object);
    m.a = currentThread_;
  }
  recordEvent(OpKind::TryLock, object, -1, acquired ? 1 : 0);
  return acquired;
}

bool Execution::mutexHeldByCurrent(std::int32_t object) const {
  return objects_[static_cast<std::size_t>(object)].a == currentThread_;
}

void Execution::condWait(std::int32_t condvar, std::int32_t mutex) {
  publishAndPark(OpKind::Wait, condvar, mutex, -1, 0);
  if (abandoning_) return;
  ObjectInfo& m = objects_[static_cast<std::size_t>(mutex)];
  if (m.a != currentThread_) {
    failUsage("wait on condvar '" +
              objects_[static_cast<std::size_t>(condvar)].name +
              "' without holding mutex '" + m.name + "'");
    return;
  }
  touchObject(mutex);
  m.a = -1;  // atomically release with the park
  recordEvent(OpKind::Wait, condvar, mutex, 0);

  // Park until a signal re-arms us with a pre-staged Reacquire op.
  {
    ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
    me.pendingOp = PendingOp{false, OpKind::Reacquire, condvar, mutex, -1, 0};
    me.status = ThreadStatus::Parked;
    touchObject(condvar);
    objects_[static_cast<std::size_t>(condvar)].waiters.push_back(currentThread_);
    me.fiber->yieldToHost();
  }
  threads_[static_cast<std::size_t>(currentThread_)].pendingOp.valid = false;
  if (abandoning_) {
    consumeTeardownFuel();
    return;  // torn down while waiting; the wait never completes
  }
  // Granted the re-acquisition (mutex is free, scheduler picked us).
  ObjectInfo& m2 = objects_[static_cast<std::size_t>(mutex)];
  LAZYHB_CHECK(m2.a == -1);
  touchObject(mutex);
  m2.a = currentThread_;
  recordEvent(OpKind::Reacquire, condvar, mutex, 0);
}

void Execution::condSignal(std::int32_t condvar) {
  publishAndPark(OpKind::Signal, condvar, -1, -1, 0);
  if (abandoning_) return;
  const std::int32_t signalEvent = recordEvent(OpKind::Signal, condvar, -1, 0);
  ObjectInfo& cv = objects_[static_cast<std::size_t>(condvar)];
  if (!cv.waiters.empty()) {
    touchObject(condvar);
    const int waiter = cv.waiters.front();
    cv.waiters.erase(cv.waiters.begin());
    ThreadRec& w = threads_[static_cast<std::size_t>(waiter)];
    LAZYHB_CHECK(w.status == ThreadStatus::Parked);
    w.status = ThreadStatus::Pending;
    w.pendingOp.valid = true;
    w.signalPredecessor = signalEvent;
    markReady(waiter);
  }
}

void Execution::condBroadcast(std::int32_t condvar) {
  publishAndPark(OpKind::Broadcast, condvar, -1, -1, 0);
  if (abandoning_) return;
  const std::int32_t signalEvent = recordEvent(OpKind::Broadcast, condvar, -1, 0);
  ObjectInfo& cv = objects_[static_cast<std::size_t>(condvar)];
  if (!cv.waiters.empty()) touchObject(condvar);
  for (const int waiter : cv.waiters) {
    ThreadRec& w = threads_[static_cast<std::size_t>(waiter)];
    LAZYHB_CHECK(w.status == ThreadStatus::Parked);
    w.status = ThreadStatus::Pending;
    w.pendingOp.valid = true;
    w.signalPredecessor = signalEvent;
    markReady(waiter);
  }
  cv.waiters.clear();
}

void Execution::semAcquire(std::int32_t semaphore) {
  publishAndPark(OpKind::SemAcquire, semaphore, -1, -1, 0);
  if (abandoning_) return;
  ObjectInfo& s = objects_[static_cast<std::size_t>(semaphore)];
  LAZYHB_CHECK(s.a > 0);
  touchObject(semaphore);
  --s.a;
  recordEvent(OpKind::SemAcquire, semaphore, -1, 0);
}

void Execution::semRelease(std::int32_t semaphore) {
  publishAndPark(OpKind::SemRelease, semaphore, -1, -1, 0);
  if (abandoning_) return;
  touchObject(semaphore);
  ++objects_[static_cast<std::size_t>(semaphore)].a;
  recordEvent(OpKind::SemRelease, semaphore, -1, 0);
}

int Execution::spawnThread(std::function<void()> fn) {
  // Under TSO the picks >= kFlushPickOffset are flush picks, so real threads
  // are capped at the offset; under SC the full ThreadSet range is usable.
  const int threadCap = tso_ ? memory::kTsoMaxRealThreads : support::kMaxThreads;
  if (threadCount() >= threadCap) {
    failUsage("thread limit exceeded (" + std::to_string(threadCap) + ")");
    return -1;
  }
  // Park the closure in the engine-side slot *before* publishing: while the
  // spawner waits for the grant a checkpoint may snapshot its stack, and a
  // stack temporary owning heap (a big-capture std::function) would dangle
  // after a rollback. The slot is part of the snapshot instead.
  threads_[static_cast<std::size_t>(currentThread_)].pendingSpawnFn = std::move(fn);
  publishAndPark(OpKind::Spawn, -1, -1, -1, 0);
  if (abandoning_) {
    threads_[static_cast<std::size_t>(currentThread_)].pendingSpawnFn = nullptr;
    return -1;
  }

  // Commit: derive the child's schedule-invariant identity, register it as
  // an object, create its fiber, then run it to its first visible operation.
  const int childIndex = threadCount();
  Uid childUid;
  {
    ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
    childUid = deriveUid(me.uid, me.creationSeq++, ObjectKind::Thread);
  }
  // Thread names are drawn from a process-wide table: one "thread-N" string
  // per index, built once, so the millions of spawns an exploration performs
  // do not each allocate a name.
  static const std::vector<std::string> threadNames = [] {
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(support::kMaxThreads));
    for (int i = 0; i < support::kMaxThreads; ++i) {
      names.push_back("thread-" + std::to_string(i));
    }
    return names;
  }();

  const auto objIndex = static_cast<std::int32_t>(objects_.size());
  const ObjectInfo& childObj =
      addObject(childUid, ObjectKind::Thread,
                threadNames[static_cast<std::size_t>(childIndex)], 0, childIndex);
  if (observer_ != nullptr) {
    observer_->onObjectRegistered(*this, objIndex, childUid, ObjectKind::Thread,
                                  childObj.name, 0);
  }

  const std::int32_t spawnEvent = recordEvent(OpKind::Spawn, objIndex, -1, 0);

  ThreadRec& child = addThread(
      std::move(threads_[static_cast<std::size_t>(currentThread_)].pendingSpawnFn));
  child.uid = childUid;
  child.spawnPredecessor = spawnEvent;
  child.objectIndex = objIndex;
  // Disarm the slot explicitly: a moved-from std::function is only
  // "unspecified but valid", and later snapshots copy the slot.
  threads_[static_cast<std::size_t>(currentThread_)].pendingSpawnFn = nullptr;

  advance(childIndex);
  return childIndex;
}

void Execution::joinThread(int tid) {
  LAZYHB_CHECK(tid >= 0 && tid < threadCount());
  // The target's thread-object entry rides in the pending operation (DPOR
  // reasons about join-join reorderings via the thread object's conflict
  // chain); every thread records its own object index at creation.
  const std::int32_t objIndex = threads_[static_cast<std::size_t>(tid)].objectIndex;
  LAZYHB_CHECK(objIndex >= 0);
  publishAndPark(OpKind::Join, objIndex, -1, tid, 0);
  if (abandoning_) return;
  const ThreadRec& target = threads_[static_cast<std::size_t>(tid)];
  LAZYHB_CHECK(target.status == ThreadStatus::Finished);
  threads_[static_cast<std::size_t>(currentThread_)].joinPredecessor =
      target.lastEventIndex;
  recordEvent(OpKind::Join, objIndex, -1, 0);
}

void Execution::yieldNow() {
  publishAndPark(OpKind::Yield, -1, -1, -1, 0);
  recordEvent(OpKind::Yield, -1, -1, 0);
}

void Execution::failAssertion(std::string message) {
  if (abandoning_) return;
  recordViolation(Outcome::AssertionFailure, message);
  parkForViolation();
}

void Execution::failUsage(std::string message) {
  if (abandoning_) return;
  recordViolation(Outcome::UsageError, message);
  parkForViolation();
}

void Execution::recordViolation(Outcome kind, std::string_view message) {
  violation_.kind = kind;
  violation_.message.assign(message);
  violation_.schedule.assign(choices_.begin(), choices_.end());
}

void Execution::parkForViolation() {
  // Suspend the failing thread *without* unwinding it: unwinding here would
  // destroy its locals while other threads still reference them, and the
  // survivors would then be run forward into dead objects during teardown.
  // The host loop observes violation_ and ends the run; this fiber resumes
  // only in teardown mode and simply returns, continuing forward with every
  // subsequent operation granted as a no-op.
  ThreadRec& me = threads_[static_cast<std::size_t>(currentThread_)];
  me.fiber->yieldToHost();
  LAZYHB_CHECK(abandoning_);
  consumeTeardownFuel();
}

void Execution::teardownUnfinished() {
  abandoning_ = true;
  // Reverse spawn order: children run forward before the threads that own
  // the objects they reference (a child's lock guard must release a mutex
  // that still exists on its creator's stack).
  for (int tid = threadCount() - 1; tid >= 0; --tid) {
    ThreadRec& t = threads_[static_cast<std::size_t>(tid)];
    if (t.status != ThreadStatus::Finished) {
      teardownFuel_ = 512;  // per fiber: forward completion is ~100 ops
      advance(tid);
      LAZYHB_CHECK(t.fiber->finished());
      t.status = ThreadStatus::Finished;
    }
  }
  // Every thread has finished; only buffered stores may still be pending.
  ready_.clear();
  blocking_.clear();
  abandoning_ = false;
}

}  // namespace lazyhb::runtime
