#include "trace/trace_recorder.hpp"

#include <algorithm>
#include <cstring>

#include "support/diagnostics.hpp"

namespace lazyhb::trace {

using runtime::EventRecord;
using runtime::ObjectKind;
using runtime::OpKind;

const char* relationName(Relation r) noexcept {
  switch (r) {
    case Relation::Sync: return "sync";
    case Relation::Full: return "full";
    case Relation::Lazy: return "lazy";
    case Relation::Value: return "value";
  }
  return "?";
}

namespace {

/// Salt separating the condvar-queue folds of the value state from the
/// variables' (uid, value) pairs.
constexpr std::uint64_t kValueDomain = 0x3c4dULL;

}  // namespace

TraceRecorder::TraceRecorder() : TraceRecorder(Options{}) {}

TraceRecorder::TraceRecorder(Options options) : options_(options) {
  scratchFull_.reserve(16);
  scratchLazy_.reserve(16);
  scratchSync_.reserve(16);
}

void TraceRecorder::reset(Options options) {
  options_ = options;
  pendingResume_ = nullptr;
  resetAll();
  // A TSO exploration widens the rows to its flush agents' picks (32 + t);
  // the next exploration starts narrow again. Both share one stride.
  syncClocks_.resetWidth();
  fullClocks_.resetWidth();
}

void TraceRecorder::onExecutionStart(const runtime::Execution&) {
  if (pendingResume_ != nullptr) {
    // Re-executed schedule with a shared prefix: rewind to the armed
    // snapshot and treat the events below its depth as replays to skip.
    restore(*pendingResume_);
    skipEvents_ = pendingResume_->eventCount;
    pendingResume_ = nullptr;
    return;
  }
  resetAll();
}

void TraceRecorder::resetAll() {
  eventCount_ = 0;
  objectCount_ = 0;
  threadCount_ = 0;
  skipEvents_ = 0;
  records_.clear();
  syncClocks_.reset();
  fullClocks_.reset();
  prefixFull_ = support::MultisetHash{};
  prefixLazy_ = support::MultisetHash{};
  prefixValue_ = support::MultisetHash{};
  valueState_ = support::MultisetHash{};
  races_.clear();
  undo_.clear();  // every snapshot of the previous execution is dead
}

support::Hash128 TraceRecorder::cvQueueContribution(const ObjectHistory& h) noexcept {
  support::Hash128 fold = support::hash128(h.uid ^ 0xc01dfeedULL, kValueDomain);
  for (const runtime::Uid waiter : h.cvQueue) {
    fold = fold.mixedWith(waiter);
  }
  return fold;
}

void TraceRecorder::onObjectRegistered(const runtime::Execution&, std::int32_t index,
                                       runtime::Uid uid, runtime::ObjectKind kind,
                                       const std::string& name,
                                       std::uint64_t initialValueHash) {
  if (skipEvents_ > 0) {
    // Replayed registration of a prefix object: its rolled-back history is
    // already correct, so resetting it would erase prefix state.
    LAZYHB_ASSERT(static_cast<std::size_t>(index) < objects_.size() &&
                  objects_[static_cast<std::size_t>(index)].uid == uid);
    (void)index;
    (void)uid;
    return;
  }
  ObjectHistory& h = history(index);
  h.reset(uid);
  // Seed the object's share of the value-state accumulator. Variables
  // contribute their (uid, value) pair from registration on; condvars
  // contribute their (empty) wait-queue fold. Mutexes, semaphores and
  // threads need no contribution: their state is a function of the
  // operation multiset prefixValue_ already carries. A rollback restores
  // valueState_ wholesale from the snapshot copy, which un-registers
  // objects born past the stage.
  if (kind == ObjectKind::Var) {
    h.valueHash = initialValueHash;
    h.valueTerm = support::hash128(uid, initialValueHash);
    valueState_.add(h.valueTerm);
  } else if (kind == ObjectKind::CondVar) {
    valueState_.add(cvQueueContribution(h));
  }
  if (options_.keepPredecessors && !name.empty()) {
    // try_emplace allocates no node when the name is already mapped (every
    // later execution re-registers the same uids); the first name seen
    // stays, stable across runs.
    names_.try_emplace(uid, name);
  }
}

std::size_t TraceRecorder::capture(Snapshot& s) {
  s.eventCount = eventCount_;
  s.prefixFull = prefixFull_;
  s.prefixLazy = prefixLazy_;
  s.prefixValue = prefixValue_;
  s.valueState = valueState_;
  s.threadCount = threadCount_;
  s.threadLastEvent.assign(threadLastEvent_.begin(),
                           threadLastEvent_.begin() +
                               static_cast<std::ptrdiff_t>(threadCount_));
  s.objectCount = objectCount_;
  // Object cursors are not copied: the undo log above the mark is this
  // snapshot's pre-image, and the fresh epoch the mark opens makes the next
  // update of any history log it again.
  s.undoMark = undo_.mark();
  s.raceCount = races_.size();
  // size(), not capacity(): a pooled snapshot's spare capacity depends on
  // what it held before, and the staged bytes may not.
  return sizeof(Snapshot) + s.threadLastEvent.size() * sizeof(std::int32_t);
}

void TraceRecorder::logHistory(std::int32_t index, const ObjectHistory& h) {
  ObjectUndo& u = undo_.append();
  u.index = index;
  u.chainSize = h.chain.size();
  u.cursor = static_cast<const ObjectCursor&>(h);  // vectors reuse the slot's capacity
}

void TraceRecorder::restore(const Snapshot& s) {
  LAZYHB_CHECK(s.eventCount <= eventCount_);
  eventCount_ = s.eventCount;
  if (tracksPredecessors()) records_.resize(s.eventCount);
  if (options_.detectRaces) syncClocks_.truncate(s.eventCount);
  if (options_.fullClocks) fullClocks_.truncate(s.eventCount);
  prefixFull_ = s.prefixFull;
  prefixLazy_ = s.prefixLazy;
  prefixValue_ = s.prefixValue;
  valueState_ = s.valueState;
  threadCount_ = s.threadCount;
  for (std::size_t i = 0; i < s.threadCount; ++i) {
    threadLastEvent_[i] = s.threadLastEvent[i];
  }
  // Replay the undo log backwards to the mark. Entries can reference
  // histories past s.objectCount (objects that existed under a deeper
  // snapshot); applying them is harmless — those histories are dead until a
  // re-registration resets them. Swaps consume the entry and keep the
  // arena slot's vector capacity pooled.
  undo_.rollBack(s.undoMark, [this](ObjectUndo& u) {
    ObjectHistory& h = objects_[static_cast<std::size_t>(u.index)];
    std::swap(static_cast<ObjectCursor&>(h), u.cursor);
    LAZYHB_ASSERT(h.chain.size() >= u.chainSize);
    h.chain.resize(u.chainSize);
  });
  objectCount_ = s.objectCount;
  races_.resize(s.raceCount);
}

void TraceRecorder::armResume(const Snapshot& s) { pendingResume_ = &s; }

const ClockArena& TraceRecorder::arena(Relation r) const {
  // Rows exist only for relations a consumer declared at construction; the
  // Lazy relation and the Value equivalence never carry clocks.
  if (r == Relation::Full) {
    LAZYHB_CHECK(options_.fullClocks);
    return fullClocks_;
  }
  LAZYHB_CHECK(r == Relation::Sync && options_.detectRaces);
  return syncClocks_;
}

namespace {

/// Build one event's clock row: copy the thread's running clock (its
/// previous event's row, or zeros for a thread's first event), join the
/// direct predecessors, tick the thread's own component. Joins ignore order
/// and duplicates, so the predecessor list needs no sorting. All span loops
/// are branch-free over the arena's fixed stride.
void buildClockRow(ClockArena& arena, std::int32_t copyFrom,
                   const std::vector<std::int32_t>& preds, int tid,
                   std::uint32_t tick) {
  std::uint32_t* row = arena.appendRow();
  const std::uint32_t stride = arena.stride();
  if (copyFrom >= 0) {
    std::memcpy(row, arena.row(static_cast<std::size_t>(copyFrom)),
                stride * sizeof(std::uint32_t));
  } else {
    std::memset(row, 0, stride * sizeof(std::uint32_t));
  }
  for (const std::int32_t p : preds) {
    joinClockSpans(row, arena.row(static_cast<std::size_t>(p)), stride);
  }
  row[tid] = tick;
}

/// Store a predecessor list as kept lists are read: sorted, no duplicates.
void keepSorted(std::vector<std::int32_t>& scratch, std::vector<std::int32_t>& kept) {
  std::sort(scratch.begin(), scratch.end());
  kept.assign(scratch.begin(), std::unique(scratch.begin(), scratch.end()));
}

/// Open an epoch: mix the opener's label into it and return the epoch the
/// opener itself sits in.
support::Hash128 openEpoch(support::Hash128& epoch, support::Hash128 label) noexcept {
  const support::Hash128 before = epoch;
  epoch = before.mixedWith(label);
  return before;
}

}  // namespace

void TraceRecorder::onEvent(const runtime::Execution& exec, const EventRecord& ev) {
  if (skipEvents_ > 0) [[unlikely]] {
    // Replay of an event the rollback retained: every per-event structure
    // for it is already in place, byte-identical to what re-recording would
    // produce (the replayed prefix is the same schedule of the same
    // deterministic program).
    LAZYHB_ASSERT(!tracksPredecessors() ||
                  (records_[eventCount_ - skipEvents_].threadIndex == ev.threadIndex &&
                   records_[eventCount_ - skipEvents_].kind == ev.kind));
    --skipEvents_;
    ++replaysSkipped_;
    return;
  }
  if (tracksPredecessors()) {
    trackPredecessors(exec, ev, static_cast<std::int32_t>(eventCount_));
  }

  // Fingerprint half. Each event hash mixes the label with the epochs of
  // the objects the event touches, read before the event opens any of them
  // (see the header). Full and Lazy differ only on mutexes. Each
  // touchHistory call undo-logs the history's pre-image on its first
  // update since the last capture — and must precede taking the
  // reference it guards (the history() call inside may grow objects_).
  const support::Hash128 label = ev.labelHash();
  support::Hash128 full = label;
  support::Hash128 lazy = label;
  // Value-equivalence contribution: the label alone — no causal mixing;
  // forgetting who produced an observed value is the whole coarsening —
  // with, for reads and RMWs, the value observed mixed in. It has an
  // accumulator of its own, so it needs no salt against the Full and Lazy
  // event hashes.
  support::Hash128 observed = label;
  switch (ev.kind) {
    case OpKind::Read: {
      full = lazy = label.mixedWith(history(ev.objectIndex).epoch);
      // The event's own valueHash is the value the read observed — under
      // SC the variable's pre-value, under TSO possibly a value forwarded
      // from the reader's own store buffer, which the memory mirror cannot
      // know.
      observed = label.mixedWith(ev.valueHash);
      break;
    }
    case OpKind::Write:
      // A TSO-buffered store touches no object: program order is its only
      // ordering, and memory (the mirror and the value state) is untouched
      // until the matching Flush commits it.
      if (ev.aux == 1) break;
      [[fallthrough]];
    case OpKind::Rmw:
    case OpKind::Flush: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      full = lazy = label.mixedWith(openEpoch(h.epoch, label));
      // An RMW observes the pre-value; Execution has already committed the
      // post-value, so the recorder's own mirror is consulted.
      if (ev.kind == OpKind::Rmw) observed = label.mixedWith(h.valueHash);
      // Final-visible effect: swap the variable's (uid, value) pair in the
      // value-state accumulator for the committed post-value. Overwritten
      // intermediate values leave no trace — that is where value
      // equivalence prunes beyond the lazy HBR. The pair leaving is the
      // one kept since it entered, so it is not hashed again.
      if (ev.valueHash != h.valueHash) {
        valueState_.remove(h.valueTerm);
        h.valueTerm = support::hash128(h.uid, ev.valueHash);
        valueState_.add(h.valueTerm);
        h.valueHash = ev.valueHash;
      }
      break;
    }
    case OpKind::Lock:
    case OpKind::Unlock:
    case OpKind::TryLock: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      full = label.mixedWith(openEpoch(h.epoch, label));
      // Lazy: only a trylock, which observes the mutex state, opens.
      lazy = label.mixedWith(ev.kind == OpKind::TryLock ? openEpoch(h.lazyEpoch, label)
                                                        : h.lazyEpoch);
      break;
    }
    case OpKind::Wait:
    case OpKind::Reacquire: {
      touchHistory(ev.objectIndex);
      touchHistory(ev.mutexIndex);
      ObjectHistory& cv = history(ev.objectIndex);
      full = lazy = label.mixedWith(openEpoch(cv.epoch, label));
      if (ev.kind == OpKind::Wait) {
        // The waiter parks at the back of the condvar's FIFO queue.
        valueState_.remove(cvQueueContribution(cv));
        cv.cvQueue.push_back(ev.threadUid);
        valueState_.add(cvQueueContribution(cv));
      }
      ObjectHistory& m = history(ev.mutexIndex);
      full = full.mixedWith(openEpoch(m.epoch, label));
      lazy = lazy.mixedWith(m.lazyEpoch);  // the hidden unlock/lock is a member
      break;
    }
    case OpKind::Signal:
    case OpKind::Broadcast:
    case OpKind::SemAcquire:
    case OpKind::SemRelease:
    case OpKind::Spawn:
    case OpKind::Join: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      full = lazy = label.mixedWith(openEpoch(h.epoch, label));
      // Signal wakes the queue's front (FIFO); broadcast drains it. Mirror
      // the runtime's queue so the value fingerprint tracks wake order.
      const bool wakes = ev.kind == OpKind::Signal || ev.kind == OpKind::Broadcast;
      if (wakes && !h.cvQueue.empty()) {
        valueState_.remove(cvQueueContribution(h));
        if (ev.kind == OpKind::Signal) {
          h.cvQueue.erase(h.cvQueue.begin());
        } else {
          h.cvQueue.clear();
        }
        valueState_.add(cvQueueContribution(h));
      }
      break;
    }
    case OpKind::Yield:
    case OpKind::Fence:  // a drain point orders nothing across threads
      break;
  }
  prefixFull_.add(full);
  prefixLazy_.add(lazy);
  prefixValue_.add(observed);
  ++eventCount_;
}

void TraceRecorder::trackPredecessors(const runtime::Execution& exec,
                                      const EventRecord& ev, std::int32_t index) {
  const int t = ev.threadIndex;
  const auto tIdx = static_cast<std::size_t>(t);
  if (tIdx >= threadCount_) {
    if (threadLastEvent_.size() <= tIdx) {
      threadLastEvent_.resize(tIdx + 1, -1);
    }
    for (std::size_t i = threadCount_; i <= tIdx; ++i) threadLastEvent_[i] = -1;
    threadCount_ = tIdx + 1;
  }
  if (static_cast<std::uint32_t>(t) >= syncClocks_.stride()) {
    // Thread capacity exceeded: widen both matrices together (they always
    // share a stride; an unbuilt one just records it). Rounded up so
    // repeated spawns re-stride once.
    const std::uint32_t stride = (static_cast<std::uint32_t>(t) + 8u) & ~7u;
    syncClocks_.widen(stride);
    fullClocks_.widen(stride);
  }
  records_.push_back(ev);

  scratchFull_.clear();
  scratchLazy_.clear();
  scratchSync_.clear();
  enum : unsigned { kFull = 1, kLazy = 2, kSync = 4, kConflict = kFull | kLazy, kAll = 7 };
  auto pred = [&](std::int32_t p, unsigned relations) {
    if (p < 0) return;
    if ((relations & kFull) != 0) scratchFull_.push_back(p);
    if ((relations & kLazy) != 0) scratchLazy_.push_back(p);
    if ((relations & kSync) != 0) scratchSync_.push_back(p);
  };
  // The latest event on an object's Full conflict chain precedes this one;
  // this one joins the chain.
  auto chained = [&](ObjectHistory& h, unsigned relations) {
    if (!h.chain.empty()) pred(h.chain.back(), relations);
    h.chain.push_back(index);
  };

  // Program order: the previous event of this thread. The clocks encode it
  // implicitly (the running clock is copied below); the kept lists need it.
  const std::int32_t prevEvent = threadLastEvent_[tIdx];
  if (ev.indexInThread > 0) pred(prevEvent, kAll);
  // Special predecessors participate in every relation.
  pred(ev.spawnPredecessor, kAll);
  pred(ev.signalPredecessor, kAll);
  pred(ev.joinPredecessor, kAll);

  // Object-conflict edges per kind, collected from the cursors as they are
  // advanced past this event.
  switch (ev.kind) {
    case OpKind::Read: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      pred(h.lastWrite, kConflict);
      h.readersSinceWrite.push_back(index);
      break;
    }
    case OpKind::Write:
      // TSO-buffered store: not yet a memory write, so program order is its
      // only ordering. The memory side of the store — and its conflict
      // edges — arrive with the matching Flush event.
      if (ev.aux == 1) break;
      [[fallthrough]];
    case OpKind::Rmw:
    case OpKind::Flush: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      pred(h.lastWrite, kConflict);
      for (const std::int32_t r : h.readersSinceWrite) pred(r, kConflict);
      h.lastWrite = index;
      h.readersSinceWrite.clear();
      break;
    }
    case OpKind::Lock:
    case OpKind::Unlock: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      chained(h, kFull);
      pred(h.lastTryLock, kLazy);
      h.mutexOpsSinceTryLock.push_back(index);
      if (ev.kind == OpKind::Lock) {
        pred(h.lastReleaseEvent, kSync);
      } else {
        h.lastReleaseEvent = index;
      }
      break;
    }
    case OpKind::TryLock: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      chained(h, kFull);
      // Lazy: a trylock observes the whole lock history, so it is ordered
      // against every mutex op since (and including) the previous trylock.
      for (const std::int32_t p : h.mutexOpsSinceTryLock) pred(p, kLazy);
      pred(h.lastTryLock, kLazy);
      if (ev.aux == 1) pred(h.lastReleaseEvent, kSync);  // acquired
      h.lastTryLock = index;
      h.mutexOpsSinceTryLock.clear();
      break;
    }
    case OpKind::Wait:
    case OpKind::Reacquire: {
      touchHistory(ev.objectIndex);
      touchHistory(ev.mutexIndex);
      chained(history(ev.objectIndex), kConflict);  // condvar chain
      ObjectHistory& m = history(ev.mutexIndex);
      chained(m, kFull);
      pred(m.lastTryLock, kLazy);
      m.mutexOpsSinceTryLock.push_back(index);
      if (ev.kind == OpKind::Reacquire) {
        pred(m.lastReleaseEvent, kSync);
      } else {
        m.lastReleaseEvent = index;  // wait releases the mutex
      }
      break;
    }
    case OpKind::Signal:
    case OpKind::Broadcast:
      touchHistory(ev.objectIndex);
      chained(history(ev.objectIndex), kConflict);
      break;
    case OpKind::SemAcquire:
    case OpKind::SemRelease:
    case OpKind::Spawn:
    case OpKind::Join:
      // Semaphores and fork/join synchronise.
      touchHistory(ev.objectIndex);
      chained(history(ev.objectIndex), kAll);
      break;
    case OpKind::Yield:
    case OpKind::Fence:
      break;
  }

  // Clock rows, only for the relations a consumer reads: each is built from
  // the thread's running clock (its previous event's row) and the direct
  // predecessors' rows.
  const std::int32_t copyFrom = ev.indexInThread > 0 ? prevEvent : -1;
  const auto tick = ev.indexInThread + 1;
  if (options_.fullClocks) {
    buildClockRow(fullClocks_, copyFrom, scratchFull_, t, tick);
  }
  if (options_.detectRaces) {
    buildClockRow(syncClocks_, copyFrom, scratchSync_, t, tick);
    if (ev.kind == OpKind::Read || ev.kind == OpKind::Write || ev.kind == OpKind::Rmw ||
        ev.kind == OpKind::Flush) {
      detectRace(exec, ev, index);
    }
  }
  if (options_.keepPredecessors) {
    if (preds_.size() <= eventCount_) preds_.resize(eventCount_ + 1);
    EventPreds& p = preds_[eventCount_];
    keepSorted(scratchFull_, p.full);
    keepSorted(scratchLazy_, p.lazy);
    keepSorted(scratchSync_, p.sync);
  }
  threadLastEvent_[tIdx] = index;
}

void TraceRecorder::detectRace(const runtime::Execution& exec, const EventRecord& ev,
                               std::int32_t index) {
  ObjectHistory& h = history(ev.objectIndex);
  const ClockView myClock = syncClocks_.view(static_cast<std::size_t>(index));
  auto concurrent = [&](std::int32_t earlier) {
    const int et = records_[static_cast<std::size_t>(earlier)].threadIndex;
    return syncClocks_.view(static_cast<std::size_t>(earlier)).get(et) > myClock.get(et);
  };
  // A flush is the memory side of a store already checked when buffered.
  std::int32_t racing = -1;
  if (ev.kind != OpKind::Flush) {
    // Any access races with a sync-concurrent earlier write; a write
    // additionally races with sync-concurrent earlier reads.
    if (h.lastWriteEvent >= 0 && concurrent(h.lastWriteEvent)) {
      racing = h.lastWriteEvent;
    } else if (ev.kind != OpKind::Read) {
      for (const auto& [tid, readEvent] : h.lastReadPerThread) {
        if (tid != ev.threadIndex && concurrent(readEvent)) {
          racing = readEvent;
          break;
        }
      }
    }
  }
  const auto sameObject = [&](const RaceReport& r) { return r.objectUid == ev.objectUid; };
  if (racing >= 0 && std::none_of(races_.begin(), races_.end(), sameObject)) {
    // One report per object per run.
    RaceReport race;
    race.objectUid = ev.objectUid;
    race.objectName = exec.object(ev.objectIndex).name;
    race.firstEvent = racing;
    race.secondEvent = index;
    races_.push_back(std::move(race));
  }

  if (ev.kind == OpKind::Read) {
    for (auto& [tid, evIdx] : h.lastReadPerThread) {
      if (tid == ev.threadIndex) {
        evIdx = index;
        return;
      }
    }
    h.lastReadPerThread.emplace_back(ev.threadIndex, index);
  } else if (ev.kind != OpKind::Write || ev.aux != 1) {  // a buffered store writes nothing yet
    h.lastWriteEvent = index;
    h.lastReadPerThread.clear();
  }
}

void TraceRecorder::onExecutionEnd(const runtime::Execution&, runtime::Outcome) {}

support::Hash128 TraceRecorder::fingerprint(Relation r) const {
  switch (r) {
    case Relation::Full: return prefixFull_.digest();
    case Relation::Lazy: return prefixLazy_.digest();
    case Relation::Value:
      // Observations plus visible state: equal digests mean the same
      // operations ran, every read saw the same value, and the variables
      // and condvar queues stand identically — so the continuation
      // subtrees coincide, the property value-class pruning keys on.
      return prefixValue_.digest().mixedWith(valueState_.digest());
    case Relation::Sync: break;
  }
  LAZYHB_UNREACHABLE("no fingerprint is maintained for the sync relation");
}

const runtime::EventRecord& TraceRecorder::eventRecord(std::int32_t index) const {
  LAZYHB_CHECK(tracksPredecessors());
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  return records_[static_cast<std::size_t>(index)];
}

ClockView TraceRecorder::eventClock(Relation r, std::int32_t index) const {
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  return arena(r).view(static_cast<std::size_t>(index));
}

const std::vector<std::int32_t>& TraceRecorder::eventPredecessors(
    Relation r, std::int32_t index) const {
  LAZYHB_CHECK(options_.keepPredecessors);
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  const EventPreds& p = preds_[static_cast<std::size_t>(index)];
  switch (r) {
    case Relation::Sync: return p.sync;
    case Relation::Full: return p.full;
    case Relation::Lazy: return p.lazy;
    case Relation::Value: break;  // no edge structure under the equivalence
  }
  LAZYHB_UNREACHABLE("bad relation");
}

ClockView TraceRecorder::threadClock(Relation r, int tid) const {
  const ClockArena& rows = arena(r);
  const auto i = static_cast<std::size_t>(tid);
  if (i >= threadCount_ || threadLastEvent_[i] < 0) return ClockView{};
  return rows.view(static_cast<std::size_t>(threadLastEvent_[i]));
}

void TraceRecorder::collectConflicts(const runtime::Execution& exec, int tid,
                                     std::vector<std::int32_t>& out) const {
  LAZYHB_CHECK(tracksPredecessors());
  out.clear();
  const runtime::PendingOp& op = exec.pending(tid);
  const bool write =
      op.kind == OpKind::Write || op.kind == OpKind::Rmw || op.kind == OpKind::Flush;
  if (!op.valid || (op.kind != OpKind::Read && !write) || op.object < 0 ||
      static_cast<std::size_t>(op.object) >= objectCount_) {
    return;
  }
  const ObjectHistory& h = objects_[static_cast<std::size_t>(op.object)];
  if (h.lastWrite >= 0) out.push_back(h.lastWrite);
  // A pending Write may turn out to buffer under TSO (no memory conflicts
  // until its Flush); treating it as a memory write here is conservative —
  // DPOR explores at most extra interleavings, never fewer. A Flush pick is
  // always a memory write of the buffer head. The readers all follow the
  // last write, so the list is already in schedule order.
  if (write) out.insert(out.end(), h.readersSinceWrite.begin(), h.readersSinceWrite.end());
}

const std::vector<std::int32_t>& TraceRecorder::chainEvents(std::int32_t objectIndex) const {
  LAZYHB_CHECK(tracksPredecessors());
  static const std::vector<std::int32_t> kEmpty;
  if (objectIndex < 0 || static_cast<std::size_t>(objectIndex) >= objectCount_) {
    return kEmpty;
  }
  return objects_[static_cast<std::size_t>(objectIndex)].chain;
}

std::string TraceRecorder::objectName(runtime::Uid uid) const {
  const auto it = names_.find(uid);
  return it != names_.end() ? it->second : std::string("obj-") + std::to_string(uid % 10000);
}

}  // namespace lazyhb::trace
