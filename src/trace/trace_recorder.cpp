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

/// Salt separating the value-equivalence hash domain from the Full/Lazy ones.
constexpr std::uint64_t kValueDomain = 0x3c4dULL;

/// One value-observation contribution: hash of an observed value, salted
/// away from every other 64-bit quantity the fingerprints mix.
[[nodiscard]] support::Hash128 observedValueHash(std::uint64_t value) noexcept {
  return support::hash128(value ^ 0x0b5e55edULL, kValueDomain);
}

}  // namespace

TraceRecorder::TraceRecorder() : TraceRecorder(Options{}) {}

TraceRecorder::TraceRecorder(Options options) : options_(options) {
  scratchFull_.reserve(16);
  scratchLazy_.reserve(16);
  scratchSync_.reserve(16);
}

void TraceRecorder::onExecutionStart(const runtime::Execution&) {
  if (pendingResume_ != kNoCheckpoint) {
    // Re-executed schedule with a shared prefix: rewind to the staged point
    // and treat the first pendingResume_ events as replays to skip.
    rollbackTo(pendingResume_);
    skipEvents_ = pendingResume_;
    pendingResume_ = kNoCheckpoint;
    return;
  }
  resetAll();
}

void TraceRecorder::resetAll() {
  eventCount_ = 0;
  objectCount_ = 0;
  threadCount_ = 0;
  skipEvents_ = 0;
  fullHash_.clear();
  lazyHash_.clear();
  records_.clear();
  syncClocks_.reset();
  fullClocks_.reset();
  prefixFull_ = support::MultisetHash{};
  prefixLazy_ = support::MultisetHash{};
  prefixValue_ = support::MultisetHash{};
  valueState_ = support::MultisetHash{};
  races_.clear();
  undoSize_ = 0;  // no stages left to roll back to; entries are dead
  recycleCheckpoints();
}

support::Hash128 TraceRecorder::cvQueueContribution(const ObjectHistory& h) noexcept {
  support::Hash128 fold = support::hash128(h.uid ^ 0xc01dfeedULL, kValueDomain);
  for (const runtime::Uid waiter : h.cvQueue) {
    fold = fold.mixedWith(support::hash128(waiter));
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
  h.reset(uid, kind);
  // Seed the object's share of the value-state accumulator. Variables
  // contribute their (uid, value) pair from registration on; condvars
  // contribute their (empty) wait-queue fold. Mutexes, semaphores and
  // threads need no contribution: their state is a function of the
  // operation multiset prefixValue_ already carries. A rollback restores
  // valueState_ wholesale from the checkpoint copy, which un-registers
  // objects born past the stage.
  if (kind == ObjectKind::Var) {
    h.valueHash = initialValueHash;
    valueState_.add(support::hash128(uid, h.valueHash));
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

std::size_t TraceRecorder::checkpoint() {
  if (!checkpoints_.empty() && checkpoints_.back().eventCount == eventCount_) {
    return eventCount_;  // already staged at this depth
  }
  LAZYHB_CHECK(checkpoints_.empty() || checkpoints_.back().eventCount < eventCount_);
  if (checkpointPool_.empty()) {
    checkpoints_.emplace_back();
  } else {
    checkpoints_.push_back(std::move(checkpointPool_.back()));
    checkpointPool_.pop_back();
  }
  Checkpoint& cp = checkpoints_.back();
  cp.eventCount = eventCount_;
  cp.prefixFull = prefixFull_;
  cp.prefixLazy = prefixLazy_;
  cp.prefixValue = prefixValue_;
  cp.valueState = valueState_;
  cp.threadCount = threadCount_;
  cp.threadLastEvent.assign(threadLastEvent_.begin(),
                            threadLastEvent_.begin() +
                                static_cast<std::ptrdiff_t>(threadCount_));
  cp.objectCount = objectCount_;
  // Object cursors are not copied: the undo log above `undoMark` is this
  // stage's pre-image. A fresh epoch makes the next update of any history
  // log it again (relative to *this* checkpoint).
  cp.undoMark = undoSize_;
  currentEpoch_ = ++epochCounter_;
  cp.raceCount = races_.size();
  return eventCount_;
}

void TraceRecorder::logHistoryUndo(std::int32_t index, const ObjectHistory& h) {
  if (undoSize_ == undoLog_.size()) undoLog_.emplace_back();
  ObjectUndo& u = undoLog_[undoSize_++];
  u.index = index;
  ObjectCursor& c = u.cursor;
  c.lastWrite = h.lastWrite;
  c.readersSinceWrite.assign(h.readersSinceWrite.begin(), h.readersSinceWrite.end());
  c.lastChainOp = h.lastChainOp;
  c.chainSize = h.chain.size();
  c.lastTryLock = h.lastTryLock;
  c.mutexOpsSinceTryLock.assign(h.mutexOpsSinceTryLock.begin(),
                                h.mutexOpsSinceTryLock.end());
  c.lastReleaseEvent = h.lastReleaseEvent;
  c.lastWriteEvent = h.lastWriteEvent;
  c.lastReadPerThread.assign(h.lastReadPerThread.begin(), h.lastReadPerThread.end());
  c.valueHash = h.valueHash;
  c.cvQueue.assign(h.cvQueue.begin(), h.cvQueue.end());
}

std::size_t TraceRecorder::deepestCheckpointAtOrBelow(std::size_t depth) const noexcept {
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->eventCount <= depth) return it->eventCount;
  }
  return kNoCheckpoint;
}

void TraceRecorder::rollbackTo(std::size_t depth) {
  while (!checkpoints_.empty() && checkpoints_.back().eventCount > depth) {
    checkpointPool_.push_back(std::move(checkpoints_.back()));
    checkpoints_.pop_back();
  }
  LAZYHB_CHECK(!checkpoints_.empty() && checkpoints_.back().eventCount == depth);
  const Checkpoint& cp = checkpoints_.back();
  eventCount_ = depth;
  fullHash_.resize(depth);
  lazyHash_.resize(depth);
  records_.resize(depth);
  if (options_.detectRaces) syncClocks_.truncate(depth);
  if (options_.fullClocks) fullClocks_.truncate(depth);
  prefixFull_ = cp.prefixFull;
  prefixLazy_ = cp.prefixLazy;
  prefixValue_ = cp.prefixValue;
  valueState_ = cp.valueState;
  threadCount_ = cp.threadCount;
  for (std::size_t i = 0; i < cp.threadCount; ++i) {
    threadLastEvent_[i] = cp.threadLastEvent[i];
  }
  // Replay the undo log backwards to this stage's mark. Entries can
  // reference histories past cp.objectCount (objects that existed under a
  // deeper stage); applying them is harmless — those histories are dead
  // until a re-registration resets them. Swaps consume the entry and keep
  // the arena slot's vector capacity pooled.
  while (undoSize_ > cp.undoMark) {
    ObjectUndo& u = undoLog_[--undoSize_];
    ObjectHistory& h = objects_[static_cast<std::size_t>(u.index)];
    ObjectCursor& c = u.cursor;
    h.lastWrite = c.lastWrite;
    h.readersSinceWrite.swap(c.readersSinceWrite);
    h.lastChainOp = c.lastChainOp;
    LAZYHB_ASSERT(h.chain.size() >= c.chainSize);
    h.chain.resize(c.chainSize);
    h.lastTryLock = c.lastTryLock;
    h.mutexOpsSinceTryLock.swap(c.mutexOpsSinceTryLock);
    h.lastReleaseEvent = c.lastReleaseEvent;
    h.lastWriteEvent = c.lastWriteEvent;
    h.lastReadPerThread.swap(c.lastReadPerThread);
    h.valueHash = c.valueHash;
    h.cvQueue.swap(c.cvQueue);
  }
  objectCount_ = cp.objectCount;
  // New epoch: post-rollback updates must re-log their pre-images so this
  // same stage can be rolled back to again.
  currentEpoch_ = ++epochCounter_;
  races_.resize(cp.raceCount);
}

bool TraceRecorder::evictCheckpoint(std::size_t depth) {
  for (std::size_t i = 0; i < checkpoints_.size(); ++i) {
    if (checkpoints_[i].eventCount != depth) continue;
    checkpointPool_.push_back(std::move(checkpoints_[i]));
    checkpoints_.erase(checkpoints_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

std::size_t TraceRecorder::checkpointApproxBytes(std::size_t depth) const noexcept {
  // Reverse scan: checkpoints are depth-ascending and the engine prices the
  // just-staged (deepest) one on every stage — a forward scan made staging
  // O(stages) and deep-tree branches quadratic.
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    const Checkpoint& cp = *it;
    if (cp.eventCount != depth) continue;
    return sizeof(Checkpoint) +
           cp.threadLastEvent.capacity() * sizeof(std::int32_t);
  }
  return 0;
}

void TraceRecorder::armResume(std::size_t depth) {
  LAZYHB_CHECK(deepestCheckpointAtOrBelow(depth) == depth);
  pendingResume_ = depth;
}

void TraceRecorder::recycleCheckpoints() noexcept {
  while (!checkpoints_.empty()) {
    checkpointPool_.push_back(std::move(checkpoints_.back()));
    checkpoints_.pop_back();
  }
}

TraceRecorder::ObjectHistory& TraceRecorder::history(std::int32_t objectIndex) {
  const auto i = static_cast<std::size_t>(objectIndex);
  if (i >= objects_.size()) {
    objects_.resize(i + 1);
  }
  objectCount_ = std::max(objectCount_, i + 1);
  return objects_[i];
}

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

/// Branchless compare-exchange: leaves min(x, y) in x and max in y.
inline void cmpSwap(std::int32_t& x, std::int32_t& y) noexcept {
  const std::int32_t lo = x < y ? x : y;
  const std::int32_t hi = x < y ? y : x;
  x = lo;
  y = hi;
}

/// Sort + dedup of a predecessor scratch list. An event has at most a
/// handful of direct predecessors, so the common path is a branch-free
/// 8-element Batcher sorting network followed by a branch-free adjacent
/// compaction — no data-dependent branches for the branch predictor to
/// mistrain on, unlike the introsort the long tail falls back to.
void sortUnique(std::vector<std::int32_t>& v) {
  const std::size_t n = v.size();
  if (n <= 1) return;
  if (n > 8) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return;
  }
  std::int32_t a[8];
  for (std::size_t i = 0; i < n; ++i) a[i] = v[i];
  for (std::size_t i = n; i < 8; ++i) a[i] = INT32_MAX;  // pad sorts last
  // Batcher odd-even mergesort network for 8 elements (19 comparators).
  cmpSwap(a[0], a[1]); cmpSwap(a[2], a[3]); cmpSwap(a[4], a[5]); cmpSwap(a[6], a[7]);
  cmpSwap(a[0], a[2]); cmpSwap(a[1], a[3]); cmpSwap(a[4], a[6]); cmpSwap(a[5], a[7]);
  cmpSwap(a[1], a[2]); cmpSwap(a[5], a[6]);
  cmpSwap(a[0], a[4]); cmpSwap(a[1], a[5]); cmpSwap(a[2], a[6]); cmpSwap(a[3], a[7]);
  cmpSwap(a[2], a[4]); cmpSwap(a[3], a[5]);
  cmpSwap(a[1], a[2]); cmpSwap(a[3], a[4]); cmpSwap(a[5], a[6]);
  // Branch-free unique: the write index only advances on a new value.
  v[0] = a[0];
  std::size_t out = 1;
  for (std::size_t i = 1; i < n; ++i) {
    v[out] = a[i];
    out += static_cast<std::size_t>(a[i] != a[i - 1]);
  }
  v.resize(out);
}

/// Build one event's clock row: copy the thread's running clock (its
/// previous event's row, or zeros for a thread's first event), join the
/// direct predecessors, tick the thread's own component. All span loops are
/// branch-free over the arena's fixed stride.
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

}  // namespace

void TraceRecorder::onEvent(const runtime::Execution& exec, const EventRecord& ev) {
  if (skipEvents_ > 0) [[unlikely]] {
    // Replay of an event the rollback retained: every per-event structure
    // for it is already in place, byte-identical to what re-recording would
    // produce (the replayed prefix is the same schedule of the same
    // deterministic program).
    LAZYHB_ASSERT(records_[eventCount_ - skipEvents_].threadIndex == ev.threadIndex &&
                  records_[eventCount_ - skipEvents_].kind == ev.kind);
    --skipEvents_;
    ++replaysSkipped_;
    return;
  }
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

  const auto index = static_cast<std::int32_t>(eventCount_);
  records_.push_back(ev);

  scratchFull_.clear();
  scratchLazy_.clear();
  scratchSync_.clear();
  // Pred-set coincidence tracking: when every predecessor was pushed to the
  // Full list and another relation's (the common predAll-only case), that
  // relation's list is identical and neither sorted nor stored twice.
  bool lazySameAsFull = true;  // scratchLazy_ would equal scratchFull_
  bool syncSameAsFull = true;  // scratchSync_ would equal scratchFull_
  auto predAll = [&](std::int32_t p) {
    if (p >= 0) {
      scratchFull_.push_back(p);
      scratchLazy_.push_back(p);
      scratchSync_.push_back(p);
    }
  };
  auto predConflict = [&](std::int32_t p) {  // Full+Lazy (variable-style)
    if (p >= 0) {
      scratchFull_.push_back(p);
      scratchLazy_.push_back(p);
      syncSameAsFull = false;
    }
  };
  auto predFullOnly = [&](std::int32_t p) {
    if (p >= 0) {
      scratchFull_.push_back(p);
      lazySameAsFull = false;
      syncSameAsFull = false;
    }
  };
  auto predLazyOnly = [&](std::int32_t p) {
    if (p >= 0) {
      scratchLazy_.push_back(p);
      lazySameAsFull = false;
    }
  };
  auto predSyncOnly = [&](std::int32_t p) {
    if (p >= 0) {
      scratchSync_.push_back(p);
      syncSameAsFull = false;
    }
  };

  // Program order: the previous event of this thread. The clocks encode it
  // implicitly (the running clock is copied below); the hash needs the index.
  const std::int32_t prevEvent = threadLastEvent_[tIdx];
  if (ev.indexInThread > 0) {
    predAll(prevEvent);
  }

  // Special predecessors participate in every relation.
  predAll(ev.spawnPredecessor);
  predAll(ev.signalPredecessor);
  predAll(ev.joinPredecessor);

  // Object-conflict edges per kind.
  switch (ev.kind) {
    case OpKind::Read: {
      ObjectHistory& h = history(ev.objectIndex);
      predConflict(h.lastWrite);
      break;
    }
    case OpKind::Write:
    case OpKind::Rmw:
    case OpKind::Flush: {
      if (ev.kind == OpKind::Write && ev.aux == 1) {
        // TSO-buffered store: not yet a memory write, so program order is
        // its only ordering. The memory side of the store — and its
        // conflict edges — arrive with the matching Flush event.
        break;
      }
      ObjectHistory& h = history(ev.objectIndex);
      predConflict(h.lastWrite);
      for (const std::int32_t r : h.readersSinceWrite) predConflict(r);
      break;
    }
    case OpKind::Lock:
    case OpKind::Unlock: {
      ObjectHistory& h = history(ev.objectIndex);
      predFullOnly(h.lastChainOp);
      predLazyOnly(h.lastTryLock);
      if (ev.kind == OpKind::Lock) predSyncOnly(h.lastReleaseEvent);
      break;
    }
    case OpKind::TryLock: {
      ObjectHistory& h = history(ev.objectIndex);
      predFullOnly(h.lastChainOp);
      // Lazy: a trylock observes the whole lock history, so it is ordered
      // against every mutex op since (and including) the previous trylock.
      for (const std::int32_t p : h.mutexOpsSinceTryLock) predLazyOnly(p);
      predLazyOnly(h.lastTryLock);
      if (ev.aux == 1) predSyncOnly(h.lastReleaseEvent);
      break;
    }
    case OpKind::Wait:
    case OpKind::Reacquire: {
      ObjectHistory& cv = history(ev.objectIndex);
      predConflict(cv.lastChainOp);  // condvar chain
      ObjectHistory& m = history(ev.mutexIndex);
      predFullOnly(m.lastChainOp);
      predLazyOnly(m.lastTryLock);
      if (ev.kind == OpKind::Reacquire) predSyncOnly(m.lastReleaseEvent);
      break;
    }
    case OpKind::Signal:
    case OpKind::Broadcast: {
      ObjectHistory& h = history(ev.objectIndex);
      if (h.lastChainOp >= 0) predConflict(h.lastChainOp);
      break;
    }
    case OpKind::SemAcquire:
    case OpKind::SemRelease: {
      ObjectHistory& h = history(ev.objectIndex);
      if (h.lastChainOp >= 0) predAll(h.lastChainOp);  // semaphores sync
      break;
    }
    case OpKind::Spawn:
    case OpKind::Join: {
      ObjectHistory& h = history(ev.objectIndex);
      if (h.lastChainOp >= 0) predAll(h.lastChainOp);  // fork/join sync
      break;
    }
    case OpKind::Yield:
    case OpKind::Fence:  // a drain point orders nothing across threads
      break;
  }

  sortUnique(scratchFull_);
  if (!lazySameAsFull) sortUnique(scratchLazy_);
  const std::vector<std::int32_t>& lazyPreds =
      lazySameAsFull ? scratchFull_ : scratchLazy_;
  // The sync list feeds only the race detector's rows and the kept lists.
  const bool syncWanted = options_.detectRaces || options_.keepPredecessors;
  if (syncWanted && !syncSameAsFull) sortUnique(scratchSync_);
  const std::vector<std::int32_t>& syncPreds =
      syncSameAsFull ? scratchFull_ : scratchSync_;

  // Clock rows, only for the relations a consumer reads: each is built from
  // the thread's running clock (its previous event's row) and the direct
  // predecessors' rows.
  const std::int32_t copyFrom = ev.indexInThread > 0 ? prevEvent : -1;
  const auto tick = ev.indexInThread + 1;
  if (options_.fullClocks) {
    buildClockRow(fullClocks_, copyFrom, scratchFull_, t, tick);
  }
  if (options_.detectRaces) {
    buildClockRow(syncClocks_, copyFrom, syncPreds, t, tick);
    // Data-race detection uses the sync clock, against pre-update histories.
    if (ev.kind == OpKind::Read || ev.kind == OpKind::Write || ev.kind == OpKind::Rmw) {
      checkRace(exec, ev, index);
    }
  }

  // Causal hashes: label mixed with the multiset of direct predecessors'
  // hashes under each relation. The label is hashed once for all three.
  const support::Hash128 label = ev.labelHash();
  {
    support::MultisetHash acc;
    for (const std::int32_t p : scratchFull_) {
      acc.add(fullHash_[static_cast<std::size_t>(p)]);
    }
    fullHash_.push_back(label.mixedWith(acc.digest()));
    prefixFull_.add(fullHash_.back());
  }
  {
    support::MultisetHash acc;
    for (const std::int32_t p : lazyPreds) {
      acc.add(lazyHash_[static_cast<std::size_t>(p)]);
    }
    lazyHash_.push_back(
        label.mixedWith(acc.digest()).mixedWith(support::hash128(0x1a2bULL)));
    prefixLazy_.add(lazyHash_.back());
  }
  {
    // Value-equivalence contribution: the label alone — no causal mixing;
    // forgetting who produced an observed value is the whole coarsening —
    // plus, for reads and RMWs, the value observed (the variable's
    // pre-value; Execution commits an RMW's post-value before recording, so
    // the recorder's own mirror is consulted, not the execution's).
    support::Hash128 vh = label.mixedWith(support::hash128(kValueDomain));
    if (ev.kind == OpKind::Read) {
      // The event's own valueHash is the value the read observed — under
      // SC the variable's pre-value (identical to the mirror consulted for
      // RMWs), under TSO possibly a value forwarded from the reader's own
      // store buffer, which the memory mirror cannot know.
      vh = vh.mixedWith(observedValueHash(ev.valueHash));
    } else if (ev.kind == OpKind::Rmw) {
      vh = vh.mixedWith(observedValueHash(history(ev.objectIndex).valueHash));
    }
    prefixValue_.add(vh);
  }

  if (options_.keepPredecessors) {
    if (preds_.size() <= eventCount_) preds_.resize(eventCount_ + 1);
    EventPreds& p = preds_[eventCount_];
    p.full.assign(scratchFull_.begin(), scratchFull_.end());
    p.lazy.assign(lazyPreds.begin(), lazyPreds.end());
    p.sync.assign(syncPreds.begin(), syncPreds.end());
  }

  // History updates (after race checks and hashes). Each touchHistory call
  // undo-logs the history's pre-image on its first update since the last
  // checkpoint — and must precede taking the reference it guards (the
  // history() call inside may grow objects_).
  switch (ev.kind) {
    case OpKind::Read: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      h.readersSinceWrite.push_back(index);
      if (options_.detectRaces) {
        bool found = false;
        for (auto& [tid, evIdx] : h.lastReadPerThread) {
          if (tid == t) {
            evIdx = index;
            found = true;
            break;
          }
        }
        if (!found) h.lastReadPerThread.emplace_back(t, index);
      }
      break;
    }
    case OpKind::Write:
    case OpKind::Rmw:
    case OpKind::Flush: {
      if (ev.kind == OpKind::Write && ev.aux == 1) {
        // Buffered store: memory (and therefore the mirror, the reader
        // set, and the value-state accumulator) is untouched until the
        // matching Flush below commits it.
        break;
      }
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      h.lastWrite = index;
      h.readersSinceWrite.clear();
      // Final-visible effect: swap the variable's (uid, value) pair in the
      // value-state accumulator for the committed post-value. Overwritten
      // intermediate values leave no trace — that is where value
      // equivalence prunes beyond the lazy HBR.
      const std::uint64_t committed = ev.valueHash;
      if (committed != h.valueHash) {
        valueState_.remove(support::hash128(h.uid, h.valueHash));
        valueState_.add(support::hash128(h.uid, committed));
        h.valueHash = committed;
      }
      if (options_.detectRaces) {
        h.lastWriteEvent = index;
        h.lastReadPerThread.clear();
      }
      break;
    }
    case OpKind::Lock: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      h.mutexOpsSinceTryLock.push_back(index);
      break;
    }
    case OpKind::Unlock: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      h.mutexOpsSinceTryLock.push_back(index);
      h.lastReleaseEvent = index;
      break;
    }
    case OpKind::TryLock: {
      touchHistory(ev.objectIndex);
      ObjectHistory& h = history(ev.objectIndex);
      h.lastChainOp = index;
      h.chain.push_back(index);
      h.lastTryLock = index;
      h.mutexOpsSinceTryLock.clear();
      break;
    }
    case OpKind::Wait: {
      touchHistory(ev.objectIndex);
      touchHistory(ev.mutexIndex);
      ObjectHistory& cv = history(ev.objectIndex);
      cv.lastChainOp = index;
      cv.chain.push_back(index);
      // The waiter parks at the back of the condvar's FIFO queue.
      valueState_.remove(cvQueueContribution(cv));
      cv.cvQueue.push_back(ev.threadUid);
      valueState_.add(cvQueueContribution(cv));
      ObjectHistory& m = history(ev.mutexIndex);
      m.lastChainOp = index;
      m.chain.push_back(index);
      m.mutexOpsSinceTryLock.push_back(index);
      m.lastReleaseEvent = index;  // wait releases the mutex
      break;
    }
    case OpKind::Reacquire: {
      touchHistory(ev.objectIndex);
      touchHistory(ev.mutexIndex);
      ObjectHistory& cv = history(ev.objectIndex);
      cv.lastChainOp = index;
      cv.chain.push_back(index);
      ObjectHistory& m = history(ev.mutexIndex);
      m.lastChainOp = index;
      m.chain.push_back(index);
      m.mutexOpsSinceTryLock.push_back(index);
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
      h.lastChainOp = index;
      h.chain.push_back(index);
      // Signal wakes the queue's front (FIFO); broadcast drains it. Mirror
      // the runtime's queue so the value fingerprint tracks wake order.
      if (ev.kind == OpKind::Signal && !h.cvQueue.empty()) {
        valueState_.remove(cvQueueContribution(h));
        h.cvQueue.erase(h.cvQueue.begin());
        valueState_.add(cvQueueContribution(h));
      } else if (ev.kind == OpKind::Broadcast && !h.cvQueue.empty()) {
        valueState_.remove(cvQueueContribution(h));
        h.cvQueue.clear();
        valueState_.add(cvQueueContribution(h));
      }
      break;
    }
    case OpKind::Yield:
    case OpKind::Fence:
      break;
  }

  threadLastEvent_[tIdx] = index;
  ++eventCount_;
}

void TraceRecorder::checkRace(const runtime::Execution& exec, const EventRecord& ev,
                              std::int32_t index) {
  ObjectHistory& h = history(ev.objectIndex);
  const ClockView myClock = syncClocks_.view(static_cast<std::size_t>(index));
  auto happensBefore = [&](std::int32_t earlier) {
    const int et = records_[static_cast<std::size_t>(earlier)].threadIndex;
    return syncClocks_.view(static_cast<std::size_t>(earlier)).get(et) <=
           myClock.get(et);
  };
  auto report = [&](std::int32_t earlier) {
    for (const RaceReport& r : races_) {
      if (r.objectUid == ev.objectUid) return;  // one report per object per run
    }
    RaceReport race;
    race.objectUid = ev.objectUid;
    race.objectName = exec.object(ev.objectIndex).name;
    race.firstEvent = earlier;
    race.secondEvent = index;
    races_.push_back(std::move(race));
  };
  // Any access races with a sync-concurrent earlier write.
  if (h.lastWriteEvent >= 0 && !happensBefore(h.lastWriteEvent)) {
    report(h.lastWriteEvent);
    return;
  }
  // A write additionally races with sync-concurrent earlier reads.
  if (ev.kind != OpKind::Read) {
    for (const auto& [tid, readEvent] : h.lastReadPerThread) {
      if (tid != ev.threadIndex && !happensBefore(readEvent)) {
        report(readEvent);
        return;
      }
    }
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
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  return records_[static_cast<std::size_t>(index)];
}

ClockView TraceRecorder::eventClock(Relation r, std::int32_t index) const {
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  return arena(r).view(static_cast<std::size_t>(index));
}

support::Hash128 TraceRecorder::eventHash(Relation r, std::int32_t index) const {
  LAZYHB_CHECK(index >= 0 && static_cast<std::size_t>(index) < eventCount_);
  switch (r) {
    case Relation::Full: return fullHash_[static_cast<std::size_t>(index)];
    case Relation::Lazy: return lazyHash_[static_cast<std::size_t>(index)];
    case Relation::Sync:
    case Relation::Value:  // value contributions are not causal hashes
      break;
  }
  LAZYHB_UNREACHABLE("no per-event hash is maintained for this relation");
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
  out.clear();
  const runtime::PendingOp& op = exec.pending(tid);
  if (!op.valid) return;
  auto push = [&](std::int32_t p) {
    if (p >= 0) out.push_back(p);
  };
  auto chained = [&](std::int32_t objectIndex) {
    if (objectIndex >= 0 && static_cast<std::size_t>(objectIndex) < objectCount_) {
      push(objects_[static_cast<std::size_t>(objectIndex)].lastChainOp);
    }
  };
  switch (op.kind) {
    case OpKind::Read: {
      if (op.object >= 0 && static_cast<std::size_t>(op.object) < objectCount_) {
        push(objects_[static_cast<std::size_t>(op.object)].lastWrite);
      }
      break;
    }
    case OpKind::Write:
    case OpKind::Rmw:
    case OpKind::Flush: {
      // A pending Write may turn out to buffer under TSO (no memory
      // conflicts until its Flush); treating it as a memory write here is
      // conservative — DPOR explores at most extra interleavings, never
      // fewer. A Flush pick is always a memory write of the buffer head.
      if (op.object >= 0 && static_cast<std::size_t>(op.object) < objectCount_) {
        const ObjectHistory& h = objects_[static_cast<std::size_t>(op.object)];
        push(h.lastWrite);
        for (const std::int32_t r : h.readersSinceWrite) push(r);
      }
      break;
    }
    case OpKind::Lock:
    case OpKind::Unlock:
    case OpKind::TryLock:
      chained(op.object);
      break;
    case OpKind::Wait:
    case OpKind::Reacquire:
      chained(op.object);       // condvar chain
      chained(op.mutexObject);  // mutex chain
      break;
    case OpKind::Signal:
    case OpKind::Broadcast:
    case OpKind::SemAcquire:
    case OpKind::SemRelease:
      chained(op.object);
      break;
    case OpKind::Spawn:
    case OpKind::Join:
    case OpKind::Yield:
    case OpKind::Fence:
      break;  // not reorderable in a way DPOR can exploit
  }
  sortUnique(out);
}

const std::vector<std::int32_t>& TraceRecorder::chainEvents(std::int32_t objectIndex) const {
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
