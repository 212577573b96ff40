#include "explore/dpor_explorer.hpp"

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

using core::OpSig;
using trace::Relation;

/// Per-execution scheduler driving the DPOR search state. Depth in the tree
/// equals the global event index (one pick commits one event), so
/// nodes_[i] is the state from which event i was chosen.
class DporScheduler final : public runtime::Scheduler {
 public:
  DporScheduler(DporExplorer& owner, std::size_t startDepth)
      : owner_(owner), depth_(startDepth) {}

  int pick(runtime::Execution& exec) override {
    if (depth_ < owner_.nodes_.size()) {
      // Replay (or enter the flipped sibling at the deepest retained node).
      const auto& node = owner_.nodes_[depth_];
      LAZYHB_CHECK(exec.enabled().contains(node.chosen));
      // Backtrack-aware staging: checkpoint only where the search is
      // *known* to return — an unexplored thread already sits in the
      // node's backtrack set. A backtrack point added later by a deeper
      // race analysis finds no stage here and falls back to the deepest
      // surviving shallower one (or a full restart); trading that rare
      // extra replay for not snapshotting every multi-enabled node on the
      // way down is the point of the policy. Counts are unaffected —
      // staging never changes which schedules run.
      if (!node.backtrack.minus(node.done)
               .minus(support::ThreadSet::single(node.chosen))
               .empty()) {
        owner_.prefixEngine().stageCheckpoint(exec, depth_);
      }
      stashChildSleep(exec, depth_, node.chosen);
      ++depth_;
      return node.chosen;
    }

    // New state: perform the DPOR race analysis before extending the path.
    analyzeRaces(exec);

    DporExplorer::DporNode node;
    node.enabled = exec.enabled();
    node.sleepIn = pendingSleep_;
    const support::ThreadSet candidates = node.enabled.minus(node.sleepIn);
    if (candidates.empty()) {
      return kAbandon;  // every enabled transition is covered elsewhere
    }
    node.chosen = candidates.first();
    node.backtrack = support::ThreadSet::single(node.chosen);
    owner_.nodes_.push_back(node);
    // A new node's backtrack set is just {chosen}: the search is not (yet)
    // known to return here, so nothing is staged. If a race analysis later
    // schedules a sibling, the first replay through this node stages it via
    // the backtrack-aware test above.
    stashChildSleep(exec, depth_, node.chosen);
    ++depth_;
    return node.chosen;
  }

 private:
  /// True iff executed event j happens-before thread p's next transition
  /// under the Full relation.
  [[nodiscard]] bool happensBeforeNext(std::int32_t j, int p) const {
    const auto& record = owner_.recorder().eventRecord(j);
    const int tj = record.threadIndex;
    if (tj == p) return true;
    return owner_.recorder().eventClock(Relation::Full, j).get(tj) <=
           owner_.recorder().threadClock(Relation::Full, p).get(tj);
  }

  /// FG candidate: the most recent executed event that is dependent with
  /// p's pending operation, may be co-enabled with it, and does not
  /// happen-before it. Returns -1 if none.
  [[nodiscard]] std::int32_t findCandidate(const runtime::Execution& exec, int p,
                                           const OpSig& sigP) {
    const runtime::PendingOp& op = exec.pending(p);
    auto walkChain = [&](std::int32_t objectIndex) -> std::int32_t {
      const auto& chain = owner_.recorder().chainEvents(objectIndex);
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const std::int32_t j = *it;
        const OpSig sigJ = core::sigOf(owner_.recorder().eventRecord(j));
        if (!core::mayBeCoEnabled(sigJ, sigP)) continue;
        // Chain events are totally ordered, so the first happens-before
        // event screens off everything earlier.
        if (happensBeforeNext(j, p)) return -1;
        return j;
      }
      return -1;
    };
    switch (op.kind) {
      case runtime::OpKind::Read:
      case runtime::OpKind::Write:
      case runtime::OpKind::Rmw:
      case runtime::OpKind::Flush: {  // pending flush pick: a memory write
        owner_.recorder().collectConflicts(exec, p, conflictScratch_);
        for (auto it = conflictScratch_.rbegin(); it != conflictScratch_.rend(); ++it) {
          if (!happensBeforeNext(*it, p)) return *it;
          // Reads since the last write are mutually unordered: a deeper
          // happens-before read does not screen off shallower ones, so keep
          // scanning.
        }
        return -1;
      }
      case runtime::OpKind::Wait:
      case runtime::OpKind::Reacquire: {
        const std::int32_t a = walkChain(op.object);       // condvar chain
        const std::int32_t b = walkChain(op.mutexObject);  // mutex chain
        return a > b ? a : b;
      }
      case runtime::OpKind::Lock:
      case runtime::OpKind::Unlock:
      case runtime::OpKind::TryLock:
      case runtime::OpKind::Signal:
      case runtime::OpKind::Broadcast:
      case runtime::OpKind::SemAcquire:
      case runtime::OpKind::SemRelease:
      case runtime::OpKind::Join:
        return walkChain(op.object);
      case runtime::OpKind::Spawn:
      case runtime::OpKind::Yield:
      case runtime::OpKind::Fence:
        return -1;
    }
    return -1;
  }

  /// The FG backtrack-set update, run once per new state for every thread
  /// with a pending operation (enabled or blocked).
  void analyzeRaces(const runtime::Execution& exec) {
    const auto eventCount = static_cast<std::int32_t>(owner_.recorder().eventCount());
    // pickLimit() spans the flush-pick range under TSO, so pending flushes
    // participate in the backtrack analysis like any other transition.
    for (int p = 0; p < exec.pickLimit(); ++p) {
      const runtime::PendingOp& op = exec.pending(p);
      if (!op.valid) continue;
      const OpSig sigP = core::sigOf(p, op);
      const std::int32_t i = findCandidate(exec, p, sigP);
      if (i < 0) continue;
      DporExplorer::DporNode& target = owner_.nodes_[static_cast<std::size_t>(i)];
      // Whenever a thread is added to a backtrack set it must also be woken
      // (removed from the node's sleep set): a sleeping thread is filtered
      // by the sibling-selection, so a race whose reversal thread is asleep
      // would otherwise never be explored — the classic DPOR/sleep-set
      // interaction that SDPOR's wakeup trees solve exactly; waking is the
      // simple sound approximation (it only adds exploration).
      if (target.enabled.contains(p)) {
        target.backtrack.insert(p);
        target.sleepIn.erase(p);
        continue;
      }
      // E = threads enabled at pre(i) that executed an event after i which
      // happens-before p's next transition; any one of them suffices.
      support::ThreadSet eSet;
      for (std::int32_t j = i + 1; j < eventCount; ++j) {
        if (happensBeforeNext(j, p)) {
          eSet.insert(owner_.recorder().eventRecord(j).threadIndex);
        }
      }
      eSet = eSet.intersect(target.enabled);
      if (!eSet.empty()) {
        // Prefer a member that is not asleep; wake one only if all are.
        const support::ThreadSet awake = eSet.minus(target.sleepIn);
        const int q = awake.empty() ? eSet.first() : awake.first();
        target.backtrack.insert(q);
        target.sleepIn.erase(q);
      } else {
        target.backtrack = target.backtrack.unionWith(target.enabled);
        target.sleepIn = target.sleepIn.minus(target.enabled);
      }
    }
  }

  /// Sleep set handed to the next-deeper node: threads asleep here (or
  /// already fully explored here) whose pending operation is independent of
  /// the transition just chosen.
  void stashChildSleep(const runtime::Execution& exec, std::size_t depth, int chosen) {
    pendingSleep_.clear();
    const auto& node = owner_.nodes_[depth];
    const support::ThreadSet sleepers = node.sleepIn.unionWith(node.done);
    if (sleepers.empty()) return;
    const OpSig chosenSig = core::sigOf(chosen, exec.pending(chosen));
    for (const int q : sleepers) {
      if (q == chosen) continue;
      const runtime::PendingOp& opQ = exec.pending(q);
      if (!opQ.valid) continue;
      if (!core::dependent(core::sigOf(q, opQ), chosenSig, Relation::Full)) {
        pendingSleep_.insert(q);
      }
    }
  }

  DporExplorer& owner_;
  std::size_t depth_;
  support::ThreadSet pendingSleep_;
  std::vector<std::int32_t> conflictScratch_;
};

DporExplorer::DporExplorer(ExplorerOptions options)
    : ExplorerBase(options, /*fullClocks=*/true) {}

bool DporExplorer::advance() {
  while (!nodes_.empty()) {
    DporNode& node = nodes_.back();
    node.done.insert(node.chosen);
    const support::ThreadSet next =
        node.backtrack.minus(node.done).minus(node.sleepIn);
    if (!next.empty()) {
      node.chosen = next.first();
      checkFromDepth_ = nodes_.size() - 1;
      return true;
    }
    nodes_.pop_back();
  }
  return false;
}

void DporExplorer::runSearch(const Program& program) {
  nodes_.clear();
  checkFromDepth_ = 0;
  std::size_t startDepth = 0;
  for (;;) {
    if (budgetExhausted()) {
      result().hitScheduleLimit = true;
      return;
    }
    if (shouldStopForViolation()) {
      return;
    }
    DporScheduler scheduler(*this, startDepth);
    (void)executeSchedule(program, scheduler);
    if (!advance()) {
      markComplete();
      return;
    }
    startDepth = prefixEngine().prepareNext(checkFromDepth_);
  }
}

}  // namespace lazyhb::explore
