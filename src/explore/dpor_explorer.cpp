#include "explore/dpor_explorer.hpp"

#include <cstdint>
#include <vector>

#include "core/dependence.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::explore {

using core::OpSig;
using trace::Relation;

namespace {

/// True iff executed event j happens-before thread p's next transition
/// under the Full relation.
bool happensBeforeNext(const trace::TraceRecorder& recorder, std::int32_t j, int p) {
  const int tj = recorder.eventRecord(j).threadIndex;
  if (tj == p) return true;
  return recorder.eventClock(Relation::Full, j).get(tj) <=
         recorder.threadClock(Relation::Full, p).get(tj);
}

/// FG candidate: the most recent executed event that is dependent with
/// p's pending operation, may be co-enabled with it, and does not
/// happen-before it. Returns -1 if none. `scratch` is reused across calls.
std::int32_t findCandidate(const trace::TraceRecorder& recorder,
                           const runtime::Execution& exec, int p, const OpSig& sigP,
                           std::vector<std::int32_t>& scratch) {
  const runtime::PendingOp& op = exec.pending(p);
  auto walkChain = [&](std::int32_t objectIndex) -> std::int32_t {
    const auto& chain = recorder.chainEvents(objectIndex);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const std::int32_t j = *it;
      const OpSig sigJ = core::sigOf(recorder.eventRecord(j));
      if (!core::mayBeCoEnabled(sigJ, sigP)) continue;
      // Chain events are totally ordered, so the first happens-before
      // event screens off everything earlier.
      if (happensBeforeNext(recorder, j, p)) return -1;
      return j;
    }
    return -1;
  };
  switch (op.kind) {
    case runtime::OpKind::Read:
    case runtime::OpKind::Write:
    case runtime::OpKind::Rmw:
    case runtime::OpKind::Flush: {  // pending flush pick: a memory write
      recorder.collectConflicts(exec, p, scratch);
      for (auto it = scratch.rbegin(); it != scratch.rend(); ++it) {
        if (!happensBeforeNext(recorder, *it, p)) return *it;
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

}  // namespace

DporExplorer::DporExplorer(ExplorerOptions options) : DfsExplorer(options, *this) {}

void DporExplorer::analyzeRaces(const runtime::Execution& exec,
                                std::vector<SearchNode>& nodes) {
  const trace::TraceRecorder& recorder = this->recorder();
  const auto eventCount = static_cast<std::int32_t>(recorder.eventCount());
  // pickLimit() spans the flush-pick range under TSO, so pending flushes
  // participate in the backtrack analysis like any other transition.
  for (int p = 0; p < exec.pickLimit(); ++p) {
    const runtime::PendingOp& op = exec.pending(p);
    if (!op.valid) continue;
    const OpSig sigP = core::sigOf(p, op);
    const std::int32_t i = findCandidate(recorder, exec, p, sigP, conflictScratch_);
    if (i < 0) continue;
    SearchNode& target = nodes[static_cast<std::size_t>(i)];
    // Whenever a thread is added to a backtrack set it must also be woken
    // (removed from the node's sleep set): a thread asleep at a node is not
    // to be explored there, so a race whose reversal thread is asleep
    // would otherwise never be explored — the classic DPOR/sleep-set
    // interaction that SDPOR's wakeup trees solve exactly; waking is the
    // simple sound approximation (it only adds exploration). The wake-up
    // also keeps a node's `todo` and `sleep` disjoint, which is why
    // TreeSearchState::advance() has no sleep filter; wakeup trees, which
    // drop the wake-up, must bring that filter back.
    if (target.enabled.contains(p)) {
      target.todo.insert(p);
      target.sleep.erase(p);
      continue;
    }
    // E = threads enabled at pre(i) that executed an event after i which
    // happens-before p's next transition; any one of them suffices.
    support::ThreadSet eSet;
    for (std::int32_t j = i + 1; j < eventCount; ++j) {
      if (happensBeforeNext(recorder, j, p)) {
        eSet.insert(recorder.eventRecord(j).threadIndex);
      }
    }
    eSet = eSet.intersect(target.enabled);
    if (!eSet.empty()) {
      // Prefer a member that is not asleep; wake one only if all are.
      const support::ThreadSet awake = eSet.minus(target.sleep);
      const int q = awake.empty() ? eSet.first() : awake.first();
      target.todo.insert(q);
      target.sleep.erase(q);
    } else {
      target.todo = target.todo.unionWith(target.enabled);
      target.sleep = target.sleep.minus(target.enabled);
    }
  }
}

support::ThreadSet DporExplorer::childSleep(const runtime::Execution& exec,
                                            const SearchNode& node) {
  support::ThreadSet sleep;
  const support::ThreadSet sleepers = node.sleep.unionWith(node.done);
  if (sleepers.empty()) return sleep;
  const OpSig chosenSig = core::sigOf(node.chosen, exec.pending(node.chosen));
  for (const int q : sleepers) {
    if (q == node.chosen) continue;
    const runtime::PendingOp& opQ = exec.pending(q);
    if (!opQ.valid) continue;
    if (!core::dependent(core::sigOf(q, opQ), chosenSig, Relation::Full)) {
      sleep.insert(q);
    }
  }
  return sleep;
}

}  // namespace lazyhb::explore
