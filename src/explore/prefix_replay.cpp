#include "explore/prefix_replay.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

PrefixReplayEngine::PrefixReplayEngine(runtime::StackPool& stackPool,
                                       trace::TraceRecorder& recorder,
                                       bool incremental, bool runtimeRollback,
                                       std::uint64_t snapshotBudgetBytes)
    : stackPool_(stackPool),
      recorder_(recorder),
      incremental_(incremental),
      runtimeRollback_(incremental && runtimeRollback),
      budgetBytes_(snapshotBudgetBytes) {
  LAZYHB_CHECK(!runtimeRollback_ || runtime::Execution::checkpointingSupported());
}

void PrefixReplayEngine::stageCheckpoint(runtime::Execution& exec, std::size_t depth) {
  if (!incremental_) return;
  // While the recorder is skipping a replayed prefix its depth lags the
  // scheduler's; those depths are already staged from an earlier schedule.
  // The runtime side must not stage there either: exec and recorder
  // checkpoints are rolled back in lockstep by prepareNext, so a depth
  // staged on one but not the other would make that rollback fail.
  if (recorder_.eventCount() != depth) return;
  const bool fresh = stages_.empty() || stages_.back().depth < depth;
  recorder_.checkpoint();
  std::uint64_t execBytes = 0;
  if (runtimeRollback_) {
    LAZYHB_CHECK(&exec == exec_.get());
    // After a full restart the ledger can already hold recorder-only
    // stages; the fresh execution's first checkpoint then lands on a
    // ledgered depth and only the runtime share is new cost.
    const bool execFresh = exec.deepestCheckpointAtOrBelow(depth) != depth;
    exec.checkpoint();
    if (execFresh) execBytes = exec.checkpointApproxBytes(depth);
  }
  if (fresh) {
    StageInfo info;
    info.depth = depth;
    info.bytes = recorder_.checkpointApproxBytes(depth) + execBytes;
    stages_.push_back(info);
    liveBytes_ += info.bytes;
    ++stagesCreated_;
    bytesStaged_ += info.bytes;
  } else if (execBytes != 0) {
    stages_.back().bytes += execBytes;
    liveBytes_ += execBytes;
    bytesStaged_ += execBytes;
  } else {
    return;  // nothing new was pinned; budget unchanged
  }
  enforceBudget();
}

void PrefixReplayEngine::enforceBudget() {
  if (budgetBytes_ == 0) return;
  // Shallowest-first: of all live stages the shallowest is the one furthest
  // from the frontier of the deepest-first tree walk, i.e. the one whose
  // next use is furthest in the future. The deepest (just-staged) stage is
  // never evicted — it is the imminent rollback target.
  while (liveBytes_ > budgetBytes_ && stages_.size() > 1) {
    const StageInfo victim = stages_.front();
    stages_.erase(stages_.begin());
    liveBytes_ -= victim.bytes;
    (void)recorder_.evictCheckpoint(victim.depth);
    if (runtimeRollback_ && exec_ != nullptr) {
      (void)exec_->evictCheckpoint(victim.depth);
    }
    evictedDepths_.push_back(victim.depth);
    ++evictions_;
  }
}

void PrefixReplayEngine::settleStages(std::size_t keepAtOrBelow,
                                      std::size_t divergenceDepth,
                                      bool repriceRecorderOnly) {
  // A divergence that lands strictly above the surviving rollback target
  // but at or below an evicted depth is the cost of the budget: had that
  // stage survived, the rollback would have been deeper. Count it once per
  // prepareNext; the extra replay distance shows up in eventsReplayed
  // either way.
  bool fallback = false;
  for (const std::size_t e : evictedDepths_) {
    if (e > keepAtOrBelow && e <= divergenceDepth) fallback = true;
  }
  if (fallback) ++replayFallbacks_;
  // Evicted depths above the rollback target are finished subtrees or the
  // just-counted fallback; only shallower ones can still shadow a future,
  // shallower divergence.
  evictedDepths_.erase(
      std::remove_if(evictedDepths_.begin(), evictedDepths_.end(),
                     [&](std::size_t e) { return e > keepAtOrBelow; }),
      evictedDepths_.end());
  while (!stages_.empty() && stages_.back().depth > keepAtOrBelow) {
    liveBytes_ -= stages_.back().bytes;
    stages_.pop_back();
  }
  if (repriceRecorderOnly) {
    // The persistent execution was retired: surviving stages keep only
    // their recorder share alive, so re-price them before the next
    // enforceBudget sees stale runtime bytes.
    liveBytes_ = 0;
    for (StageInfo& s : stages_) {
      s.bytes = recorder_.checkpointApproxBytes(s.depth);
      liveBytes_ += s.bytes;
    }
  }
}

std::size_t PrefixReplayEngine::prepareNext(std::size_t divergenceDepth) {
  pendingResume_ = false;
  pendingStart_ = 0;
  pendingElided_ = 0;
  pendingReplayed_ = divergenceDepth;
  if (!incremental_) return 0;

  if (runtimeRollback_ && exec_ != nullptr) {
    // Depth 0 qualifies too: a walk rolled back to its first scheduling
    // point skips the execution's construction and thread 0's prologue.
    const std::size_t depth = exec_->deepestCheckpointAtOrBelow(divergenceDepth);
    if (depth != runtime::Execution::kNoCheckpoint) {
      exec_->rollbackTo(depth);
      recorder_.rollbackTo(depth);
      pendingResume_ = true;
      pendingStart_ = depth;
      pendingElided_ = depth;
      pendingReplayed_ = divergenceDepth - depth;
      ++rollbacks_;
      settleStages(depth, divergenceDepth, /*repriceRecorderOnly=*/false);
      return depth;
    }
    // No usable runtime checkpoint: retire the persistent execution (the
    // next beginSchedule restarts it in place, running its leftover fibers
    // forward first) and re-execute, still eliding the recorder's share of
    // the prefix below.
    retired_ = std::move(exec_);
  }

  // A re-executed schedule re-registers its prologue objects, so a depth-0
  // resume would count them twice: the recorder resets instead.
  const std::size_t depth = recorder_.deepestCheckpointAtOrBelow(divergenceDepth);
  const bool armed = depth != trace::TraceRecorder::kNoCheckpoint && depth > 0;
  if (armed) {
    recorder_.armResume(depth);
  }
  settleStages(armed ? depth : 0, divergenceDepth,
               /*repriceRecorderOnly=*/runtimeRollback_);
  if (!armed) {
    // The recorder resets on the next execution start, clearing every
    // staged checkpoint — drop the whole ledger to match.
    stages_.clear();
    evictedDepths_.clear();
    liveBytes_ = 0;
  }
  return 0;
}

PrefixReplayEngine::Session PrefixReplayEngine::beginSchedule(
    const runtime::Config& config, runtime::ExecutionObserver* observer) {
  eventsElided_ += pendingElided_;
  eventsReplayed_ += pendingReplayed_;
  pendingElided_ = 0;
  pendingReplayed_ = 0;
  if (pendingResume_) {
    pendingResume_ = false;
    return Session{exec_.get(), true, pendingStart_};
  }
  // A fresh schedule recycles the previous execution's storage: restarted
  // in place, it reuses its thread records, fibers, stacks and logs.
  if (exec_ == nullptr) exec_ = std::move(retired_);
  if (exec_ == nullptr) {
    exec_ = std::make_unique<runtime::Execution>(config, stackPool_, observer);
  } else {
    exec_->restart(config, observer);
  }
  if (runtimeRollback_) exec_->enableResumable();
  return Session{exec_.get(), false, 0};
}

}  // namespace lazyhb::explore
