#include "explore/prefix_replay.hpp"

#include <algorithm>
#include <utility>

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

PrefixReplayEngine::PrefixReplayEngine(runtime::StackPool& stackPool,
                                       trace::TraceRecorder& recorder,
                                       bool incremental, bool runtimeRollback,
                                       std::uint64_t snapshotBudgetBytes)
    : stackPool_(stackPool), recorder_(recorder) {
  configure(incremental, runtimeRollback, snapshotBudgetBytes);
}

void PrefixReplayEngine::configure(bool incremental, bool runtimeRollback,
                                   std::uint64_t snapshotBudgetBytes) {
  LAZYHB_CHECK(stages_.empty() && stagesCreated_ == 0);
  incremental_ = incremental;
  runtimeRollback_ = incremental && runtimeRollback;
  budgetBytes_ = snapshotBudgetBytes;
  LAZYHB_CHECK(!runtimeRollback_ || runtime::Execution::checkpointingSupported());
}

void PrefixReplayEngine::quiesce() {
  // A restart runs whatever a resumable run left suspended to its end and
  // retires every thread, releasing its closure.
  if (exec_ != nullptr) exec_->restart(runtime::Config{}, nullptr);
  while (!stages_.empty()) recycle(stages_.end() - 1);
  evictedDepths_.clear();
  pendingResume_ = false;
  recorderArmed_ = false;
  pendingDepth_ = 0;
  pendingReplayed_ = 0;
  eventsElided_ = 0;
  eventsReplayed_ = 0;
  rollbacks_ = 0;
  stagesCreated_ = 0;
  bytesStaged_ = 0;
  evictions_ = 0;
  replayFallbacks_ = 0;
}

void PrefixReplayEngine::stageCheckpoint(runtime::Execution& exec, std::size_t depth) {
  if (!incremental_) return;
  // While the recorder is skipping a replayed prefix its depth lags the
  // scheduler's; those depths are already staged from an earlier schedule.
  if (recorder_.eventCount() != depth) return;
  if (!stages_.empty() && stages_.back()->depth == depth) return;
  // Staging deepens monotonically between rollbacks.
  LAZYHB_CHECK(stages_.empty() || stages_.back()->depth < depth);
  Stage& stage = pushStage();
  stage.depth = depth;
  stage.bytes = recorder_.capture(stage.recorder);
  if (runtimeRollback_) {
    LAZYHB_CHECK(&exec == exec_.get());
    stage.bytes += exec.capture(stage.exec);
  }
  liveBytes_ += stage.bytes;
  ++stagesCreated_;
  bytesStaged_ += stage.bytes;
  enforceBudget();
}

PrefixReplayEngine::Stage& PrefixReplayEngine::pushStage() {
  if (pool_.empty()) {
    stages_.push_back(std::make_unique<Stage>());
  } else {
    stages_.push_back(std::move(pool_.back()));
    pool_.pop_back();
  }
  return *stages_.back();
}

void PrefixReplayEngine::recycle(std::vector<std::unique_ptr<Stage>>::iterator stage) {
  liveBytes_ -= (*stage)->bytes;
  (*stage)->exec.release();
  pool_.push_back(std::move(*stage));
  stages_.erase(stage);
}

void PrefixReplayEngine::enforceBudget() {
  if (budgetBytes_ == 0) return;
  // Shallowest-first: of all live stages the shallowest is the one furthest
  // from the frontier of the deepest-first tree walk, i.e. the one whose
  // next use is furthest in the future. Its undo-log entries stay in place,
  // so rolling back past it to a shallower stage still works.
  while (liveBytes_ > budgetBytes_ && stages_.size() > 1) {
    evictedDepths_.push_back(stages_.front()->depth);
    ++evictions_;
    recycle(stages_.begin());
  }
}

std::size_t PrefixReplayEngine::prepareNext(std::size_t divergenceDepth) {
  pendingResume_ = false;
  recorderArmed_ = false;
  pendingDepth_ = 0;
  pendingReplayed_ = divergenceDepth;
  if (!incremental_) return 0;

  // The rollback target is the deepest stage at or below the divergence;
  // deeper stages lie in finished subtrees.
  while (!stages_.empty() && stages_.back()->depth > divergenceDepth) {
    recycle(stages_.end() - 1);
  }
  const std::size_t target = stages_.empty() ? 0 : stages_.back()->depth;
  // A divergence that lands strictly above the target but at or below an
  // evicted depth is the cost of the budget: had that stage survived, the
  // rollback would have been deeper. Count it once per prepareNext; the
  // extra replay distance shows up in eventsReplayed either way. Evicted
  // depths above the target are finished subtrees or the just-counted
  // fallback; only shallower ones can still shadow a later divergence.
  bool fallback = false;
  for (const std::size_t e : evictedDepths_) {
    if (e > target && e <= divergenceDepth) fallback = true;
  }
  if (fallback) ++replayFallbacks_;
  evictedDepths_.erase(
      std::remove_if(evictedDepths_.begin(), evictedDepths_.end(),
                     [&](std::size_t e) { return e > target; }),
      evictedDepths_.end());

  // With no stage to resume from the next schedule runs fresh, and
  // beginSchedule drops the ledger.
  if (stages_.empty()) return 0;
  const Stage& stage = *stages_.back();
  if (runtimeRollback_) {
    // Depth 0 qualifies too: a walk rolled back to its first scheduling
    // point skips the execution's construction and thread 0's prologue.
    exec_->restore(stage.exec);
    recorder_.restore(stage.recorder);
    pendingResume_ = true;
    pendingDepth_ = stage.depth;
    pendingReplayed_ = divergenceDepth - stage.depth;
    ++rollbacks_;
    return stage.depth;
  }
  // The elision tier re-executes the prefix, still eliding the recorder's
  // share of it. A re-executed schedule re-registers its prologue objects,
  // so a depth-0 resume would count them twice: the recorder resets instead.
  if (stage.depth > 0) {
    recorder_.armResume(stage.recorder);
    recorderArmed_ = true;
  }
  return 0;
}

PrefixReplayEngine::Session PrefixReplayEngine::beginSchedule(
    const runtime::Config& config, runtime::ExecutionObserver* observer) {
  const std::size_t resumeDepth = std::exchange(pendingDepth_, 0);
  eventsElided_ += resumeDepth;
  eventsReplayed_ += std::exchange(pendingReplayed_, 0);
  if (std::exchange(pendingResume_, false)) {
    return Session{exec_.get(), true, resumeDepth};
  }
  // A fresh schedule the recorder does not resume into starts a new tree:
  // the recorder resets and the execution restarts, so no staged snapshot
  // stays valid.
  if (!std::exchange(recorderArmed_, false)) {
    while (!stages_.empty()) recycle(stages_.end() - 1);
    evictedDepths_.clear();
  }
  // The fresh schedule recycles the previous execution's storage: restarted
  // in place, it reuses its thread records, fibers, stacks and logs.
  if (exec_ == nullptr) {
    exec_ = std::make_unique<runtime::Execution>(config, stackPool_, observer);
  } else {
    exec_->restart(config, observer);
  }
  if (runtimeRollback_) exec_->enableResumable();
  return Session{exec_.get(), false, 0};
}

}  // namespace lazyhb::explore
