#include "explore/random_explorer.hpp"

namespace lazyhb::explore {

int RandomScheduler::pick(runtime::Execution& exec) {
  if (rootStage_ != nullptr) {
    rootStage_->stageCheckpoint(exec, 0);
    rootStage_ = nullptr;
  }
  const support::ThreadSet enabled = exec.enabled();
  auto nth = rng_.below(static_cast<std::uint64_t>(enabled.size()));
  int tid = enabled.first();
  while (nth-- > 0) {
    tid = enabled.next(tid);
  }
  return tid;
}

void RandomExplorer::runSearch(const Program& program) {
  // On the runtime-rollback tier every walk after the first resumes the
  // persistent execution from its root checkpoint instead of constructing
  // a fresh one; the walks' choices and counts are the same either way.
  PrefixReplayEngine* root =
      prefixEngine().runtimeRollback() ? &prefixEngine() : nullptr;
  for (std::uint64_t k = 0; !budgetExhausted(); ++k) {
    if (shouldStopForViolation()) return;
    if (root != nullptr && k > 0) (void)root->prepareNext(0);
    RandomScheduler scheduler(support::mix64(seed_ + k), root);
    (void)executeSchedule(program, scheduler);
  }
  result().hitScheduleLimit = true;
}

}  // namespace lazyhb::explore
