#include "explore/dfs_explorer.hpp"

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

bool TreeSearchState::advance() {
  while (!nodes.empty()) {
    SearchNode& node = nodes.back();
    node.done.insert(node.chosen);
    const support::ThreadSet remaining = node.enabled.minus(node.done);
    if (!remaining.empty()) {
      node.chosen = remaining.first();
      checkFromDepth = nodes.size() - 1;
      return true;
    }
    nodes.pop_back();
  }
  return false;
}

TreeScheduler::TreeScheduler(TreeSearchState& state, std::function<bool()> prunePrefix,
                             PrefixReplayEngine* engine, std::size_t startDepth)
    : state_(state),
      prunePrefix_(std::move(prunePrefix)),
      engine_(engine),
      depth_(startDepth) {}

int TreeScheduler::pick(runtime::Execution& exec) {
  // The event committed by the previous pick is the deepest prefix; test it
  // against the prune hook unless it was a replay.
  if (prunePrefix_ && depth_ > 0 && depth_ - 1 >= state_.checkFromDepth) {
    if (prunePrefix_()) {
      return kAbandon;
    }
  }
  if (depth_ < state_.nodes.size()) {
    const SearchNode& node = state_.nodes[depth_];
    LAZYHB_CHECK(exec.enabled().contains(node.chosen));
    // A replayed node with unexplored siblings left is a future divergence
    // point: keep it checkpointed.
    if (engine_ != nullptr &&
        !node.enabled.minus(node.done).minus(support::ThreadSet::single(node.chosen))
             .empty()) {
      engine_->stageCheckpoint(exec, depth_);
    }
    ++depth_;
    return node.chosen;
  }
  SearchNode node;
  node.enabled = exec.enabled();
  node.chosen = node.enabled.first();
  state_.nodes.push_back(node);
  if (engine_ != nullptr && node.enabled.size() > 1) {
    engine_->stageCheckpoint(exec, depth_);
  }
  ++depth_;
  return node.chosen;
}

DfsExplorer::DfsExplorer(ExplorerOptions options,
                         std::optional<trace::Relation> cacheKey)
    : ExplorerBase(options), cacheKey_(cacheKey) {
  if (cacheKey_) {
    LAZYHB_CHECK(*cacheKey_ != trace::Relation::Sync);
    cache_.emplace();
  }
}

void DfsExplorer::runSearch(const Program& program) {
  std::function<bool()> prunePrefix;
  if (cache_) {
    prunePrefix = [this] {
      return cache_->checkAndInsert(recorder().fingerprint(*cacheKey_));
    };
  }
  TreeSearchState state;
  std::size_t startDepth = 0;
  for (;;) {
    if (budgetExhausted()) {
      result().hitScheduleLimit = true;
      return;
    }
    if (shouldStopForViolation()) {
      return;
    }
    TreeScheduler scheduler(state, prunePrefix, &prefixEngine(), startDepth);
    const runtime::Outcome outcome = executeSchedule(program, scheduler);
    if (cache_ && outcome != runtime::Outcome::Abandoned &&
        recorder().eventCount() > 0) {
      // The final event's prefix is never tested by the scheduler (there is
      // no further pick); seed it so later executions can prune against it.
      cache_->insert(recorder().fingerprint(*cacheKey_));
    }
    if (!state.advance()) {
      markComplete();
      return;
    }
    startDepth = prefixEngine().prepareNext(state.checkFromDepth);
  }
}

}  // namespace lazyhb::explore
