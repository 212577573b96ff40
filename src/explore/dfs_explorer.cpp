#include "explore/dfs_explorer.hpp"

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

bool TreeSearchState::advance() {
  while (!nodes.empty()) {
    SearchNode& node = nodes.back();
    node.done.insert(node.chosen);
    const support::ThreadSet remaining = node.todo.minus(node.done);
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
                             PrefixReplayEngine* engine, std::size_t startDepth,
                             TreeReduction* reduction)
    : state_(state),
      prunePrefix_(std::move(prunePrefix)),
      engine_(engine),
      depth_(startDepth),
      reduction_(reduction) {}

bool TreeScheduler::revisited(const runtime::Execution& exec) const {
  const std::vector<SearchNode>& nodes = state_.nodes;
  if (depth_ < nodes.size()) {
    // A replayed node with children left to visit. Sleeping children
    // count: a deeper race analysis can wake them.
    const SearchNode& node = nodes[depth_];
    return !node.todo.minus(node.done).minus(support::ThreadSet::single(node.chosen))
                .empty();
  }
  // A new node whose `todo` will hold more than one thread.
  return reduction_ == nullptr && exec.enabled().size() > 1;
}

bool TreeScheduler::pickCapturesNothing(const runtime::Execution& exec) const {
  // The elision tier's stage captures only the recorder.
  return engine_ == nullptr || !engine_->runtimeRollback() || !revisited(exec);
}

int TreeScheduler::pick(runtime::Execution& exec) {
  // The event committed by the previous pick is the deepest prefix; test it
  // against the prune hook unless it was a replay.
  if (prunePrefix_ && depth_ > 0 && depth_ - 1 >= state_.checkFromDepth) {
    if (prunePrefix_()) {
      return kAbandon;
    }
  }
  // A node the search will revisit is a future divergence point: keep it
  // checkpointed.
  if (engine_ != nullptr && revisited(exec)) engine_->stageCheckpoint(exec, depth_);
  std::vector<SearchNode>& nodes = state_.nodes;
  if (depth_ < nodes.size()) {
    LAZYHB_CHECK(exec.enabled().contains(nodes[depth_].chosen));
  } else {
    SearchNode node;
    node.enabled = exec.enabled();
    if (reduction_ != nullptr) {
      reduction_->analyzeRaces(exec, nodes);
      node.sleep = childSleep_;
    }
    const support::ThreadSet awake = node.enabled.minus(node.sleep);
    if (awake.empty()) {
      return kAbandon;  // every enabled transition is covered elsewhere
    }
    node.chosen = awake.first();
    // Under a reduction the search is not (yet) known to return here.
    node.todo = reduction_ != nullptr ? support::ThreadSet::single(node.chosen)
                                      : node.enabled;
    nodes.push_back(node);
  }
  const SearchNode& node = nodes[depth_++];
  if (reduction_ != nullptr) {
    childSleep_ = reduction_->childSleep(exec, node);
  }
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

DfsExplorer::DfsExplorer(ExplorerOptions options, TreeReduction& reduction)
    : ExplorerBase(options, /*fullClocks=*/true), reduction_(&reduction) {}

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
    TreeScheduler scheduler(state, prunePrefix, &prefixEngine(), startDepth,
                            reduction_);
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
