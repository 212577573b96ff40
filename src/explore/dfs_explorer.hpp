// lazyhb/explore/dfs_explorer.hpp
//
// The depth-first search of the schedule tree, optionally pruned by a
// prefix cache, and the reusable tree-search machinery (search stack +
// replaying scheduler) it and the parallel explorer are built from.
//
// The search tree has one node per scheduling point; a node's children are
// the enabled threads at that point. The walk is driven by a persistent
// schedule-tree cursor: advance() names the divergence depth of the next
// schedule, and the prefix-replay engine (explore/prefix_replay.hpp)
// decides how to get back there — rolling a persistent execution back to a
// staged checkpoint (nothing before the divergence is re-executed), or
// re-executing with the prefix of choices replayed (the stateless
// fallback). TreeScheduler replays any residual prefix from its start
// depth, stages checkpoints at nodes the search will revisit, and
// distinguishes replays from the new suffix (checkFromDepth) so prune
// hooks — the HBR caches — never test a schedule against its own
// previously explored path.
//
// HBR caching, lazy HBR caching (paper §2, "Lazy HBR caching") and
// value-class caching are this one search keyed on a relation: after every
// newly chosen event, the fingerprint of the executed prefix under the key
// is looked up in a global cache. A hit means an equivalent prefix — one
// reaching the same program state, by Theorem 2.1 (Full key) or Theorem
// 2.2 (Lazy key) — was explored before, so the current schedule is
// redundant and is abandoned. The Full key is Musuvathi–Qadeer HBR
// caching; the Lazy key is the paper's contribution, which prunes strictly
// more because lazy classes are coarser. The Value key prunes on the
// observation fingerprint (same operations, same values observed, same
// visible state — the value-centric DPOR framing), which is coarser still:
// lazy-equal prefixes are always value-equal. Figure 3 of the paper
// compares the Full and Lazy keys under a common schedule budget;
// caching-value extends that A/B.

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/hbr_cache.hpp"
#include "explore/explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "support/thread_set.hpp"

namespace lazyhb::explore {

/// One node of the DFS tree: the enabled set met at first visit, the
/// children already fully explored, and the child being explored now.
struct SearchNode {
  support::ThreadSet enabled;
  support::ThreadSet done;
  int chosen = -1;
};

/// The mutable search state threaded through executions.
struct TreeSearchState {
  std::vector<SearchNode> nodes;
  /// Depth of the first choice that differs from the previous execution;
  /// events at shallower depths are replays.
  std::size_t checkFromDepth = 0;

  /// Advance to the next unexplored sibling, deepest first. Truncates the
  /// stack below the flipped node. Returns false when the tree is exhausted.
  bool advance();
};

/// Scheduler that replays `state.nodes` and extends the tree depth-first.
/// `prunePrefix`, when set, is consulted once after every *new* (non-replay)
/// event; returning true abandons the execution (subtree pruned).
/// `engine`, when set, is asked to stage a checkpoint at every node the
/// search will revisit; `startDepth` is the absolute depth a rolled-back
/// execution resumes from (0 for a fresh run).
class TreeScheduler final : public runtime::Scheduler {
 public:
  explicit TreeScheduler(TreeSearchState& state,
                         std::function<bool()> prunePrefix = {},
                         PrefixReplayEngine* engine = nullptr,
                         std::size_t startDepth = 0);

  int pick(runtime::Execution& exec) override;

 private:
  TreeSearchState& state_;
  std::function<bool()> prunePrefix_;
  PrefixReplayEngine* engine_;
  std::size_t depth_;
};

/// Depth-first enumeration of the schedule tree. Without a cache key it
/// visits every schedule (up to the limit): the naive baseline every
/// reduction is measured against, and the oracle the property tests compare
/// DPOR and the caching searches to. With a key it is prefix caching on that
/// relation (see the header comment).
class DfsExplorer final : public ExplorerBase {
 public:
  /// `cacheKey`, when set, must be Full (HBR caching), Lazy (lazy HBR
  /// caching) or Value (value-class caching).
  explicit DfsExplorer(ExplorerOptions options,
                       std::optional<trace::Relation> cacheKey = {});

 protected:
  void runSearch(const Program& program) override;
  [[nodiscard]] const core::HbrCache* prefixCache() const noexcept override {
    return cache_ ? &*cache_ : nullptr;
  }

 private:
  std::optional<trace::Relation> cacheKey_;
  std::optional<core::HbrCache> cache_;  ///< constructed only with a key
};

}  // namespace lazyhb::explore
