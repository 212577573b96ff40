// lazyhb/explore/dfs_explorer.hpp
//
// The depth-first search of the schedule tree, optionally pruned by a
// prefix cache or reduced by DPOR, and the reusable tree-search machinery
// (search stack + replaying scheduler) that dfs, the caching keys, DPOR
// and the parallel explorer all run on.
//
// The search tree has one node per scheduling point; a node's children are
// the enabled threads at that point, and its `todo` set names the ones the
// search visits: all of them, or DPOR's backtrack set. The walk is driven
// by a persistent schedule-tree cursor: advance() names the divergence
// depth of the next schedule, and the prefix-replay engine
// (explore/prefix_replay.hpp) decides how to get back there — rolling a
// persistent execution back to a staged checkpoint (nothing before the
// divergence is re-executed), or re-executing with the prefix of choices
// replayed (the stateless fallback). TreeScheduler replays any residual
// prefix from its start depth, stages checkpoints at nodes the search will
// revisit, and distinguishes replays from the new suffix (checkFromDepth)
// so prune hooks — the HBR caches — never test a schedule against its own
// previously explored path. A TreeReduction (DPOR, explore/dpor_explorer.hpp)
// fills `todo` sets by race analysis and puts threads to sleep.
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

/// One node of the search tree: the enabled set met at first visit, the
/// children the search must visit, the children already fully explored,
/// the child being explored now, and the threads asleep on entry.
struct SearchNode {
  support::ThreadSet enabled;
  /// All of `enabled` for dfs and the caching keys; DPOR's backtrack set.
  support::ThreadSet todo;
  support::ThreadSet done;
  /// Set only under a TreeReduction; never shares a thread with `todo`.
  support::ThreadSet sleep;
  int chosen = -1;
};

/// The mutable search state threaded through executions.
struct TreeSearchState {
  std::vector<SearchNode> nodes;
  /// Depth of the first choice that differs from the previous execution;
  /// events at shallower depths are replays.
  std::size_t checkFromDepth = 0;

  /// Advance to the next child in `todo \ done`, deepest node first.
  /// Truncates the stack below the flipped node. Returns false when the
  /// tree is exhausted.
  bool advance();
};

/// A partial-order reduction of the tree search: DPOR
/// (explore/dpor_explorer.hpp). Under one, a new node's `todo` starts as its
/// first awake child, and only the race analysis adds to it.
class TreeReduction {
 public:
  /// At a state reached for the first time, before its node is pushed
  /// (node i chose event i): add race-reversing threads to earlier nodes'
  /// `todo` sets.
  virtual void analyzeRaces(const runtime::Execution& exec,
                            std::vector<SearchNode>& nodes) = 0;
  /// After a pick at `node`: the next node's sleep set.
  [[nodiscard]] virtual support::ThreadSet childSleep(const runtime::Execution& exec,
                                                      const SearchNode& node) = 0;

 protected:
  ~TreeReduction() = default;
};

/// Scheduler that replays `state.nodes` and extends the tree depth-first.
/// `prunePrefix`, when set, is consulted once after every *new* (non-replay)
/// event; returning true abandons the execution (subtree pruned).
/// `engine`, when set, is asked to stage a checkpoint at every node the
/// search will revisit; `startDepth` is the absolute depth a rolled-back
/// execution resumes from (0 for a fresh run). `reduction`, when set, is
/// run at every new state and after every pick (see TreeReduction); when
/// every enabled thread of a new state is asleep, the execution is
/// abandoned.
class TreeScheduler final : public runtime::Scheduler {
 public:
  explicit TreeScheduler(TreeSearchState& state,
                         std::function<bool()> prunePrefix = {},
                         PrefixReplayEngine* engine = nullptr,
                         std::size_t startDepth = 0,
                         TreeReduction* reduction = nullptr);

  int pick(runtime::Execution& exec) override;

 private:
  TreeSearchState& state_;
  std::function<bool()> prunePrefix_;
  PrefixReplayEngine* engine_;
  std::size_t depth_;
  TreeReduction* reduction_;
  support::ThreadSet childSleep_;  ///< the next new node's sleep set
};

/// Depth-first enumeration of the schedule tree. Without a cache key it
/// visits every schedule (up to the limit): the naive baseline every
/// reduction is measured against, and the oracle the property tests compare
/// DPOR and the caching searches to. With a key it is prefix caching on that
/// relation (see the header comment). DporExplorer is this search under its
/// reduction.
class DfsExplorer : public ExplorerBase {
 public:
  /// `cacheKey`, when set, must be Full (HBR caching), Lazy (lazy HBR
  /// caching) or Value (value-class caching).
  explicit DfsExplorer(ExplorerOptions options,
                       std::optional<trace::Relation> cacheKey = {});

 protected:
  /// The search under `reduction`, which reads Full clock rows; no cache.
  DfsExplorer(ExplorerOptions options, TreeReduction& reduction);

  void runSearch(const Program& program) final;
  [[nodiscard]] const core::HbrCache* prefixCache() const noexcept final {
    return cache_ ? &*cache_ : nullptr;
  }

 private:
  std::optional<trace::Relation> cacheKey_;
  std::optional<core::HbrCache> cache_;  ///< constructed only with a key
  TreeReduction* reduction_ = nullptr;
};

}  // namespace lazyhb::explore
