// lazyhb/explore/dpor_explorer.hpp
//
// Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005) with
// sleep sets — the POR technique the paper's Figure 2 experiment runs (it
// uses the regular HBR). It is the tree search of explore/dfs_explorer.hpp
// (TreeSearchState, TreeScheduler, DfsExplorer's loop) under this
// explorer's TreeReduction: the race analysis, the sleep rule and the Full
// clock rows the race analysis reads.
//
// At every new state along the current path, for every thread p with a
// pending operation, DPOR finds the most recent executed event i that is
// dependent with p's operation, may be co-enabled with it, and does not
// happen-before it. Such an (i, p) pair is a race the current schedule
// ordered one way; exploring p first from the state *before* i covers the
// other way, so p (or, if p was not enabled there, some thread that can lead
// to p) is added to that state's backtrack set, its node's `todo`. The
// search then only descends into `todo` children instead of all enabled
// children.
//
// Sleep sets additionally prune schedules that merely commute independent
// transitions already explored at the same node. DPOR consults no prefix
// cache: its coverage argument assumes a subtree, once entered, is explored
// to its backtrack-completion, which a cache prune can violate.

#pragma once

#include <cstdint>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "support/thread_set.hpp"

namespace lazyhb::explore {

class DporExplorer final : public DfsExplorer, private TreeReduction {
 public:
  explicit DporExplorer(ExplorerOptions options);

 private:
  /// The Flanagan–Godefroid backtrack-set update, for every thread with a
  /// pending operation (enabled or blocked).
  void analyzeRaces(const runtime::Execution& exec,
                    std::vector<SearchNode>& nodes) override;

  /// Threads asleep at `node` (or already fully explored there) whose
  /// pending operation is independent of the transition just chosen.
  [[nodiscard]] support::ThreadSet childSleep(const runtime::Execution& exec,
                                              const SearchNode& node) override;

  std::vector<std::int32_t> conflictScratch_;  ///< findCandidate's, reused
};

}  // namespace lazyhb::explore
