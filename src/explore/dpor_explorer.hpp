// lazyhb/explore/dpor_explorer.hpp
//
// Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005) with
// sleep sets — the POR technique the paper's Figure 2 experiment runs (it
// uses the regular HBR).
//
// At every new state along the current path, for every thread p with a
// pending operation, DPOR finds the most recent executed event i that is
// dependent with p's operation, may be co-enabled with it, and does not
// happen-before it. Such an (i, p) pair is a race the current schedule
// ordered one way; exploring p first from the state *before* i covers the
// other way, so p (or, if p was not enabled there, some thread that can lead
// to p) is added to that state's backtrack set. Depth-first search then only
// descends into backtrack-set children instead of all enabled children.
//
// Sleep sets additionally prune schedules that merely commute independent
// transitions already explored at the same node. DPOR consults no prefix
// cache: its coverage argument assumes a subtree, once entered, is explored
// to its backtrack-completion, which a cache prune can violate.

#pragma once

#include <vector>

#include "core/dependence.hpp"
#include "explore/explorer.hpp"
#include "support/thread_set.hpp"

namespace lazyhb::explore {

class DporExplorer final : public ExplorerBase {
 public:
  explicit DporExplorer(ExplorerOptions options);

 protected:
  void runSearch(const Program& program) override;

 private:
  struct DporNode {
    support::ThreadSet enabled;
    support::ThreadSet backtrack;
    support::ThreadSet done;
    support::ThreadSet sleepIn;  ///< threads asleep on entry to this node
    int chosen = -1;
  };

  friend class DporScheduler;

  /// Deepest-first sibling advance honouring backtrack and sleep sets.
  bool advance();

  std::vector<DporNode> nodes_;
  std::size_t checkFromDepth_ = 0;
};

}  // namespace lazyhb::explore
