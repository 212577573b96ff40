// lazyhb/explore/random_explorer.hpp
//
// Uniform random scheduling: each schedule picks uniformly among the
// enabled threads at every point. No reduction — this is the quick-and-dirty
// bug hunter and the fuzzing backend of the property-test suite (random
// schedules put diverse linearizations under the Theorem 2.1/2.2 and
// value-soundness conflict counts).
// Deterministic given (seed): schedule k is reproducible from seed+k.
// Walks share no prefix beyond the root, so on the runtime-rollback tier
// (checkpointable program, fast-fiber build) each walk after the first
// rolls the persistent execution back to its first scheduling point.

#pragma once

#include "explore/explorer.hpp"
#include "support/rng.hpp"

namespace lazyhb::explore {

/// One walk's scheduler: a uniform pick among the enabled picks.
/// `rootStage`, when set, gets a checkpoint staged at the walk's first pick
/// (depth 0; a no-op once staged).
class RandomScheduler final : public runtime::Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed, PrefixReplayEngine* rootStage = nullptr)
      : rng_(seed), rootStage_(rootStage) {}

  int pick(runtime::Execution& exec) override;

 private:
  support::Rng rng_;
  PrefixReplayEngine* rootStage_;
};

class RandomExplorer final : public ExplorerBase {
 public:
  RandomExplorer(ExplorerOptions options, std::uint64_t seed)
      : ExplorerBase(options), seed_(seed) {}

 protected:
  void runSearch(const Program& program) override;

 private:
  std::uint64_t seed_;
};

}  // namespace lazyhb::explore
