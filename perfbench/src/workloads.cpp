// The four workloads. Every one is generated in-process from the workload
// seed; only the random strategy consumes seeds, so every other exploration
// has the same counts on every seed. Each main exploration is sized to take
// milliseconds, so that a run repeats it hundreds of times and its fastest
// repeat is a steady reading (see runUntraced).

#include <string>

#include "bench.hpp"
#include "support/hash.hpp"

namespace perfbench {
namespace {

/// Budget that never bites on the complete searches below.
constexpr std::uint64_t kUnbounded = 1'000'000'000;
/// The paper's per-cell schedule budget.
constexpr std::uint64_t kPaperBudget = 100'000;
/// Random walks per program in one random-walk pass (a few milliseconds).
constexpr std::uint64_t kWalksPerProgram = 500;
/// Budget of the parallel-tree cell that stops on it and falls back to a
/// sequential rerun.
constexpr std::uint64_t kFallbackBudget = 2'000;

/// Seed of the `index`-th seeded exploration of a workload run.
std::uint64_t derivedSeed(std::uint64_t seed, std::uint64_t index) {
  return lazyhb::support::hashCombine(lazyhb::support::mix64(seed), index);
}

Exploration make(std::string strategy, std::string scenario, std::string model,
                 std::uint64_t limit) {
  Exploration e;
  e.strategy = std::move(strategy);
  e.scenario = std::move(scenario);
  e.model = std::move(model);
  e.limit = limit;
  return e;
}

/// The bug hunts every workload carries: the 13 buggy SC corpus programs and
/// the three unfenced TSO litmus programs, each under dfs, dpor,
/// caching-lazy and random with stopOnFirstViolation. Random hunts run
/// under kRandomHuntSeeds derived seeds each: one random hunt's latency
/// swings tenfold with its seed, and a single seed per program would make
/// the latency percentiles depend on the workload seed.
std::vector<Exploration> huntSet(std::uint64_t seed) {
  constexpr int kRandomHuntSeeds = 16;
  static const char* const kScBugs[] = {
      "deadlock-ab", "deadlock-ring-3", "dining-deadlock-2", "dining-deadlock-3",
      "wronglock-2", "wronglock-3",     "check-then-act",    "airline-2",
      "airline-3",   "reorder-1",       "twostage",          "stateful01",
      "lost-signal"};
  static const char* const kTsoBugs[] = {"sb-unfenced", "dekker-unfenced",
                                         "peterson-unfenced"};
  static const char* const kStrategies[] = {"dfs", "dpor", "caching-lazy", "random"};
  std::vector<Exploration> hunts;
  auto add = [&](const char* scenario, const char* model) {
    for (const char* strategy : kStrategies) {
      Exploration e = make(strategy, scenario, model, kPaperBudget);
      e.stopOnBug = true;
      for (int k = 0; k < (e.seeded() ? kRandomHuntSeeds : 1); ++k) {
        if (e.seeded()) e.seed = derivedSeed(seed, 1000 + hunts.size());
        hunts.push_back(e);
      }
    }
  };
  for (const char* scenario : kScBugs) add(scenario, "sc");
  for (const char* scenario : kTsoBugs) add(scenario, "tso");
  return hunts;
}

}  // namespace

std::optional<Workload> makeWorkload(const std::string& name, std::uint64_t seed,
                                     int workers) {
  Workload w;
  w.name = name;
  w.hunts = huntSet(seed);
  if (name == "tree-complete") {
    // Checkpoint stage/rollback, cache probes, DPOR analysis, TSO buffers.
    w.main = {make("caching-full", "disjoint-lock-3x2", "sc", kUnbounded),
              make("dpor", "noisy-counter-3x1", "sc", kUnbounded),
              make("caching-lazy", "noisy-counter-3x2", "tso", kUnbounded),
              make("dfs", "disjoint-lock-3", "tso", kUnbounded)};
    for (Exploration& e : w.main) e.mustComplete = true;
  } else if (name == "random-walk") {
    // Full recording and fresh per-execution setup on every schedule.
    for (const char* scenario :
         {"readers-writer-2", "disjoint-lock-5x2", "prodcons-2x2", "airline-3"}) {
      Exploration e = make("random", scenario, "sc", kWalksPerProgram);
      e.seed = derivedSeed(seed, w.main.size());
      w.main.push_back(std::move(e));
    }
  } else if (name == "bug-hunt") {
    // Per-exploration setup: the hunts are the whole workload.
  } else if (name == "parallel-tree") {
    // Work stealing, the shared HbrCache, donation and the budget fallback.
    w.main = {make("caching-full", "disjoint-lock-3x2", "sc", kUnbounded),
              make("dfs", "disjoint-lock-3", "tso", kUnbounded),
              make("dfs", "wronglock-3", "sc", kFallbackBudget)};
    for (Exploration& e : w.main) e.workers = workers;
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace perfbench
