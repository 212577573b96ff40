// Shared helpers for the lazyhb test suite.

#pragma once

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/explorer.hpp"
#include "explore/random_explorer.hpp"
#include "runtime/api.hpp"
#include "trace/trace_recorder.hpp"

namespace lazyhb::testing {

/// Expect every contract statistic of the table in explore/explorer.hpp
/// equal in `a` and `b`; scoreboard statistics may differ.
inline void expectSameContractStats(const ExplorationStats& a,
                                    const ExplorationStats& b,
                                    const std::string& label) {
  explore::forEachStat(
      [&](const explore::StatSpec& spec, const auto& x, const auto& y) {
        if (spec.klass == explore::StatClass::Contract) {
          EXPECT_EQ(x, y) << label << ": " << explore::statPath(spec);
        }
      },
      a, b);
}

/// Expect Theorems 2.1/2.2 and value soundness on every terminal schedule
/// `stats` counted: no HBR, lazy-HBR or value class reached two states.
inline void expectNoConflicts(const ExplorationStats& stats, const std::string& label) {
  EXPECT_EQ(stats.hbrConflicts, 0u) << label;
  EXPECT_EQ(stats.lazyHbrConflicts, 0u) << label;
  EXPECT_EQ(stats.valueConflicts, 0u) << label;
}

inline explore::ExplorerOptions smallOptions(std::uint64_t limit = 200'000) {
  explore::ExplorerOptions options;
  options.scheduleLimit = limit;
  options.maxEventsPerSchedule = 4096;
  return options;
}

inline explore::ExplorationResult runDfs(const explore::Program& p,
                                         std::uint64_t limit = 200'000) {
  explore::DfsExplorer explorer(smallOptions(limit));
  return explorer.explore(p);
}

inline explore::ExplorationResult runDpor(const explore::Program& p,
                                          std::uint64_t limit = 200'000) {
  explore::DporExplorer explorer(smallOptions(limit));
  return explorer.explore(p);
}

inline explore::ExplorationResult runCaching(const explore::Program& p, trace::Relation r,
                                             std::uint64_t limit = 200'000) {
  explore::DfsExplorer explorer(smallOptions(limit), r);
  return explorer.explore(p);
}

/// One run of each systematic explorer with `options`, labelled with its
/// name: dfs, dpor, caching-full, caching-lazy and caching-value, in that
/// order.
inline std::vector<std::pair<std::string, explore::ExplorationResult>> runSystematic(
    const explore::Program& p, const explore::ExplorerOptions& options) {
  std::vector<std::pair<std::string, explore::ExplorationResult>> runs;
  runs.emplace_back("dfs", explore::DfsExplorer(options).explore(p));
  runs.emplace_back("dpor", explore::DporExplorer(options).explore(p));
  for (const auto relation :
       {trace::Relation::Full, trace::Relation::Lazy, trace::Relation::Value}) {
    runs.emplace_back(std::string("caching-") + trace::relationName(relation),
                      explore::DfsExplorer(options, relation).explore(p));
  }
  return runs;
}

/// The Full, Lazy and Value prefix fingerprints, in that order.
using PrefixFingerprints = std::array<support::Hash128, 3>;

inline PrefixFingerprints prefixFingerprints(const trace::TraceRecorder& recorder) {
  return {recorder.fingerprint(trace::Relation::Full),
          recorder.fingerprint(trace::Relation::Lazy),
          recorder.fingerprint(trace::Relation::Value)};
}

/// Captures one execution's observer stream so a recorder can be driven
/// directly (no fibers, no scheduling). Each registration remembers how many
/// events preceded it, so a replay can interleave them as they happened.
struct CapturedTrace : runtime::ExecutionObserver {
  struct Registration {
    std::int32_t index;
    runtime::Uid uid;
    runtime::ObjectKind kind;
    std::string name;
    std::uint64_t initialValueHash;
    std::size_t atEvent;  ///< events committed before this registration

    bool operator==(const Registration&) const = default;
  };
  std::vector<Registration> registrations;
  std::vector<runtime::EventRecord> events;

  void onObjectRegistered(const runtime::Execution&, std::int32_t index,
                          runtime::Uid uid, runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override {
    registrations.push_back({index, uid, kind, name, initialValueHash, events.size()});
  }
  void onEvent(const runtime::Execution&, const runtime::EventRecord& ev) override {
    events.push_back(ev);
  }
};

/// The exact program of the paper's Figure 1 (plus the spawn/join scaffold a
/// real program needs): T1 locks m, reads x, unlocks m, writes y; T2 writes
/// z, locks m, reads x, unlocks m.
inline void figure1Program() {
  using namespace lazyhb;
  Shared<int> x{7, "x"};
  Shared<int> y{0, "y"};
  Shared<int> z{0, "z"};
  Mutex m("m");
  auto t2 = spawn([&] {
    z.store(1);
    m.lock();
    (void)x.load();
    m.unlock();
  });
  m.lock();
  (void)x.load();
  m.unlock();
  y.store(1);
  t2.join();
}

}  // namespace lazyhb::testing
