// Benchmark-corpus tests: registry integrity, per-benchmark sanity under a
// budgeted exploration (the §3 counting chain, Theorems 2.1/2.2 and value
// soundness must hold on every benchmark under every systematic explorer),
// and bug/no-bug classification: DPOR must find the violation in every
// known-buggy benchmark and must find none elsewhere.

#include <gtest/gtest.h>

#include <set>

#include "campaign/campaign.hpp"
#include "programs/registry.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;

/// Run every systematic explorer on `body` with `options` and check, for
/// each, the §3 counting chain (extended with value classes) and Theorems
/// 2.1/2.2 and value soundness on every terminal schedule it saw. Returns
/// DPOR's result, the one the bug classification reads.
explore::ExplorationResult checkSystematic(const std::string& name,
                                           const explore::Program& body,
                                           const explore::ExplorerOptions& options) {
  explore::ExplorationResult dpor;
  for (auto& [explorer, result] : lazyhb::testing::runSystematic(body, options)) {
    const std::string label = name + " x " + explorer;
    EXPECT_EQ(campaign::checkCountingChain(label, result, options.scheduleLimit), "");
    lazyhb::testing::expectNoConflicts(result, label);
    if (explorer == "dpor") dpor = std::move(result);
  }
  return dpor;
}

TEST(Registry, HasExactly87UniqueBenchmarks) {
  const auto& corpus = programs::all();
  ASSERT_EQ(corpus.size(), 87u);
  std::set<std::string> names;
  for (const auto& spec : corpus) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate name " << spec.name;
    EXPECT_FALSE(spec.family.empty());
    EXPECT_FALSE(spec.description.empty());
    EXPECT_TRUE(static_cast<bool>(spec.body));
    // bugRequiresTso refines hasKnownBug; it never stands alone, and only
    // the weak-memory family uses it.
    if (spec.bugRequiresTso) {
      EXPECT_TRUE(spec.hasKnownBug) << spec.name;
      EXPECT_EQ(spec.family, "weakmem") << spec.name;
    }
  }
  EXPECT_EQ(corpus.front().id, 1);
  EXPECT_EQ(corpus.back().id, 87);
}

TEST(Registry, LookupByNameAndFamily) {
  EXPECT_NE(programs::byName("disjoint-lock-2"), nullptr);
  EXPECT_EQ(programs::byName("no-such-benchmark"), nullptr);
  EXPECT_FALSE(programs::byFamily("deadlock").empty());
  for (const auto* spec : programs::byFamily("deadlock")) {
    EXPECT_TRUE(spec->hasKnownBug);
  }
}

class CorpusSweep : public ::testing::TestWithParam<int> {};

TEST_P(CorpusSweep, CountingChainAndTheoremsHold) {
  const auto& spec = programs::all()[static_cast<std::size_t>(GetParam())];
  const auto result =
      checkSystematic(spec.name, spec.body, lazyhb::testing::smallOptions(1500));

  // Every benchmark must actually run: schedules executed, events committed,
  // and no API usage errors.
  EXPECT_GT(result.schedulesExecuted, 0u) << spec.name;
  EXPECT_GT(result.totalEvents, 0u) << spec.name;
  for (const auto& v : result.violations) {
    EXPECT_NE(v.kind, runtime::Outcome::UsageError) << spec.name << ": " << v.message;
  }

  // Bug classification: known-buggy benchmarks must reveal a violation
  // within the budget; sound benchmarks must not. A bugRequiresTso bug is
  // unreachable under this sweep's SC exploration by definition — finding
  // one here would falsify the memory-model split.
  if (spec.hasKnownBug && !spec.bugRequiresTso) {
    EXPECT_TRUE(result.foundViolation()) << spec.name << " bug not found";
  } else {
    EXPECT_FALSE(result.foundViolation())
        << spec.name << " unexpected violation: "
        << (result.violations.empty() ? "" : result.violations.front().message);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CorpusSweep, ::testing::Range(0, 87),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = programs::all()[static_cast<std::size_t>(info.param)].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The same sweep under TSO, over the weak-memory family: the unfenced
// litmus variants must reveal their violation (which the SC sweep above
// just proved unreachable), the fenced variants must stay violation-free,
// and the counting chain and theorem-conflict counts must hold on TSO
// executions exactly as on SC ones.
class WeakMemTsoSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeakMemTsoSweep, TsoBugClassificationAndChainsHold) {
  const auto weakmem = programs::byFamily("weakmem");
  const auto& spec = *weakmem[static_cast<std::size_t>(GetParam())];
  explore::ExplorerOptions options = lazyhb::testing::smallOptions(1500);
  options.memoryModel = memory::MemoryModel::Tso;
  const auto result = checkSystematic(spec.name, spec.body, options);

  EXPECT_GT(result.schedulesExecuted, 0u) << spec.name;
  EXPECT_TRUE(result.complete) << spec.name;
  for (const auto& v : result.violations) {
    EXPECT_NE(v.kind, runtime::Outcome::UsageError) << spec.name << ": " << v.message;
  }

  if (spec.hasKnownBug) {
    EXPECT_TRUE(result.foundViolation()) << spec.name << " TSO bug not found";
  } else {
    EXPECT_FALSE(result.foundViolation())
        << spec.name << " unexpected violation under TSO: "
        << (result.violations.empty() ? "" : result.violations.front().message);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeakMemFamily, WeakMemTsoSweep, ::testing::Range(0, 8),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name =
          programs::byFamily("weakmem")[static_cast<std::size_t>(info.param)]->name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
