// The public embedding facade (lazyhb/lazyhb.hpp): Session/TestReport
// parity against direct explorer construction, open scenario registration,
// and registry invariants.
//
// The parity suite is the redesign's hard guarantee: Session is an adapter,
// not a reimplementation, so every count it reports must be byte-identical
// to constructing the explorer by hand the way consumers did before the
// facade existed. The sample spans the corpus regimes (coarse locking,
// noisy counters, condvars, trylock, CAS, deadlock and lost-signal bugs)
// and runs all six strategies over each.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/random_explorer.hpp"
#include "lazyhb/lazyhb.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "support/worker_pool.hpp"

namespace {

using namespace lazyhb;

// --- scenario registration (exercises the LAZYHB_SCENARIO macros exactly
// --- as an embedding application would, in this binary's registry) --------

LAZYHB_SCENARIO("session-test-overdraft", "session-test",
                "check-then-act overdraft seeded for the facade tests",
                .hasKnownBug = true) {
  Shared<int> balance{10, "balance"};
  auto spender = spawn([&] {
    if (balance.load() >= 10) balance.store(balance.load() - 10);
  });
  if (balance.load() >= 10) balance.store(balance.load() - 10);
  spender.join();
  checkAlways(balance.load() >= 0, "no overdraft");
}

LAZYHB_SCENARIO("session-test-quiet", "session-test",
                "single racy increment pair (no violation)") {
  Shared<int> counter{0, "counter"};
  auto t = spawn([&] { counter.fetchAdd(1); });
  counter.fetchAdd(1);
  t.join();
}

explore::Program sessionTestFactory(int writers) {
  return [writers] {
    Shared<int> cell{0, "cell"};
    InlineVec<ThreadHandle, 4> threads;
    for (int i = 0; i < writers; ++i) {
      threads.push(spawn([&, i] { cell.store(i + 1); }));
    }
    for (auto& t : threads) t.join();
  };
}

LAZYHB_SCENARIO_FN("session-test-writers", "session-test",
                   "racy writers from a factory body", sessionTestFactory(3),
                   .checkpointable = true);

// Ranks below kScenarioUserRank are reserved for the corpus; public
// registration clamps them (with a warning), so this scenario must land
// after the corpus like any other user registration.
LAZYHB_SCENARIO_FN("session-test-reserved-rank", "session-test",
                   "asks for a reserved rank and gets clamped",
                   sessionTestFactory(2), .rank = 5);

// --- parity -----------------------------------------------------------------

constexpr std::uint64_t kParityLimit = 200;
constexpr std::uint64_t kParitySeed = 42;

/// The pre-redesign construction path: explorers built by hand from
/// internal headers, exactly as the CLI/examples/benches did before the
/// facade. Kept independent of campaign::ExplorerSpec so the parity check
/// cannot degenerate into comparing the factory against itself.
explore::ExplorationResult runDirect(const std::string& strategy,
                                     const explore::Program& program,
                                     bool checkpointable,
                                     memory::MemoryModel model) {
  explore::ExplorerOptions options;
  options.scheduleLimit = kParityLimit;
  options.checkpointable = checkpointable;
  options.memoryModel = model;
  if (strategy == "dfs") {
    explore::DfsExplorer explorer(options);
    return explorer.explore(program);
  }
  if (strategy == "random") {
    explore::RandomExplorer explorer(options, kParitySeed);
    return explorer.explore(program);
  }
  if (strategy == "dpor") {
    explore::DporExplorer explorer(options);
    return explorer.explore(program);
  }
  if (strategy == "caching-full") {
    explore::DfsExplorer explorer(options, trace::Relation::Full);
    return explorer.explore(program);
  }
  if (strategy == "caching-lazy") {
    explore::DfsExplorer explorer(options, trace::Relation::Lazy);
    return explorer.explore(program);
  }
  if (strategy == "caching-value") {
    explore::DfsExplorer explorer(options, trace::Relation::Value);
    return explorer.explore(program);
  }
  ADD_FAILURE() << "unknown strategy " << strategy;
  return {};
}

/// A diverse slice of the corpus (mirrors the golden-count sample), plus
/// weakmem litmus programs under TSO so the store-buffer counts are live.
struct ParityCase {
  const char* program;
  const char* memoryModel;
};
const ParityCase kParityCases[] = {
    {"disjoint-lock-2", "sc"}, {"noisy-counter-3x2", "sc"},
    {"prodcons-1x1", "sc"},    {"trylock-vs-lock", "sc"},
    {"cas-counter-3", "sc"},   {"deadlock-ab", "sc"},
    {"lost-signal", "sc"},     {"sb-unfenced", "tso"},
    {"dekker-fenced", "tso"},
};

TEST(SessionParity, CountsMatchDirectConstructionAcrossStrategies) {
  for (const ParityCase& parity : kParityCases) {
    const programs::ProgramSpec* spec = programs::byName(parity.program);
    ASSERT_NE(spec, nullptr) << parity.program;
    const memory::MemoryModel model = *memory::parseMemoryModel(parity.memoryModel);
    // Every mode, the extended caching-value included.
    for (const std::string& mode : Session::strategies()) {
      SCOPED_TRACE(std::string(parity.program) + " x " + mode + " under " +
                   parity.memoryModel);
      const explore::ExplorationResult direct =
          runDirect(mode, spec->body, spec->checkpointable, model);
      const TestReport viaSession = Session()
                                        .strategy(mode)
                                        .schedules(kParityLimit)
                                        .seed(kParitySeed)
                                        .memoryModel(parity.memoryModel)
                                        .run(spec->name);

      // Every statistic of the table, scoreboard ones included: the facade
      // runs the very same sequential exploration.
      explore::forEachStat(
          [](const explore::StatSpec& stat, const auto& got, const auto& want) {
            EXPECT_EQ(got, want) << explore::statPath(stat);
          },
          viaSession, direct);
      EXPECT_EQ(viaSession.violations.size(), direct.violations.size());
      EXPECT_EQ(viaSession.scenario, spec->name);
      EXPECT_EQ(viaSession.family, spec->family);
      if (model == memory::MemoryModel::Tso) {
        EXPECT_GT(viaSession.flushEvents, 0u);
        EXPECT_NE(viaSession.toJson().find("\"tso\""), std::string::npos);
      }
    }
  }
}

TEST(SessionParity, ViolationSchedulesReplayIdentically) {
  const TestReport report =
      Session().strategy("dfs").schedules(500).run("deadlock-ab");
  ASSERT_TRUE(report.foundViolation());
  for (const TestViolation& violation : report.violations) {
    const ScheduleTrace trace =
        traceSchedule("deadlock-ab", violation.schedule);
    EXPECT_TRUE(trace.applied);
    EXPECT_TRUE(trace.violated);
    EXPECT_EQ(trace.outcome, violation.kind);
  }
}

// --- leased kits ---------------------------------------------------------------

TEST(SessionKits, ReusedKitsLeaveNoTrace) {
  // Every exploration leases a kit (stack pool, recorder, replay engine)
  // that earlier explorations of the process used (explore/explorer.hpp).
  // Nothing they left behind may show in the next one: not a TSO hunt's
  // wide clock rows and snapshots of 33+ threads, a six-thread program's
  // stacks and thread records, a sharded run's worker kits, nor a random
  // walk's race detector. Each probe runs, the others run, and the probe
  // runs again: every statistic, scoreboard rows included, must repeat.
  struct Probe {
    const char* program;
    const char* strategy;
    const char* model;
    std::uint64_t snapshotBudget;  ///< 0: unlimited
  };
  const Probe probes[] = {
      {"noisy-counter-3x2", "dpor", "sc", 0},
      {"prodcons-1x1", "dpor", "sc", 4096},
      {"sb-unfenced", "dpor", "tso", 0},
      {"noisy-counter-3x2", "caching-lazy", "tso", 4096},
  };
  auto run = [](const Probe& probe) {
    return Session()
        .strategy(probe.strategy)
        .schedules(kParityLimit)
        .memoryModel(probe.model)
        .snapshotBudget(probe.snapshotBudget)
        .run(probe.program);
  };
  for (const Probe& probe : probes) {
    SCOPED_TRACE(std::string(probe.program) + " x " + probe.strategy + " under " +
                 probe.model);
    const TestReport first = run(probe);
    (void)Session()
        .strategy("dpor")
        .memoryModel("tso")
        .stopOnFirstViolation()
        .run("dekker-unfenced");
    (void)Session().strategy("dfs").schedules(kParityLimit).run("disjoint-lock-5x2");
    (void)Session()
        .strategy("caching-lazy")
        .workers(2)
        .schedules(kParityLimit)
        .run("noisy-flags-3x2");
    (void)Session()
        .strategy("random")
        .schedules(kParityLimit)
        .detectRaces()
        .run("racy-counter-3");
    const TestReport again = run(probe);
    explore::forEachStat(
        [](const explore::StatSpec& stat, const auto& got, const auto& want) {
          EXPECT_EQ(got, want) << explore::statPath(stat);
        },
        again, first);
    ASSERT_EQ(again.violations.size(), first.violations.size());
    for (std::size_t i = 0; i < first.violations.size(); ++i) {
      EXPECT_EQ(again.violations[i].schedule, first.violations[i].schedule);
    }
  }
}

// --- Session behaviour -------------------------------------------------------

TEST(Session, UnknownStrategyThrows) {
  EXPECT_THROW((void)Session().strategy("bfs").run("disjoint-lock-2"),
               std::invalid_argument);
  EXPECT_THROW((void)Session().strategy("").run([] {}), std::invalid_argument);
}

TEST(Session, RefusesMoreWorkersThanTheThreadBound) {
  // Refused before any pool exists: a crew of that size is never built.
  const std::uint64_t pools = support::WorkerPool::poolsBuilt();
  EXPECT_THROW((void)Session()
                   .strategy("dfs")
                   .workers(support::kMaxWorkerThreads + 1)
                   .run("disjoint-lock-2"),
               std::invalid_argument);
  EXPECT_EQ(support::WorkerPool::poolsBuilt(), pools);
}

TEST(Suite, RefusesMoreThreadsThanTheBound) {
  // workers or jobs one past the bound, or jobs x workers past it: refused
  // before any pool exists.
  const auto oneCell = [] {
    return Suite().add("disjoint-lock-2").strategies({"dfs"}).schedules(10);
  };
  constexpr int kBound = support::kMaxWorkerThreads;
  const std::uint64_t pools = support::WorkerPool::poolsBuilt();
  EXPECT_THROW((void)oneCell().workers(kBound + 1).run(), std::invalid_argument);
  EXPECT_THROW((void)oneCell().jobs(kBound + 1).run(), std::invalid_argument);
  EXPECT_THROW((void)oneCell().jobs(17).workers(16).run(), std::invalid_argument);
  EXPECT_EQ(support::WorkerPool::poolsBuilt(), pools);
}

TEST(Session, UnknownScenarioThrows) {
  EXPECT_THROW((void)Session().run("no-such-scenario"), std::invalid_argument);
  EXPECT_THROW((void)traceSchedule("no-such-scenario", {}),
               std::invalid_argument);
}

TEST(Session, UnknownRelationThrows) {
  TraceOptions options;
  options.relation = "total";
  EXPECT_THROW((void)traceSchedule("disjoint-lock-2", {}, options),
               std::invalid_argument);
}

TEST(Session, StrategiesListsCanonicalThenExtended) {
  const std::vector<std::string> names = Session::strategies();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "dfs");
  EXPECT_EQ(names[4], "caching-lazy");
  EXPECT_EQ(names[5], "caching-value");
  for (const std::string& name : names) {
    EXPECT_TRUE(campaign::parseExplorerSpec(name).has_value()) << name;
  }
}

TEST(Session, ExtendedStrategiesRunButStayOutOfTheCanonicalMatrix) {
  const TestReport value = Session()
                               .strategy("caching-value")
                               .schedules(kParityLimit)
                               .run("disjoint-lock-2");
  EXPECT_GT(value.schedulesExecuted, 0u);
  EXPECT_TRUE(value.cacheStats.enabled);
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    EXPECT_NE(spec.name, "caching-value");
  }
  // The retired DPOR ablation modes are unknown names, not silent aliases.
  for (const char* retired : {"dpor-nosleep", "dpor-lazy-cache"}) {
    EXPECT_FALSE(campaign::parseExplorerSpec(retired).has_value()) << retired;
    EXPECT_THROW((void)Session().strategy(retired).run("disjoint-lock-2"),
                 std::invalid_argument)
        << retired;
  }
}

TEST(Session, RunByNameInheritsCheckpointableTrait) {
  // disjoint-lock-2 is registered checkpointable; the report echoes the
  // trait (and the incremental engine may elide events on fast-fiber
  // builds — counts stay identical either way, which the parity test
  // already pins).
  const TestReport report =
      Session().schedules(50).run("disjoint-lock-2");
  EXPECT_TRUE(report.checkpointable);
  const TestReport adHoc = Session().schedules(50).run([] {
    Shared<int> x{0, "x"};
    x.store(1);
  });
  EXPECT_FALSE(adHoc.checkpointable);
  EXPECT_TRUE(adHoc.scenario.empty());
}

TEST(Session, ReportEchoesConfiguration) {
  const TestReport report = Session()
                                .strategy("caching-lazy")
                                .schedules(123)
                                .maxEventsPerSchedule(4096)
                                .seed(7)
                                .incremental(false)
                                .run("session-test-quiet");
  EXPECT_EQ(report.strategy, "caching-lazy");
  EXPECT_EQ(report.scheduleLimit, 123u);
  EXPECT_EQ(report.maxEventsPerSchedule, 4096u);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_FALSE(report.incremental);
  EXPECT_EQ(report.scenario, "session-test-quiet");
  EXPECT_EQ(report.family, "session-test");
}

TEST(Session, StopOnFirstViolationStopsEarly) {
  const TestReport all =
      Session().strategy("dfs").schedules(500).run("session-test-overdraft");
  const TestReport first = Session()
                               .strategy("dfs")
                               .schedules(500)
                               .stopOnFirstViolation(true)
                               .run("session-test-overdraft");
  ASSERT_TRUE(all.foundViolation());
  ASSERT_TRUE(first.foundViolation());
  EXPECT_LE(first.schedulesExecuted, all.schedulesExecuted);
  EXPECT_EQ(first.violations.size(), 1u);
}

// --- TestReport JSON ---------------------------------------------------------

TEST(TestReportJson, VersionedAndStructurallySound) {
  const TestReport report = Session()
                                .strategy("caching-lazy")
                                .schedules(kParityLimit)
                                .run("session-test-overdraft");
  const std::string json = report.toJson();

  EXPECT_NE(json.find("\"schema\": \"lazyhb-test-report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"session-test-overdraft\""),
            std::string::npos);
  EXPECT_NE(json.find("\"strategy\": \"caching-lazy\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"assertion-failure\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  // v2 adds the value-class count; v4 the three theorem-conflict counts,
  // replacing the theorem checker blocks.
  EXPECT_NE(json.find("\"value_classes\""), std::string::npos);
  for (const char* row : {"hbr_conflicts", "lazy_hbr_conflicts", "value_conflicts"}) {
    EXPECT_NE(json.find("\"" + std::string(row) + "\": 0"), std::string::npos) << row;
  }
  EXPECT_EQ(json.find("\"theorem_"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // Structural sanity without a parser: balanced braces/brackets (the
  // writer never emits braces inside these strings).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TestReportJson, CacheSectionOnlyForCachingStrategies) {
  const TestReport dfs =
      Session().strategy("dfs").schedules(50).run("session-test-quiet");
  EXPECT_FALSE(dfs.cacheStats.enabled);
  EXPECT_EQ(dfs.toJson().find("\"cache\""), std::string::npos);
}

TEST(TestReportJson, SummaryNamesScenarioAndFirstViolation) {
  const TestReport report =
      Session().strategy("dfs").schedules(500).run("session-test-overdraft");
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("session-test-overdraft"), std::string::npos);
  EXPECT_NE(summary.find("assertion-failure"), std::string::npos);
}

// --- registry invariants (registration is open now; these must hold for
// --- the corpus plus whatever this binary registered) ------------------------

TEST(Registry, IdsAreDense1ToN) {
  const auto& all = programs::all();
  ASSERT_GE(all.size(), 91u);  // 87 corpus + the 4 scenarios above
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, static_cast<int>(i) + 1);
  }
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : programs::all()) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
  }
}

TEST(Registry, CorpusKeepsItsStableIdsAheadOfUserScenarios) {
  // Corpus ranks sort below user registrations, so the corpus' 87
  // benchmarks keep ids 1..87 regardless of what an embedder registers.
  const auto& all = programs::all();
  EXPECT_EQ(all[0].name, "disjoint-lock-2");
  const programs::ProgramSpec* lastCorpus = programs::byName("store-forwarding");
  ASSERT_NE(lastCorpus, nullptr);
  EXPECT_EQ(lastCorpus->id, 87);
  const programs::ProgramSpec* user = programs::byName("session-test-overdraft");
  ASSERT_NE(user, nullptr);
  EXPECT_GT(user->id, 87);
  // The reserved-rank request was clamped into the user range: it cannot
  // displace corpus ids, and registration order among user scenarios holds.
  const programs::ProgramSpec* clamped =
      programs::byName("session-test-reserved-rank");
  ASSERT_NE(clamped, nullptr);
  EXPECT_GT(clamped->id, user->id);
}

TEST(Registry, MacroRegisteredScenariosCarryTheirTraits) {
  const programs::ProgramSpec* overdraft =
      programs::byName("session-test-overdraft");
  ASSERT_NE(overdraft, nullptr);
  EXPECT_TRUE(overdraft->hasKnownBug);
  EXPECT_FALSE(overdraft->checkpointable);

  const programs::ProgramSpec* writers = programs::byName("session-test-writers");
  ASSERT_NE(writers, nullptr);
  EXPECT_FALSE(writers->hasKnownBug);
  EXPECT_TRUE(writers->checkpointable);
}

TEST(Registry, FamilyLookupFindsAllMembersInIdOrder) {
  const auto family = programs::byFamily("session-test");
  ASSERT_EQ(family.size(), 4u);
  EXPECT_EQ(family[0]->name, "session-test-overdraft");
  EXPECT_EQ(family[1]->name, "session-test-quiet");
  EXPECT_EQ(family[2]->name, "session-test-writers");
  EXPECT_EQ(family[3]->name, "session-test-reserved-rank");
  for (std::size_t i = 1; i < family.size(); ++i) {
    EXPECT_LT(family[i - 1]->id, family[i]->id);
  }
  EXPECT_TRUE(programs::byFamily("no-such-family").empty());
}

TEST(Registry, ScenariosSnapshotMatchesRegistry) {
  const std::vector<ScenarioInfo> infos = scenarios();
  const auto& all = programs::all();
  ASSERT_EQ(infos.size(), all.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].id, all[i].id);
    EXPECT_EQ(infos[i].name, all[i].name);
    EXPECT_EQ(infos[i].family, all[i].family);
    EXPECT_EQ(infos[i].hasKnownBug, all[i].hasKnownBug);
    EXPECT_EQ(infos[i].checkpointable, all[i].checkpointable);
  }
}

TEST(Registry, UserScenarioIsFullyOperational) {
  // The macro-registered scenario behaves exactly like a corpus program:
  // explorable through the facade, bug found, schedule replayable.
  const TestReport report = Session()
                                .strategy("dpor")
                                .schedules(1000)
                                .run("session-test-overdraft");
  EXPECT_TRUE(report.complete);
  ASSERT_TRUE(report.foundViolation());
  const ScheduleTrace trace = traceSchedule("session-test-overdraft",
                                            report.violations.front().schedule);
  EXPECT_TRUE(trace.applied);
  EXPECT_TRUE(trace.violated);
  EXPECT_EQ(trace.outcome, "assertion-failure");
}

// --- program lifetime under sharding ------------------------------------------

/// The generation of the last program whose Session::run has returned. A
/// fiber of that program or an older one that runs later counts in
/// g_lateSteps.
std::atomic<int> g_returnedGeneration{0};
std::atomic<int> g_lateSteps{0};

/// Heap state that only the program's closure owns: the threads reach it
/// through a raw pointer, so once the program is destroyed, a late fiber
/// step (or a late destruction of a spawn closure) touches freed memory,
/// which AddressSanitizer reports.
struct ProgramHeap {
  int generation = 0;
  std::atomic<int> steps{0};
};

/// Reads the program's heap state when destroyed; spawn closures carry one.
struct HeapToucher {
  explicit HeapToucher(ProgramHeap* h) : heap(h) {}
  HeapToucher(const HeapToucher&) = default;
  HeapToucher& operator=(const HeapToucher&) = default;
  ~HeapToucher() { (void)heap->steps.load(std::memory_order_relaxed); }

  /// One step of the program: counts it as late when its program's run
  /// has already returned.
  void step() const {
    if (heap->generation <= g_returnedGeneration.load()) g_lateSteps.fetch_add(1);
    heap->steps.fetch_add(1, std::memory_order_relaxed);
  }

  ProgramHeap* heap;
};

Program heapOwningProgram(int generation) {
  auto heap = std::make_shared<ProgramHeap>();
  heap->generation = generation;
  return [heap] {
    const HeapToucher toucher(heap.get());
    Mutex m("m");
    CondVar never("never");
    // Never signalled: every schedule ends in a deadlock with this thread
    // suspended in wait(), so each kit's last execution leaves fibers for
    // a deferred teardown to run forward.
    auto waiter = spawn([toucher, &m, &never] {
      LockGuard guard(m);
      never.wait(m);
      toucher.step();
    });
    auto stepper = [toucher, &m] {
      LockGuard guard(m);
      toucher.step();
    };
    auto first = spawn(stepper);
    auto second = spawn(stepper);
    stepper();
    first.join();
    second.join();
    waiter.join();
    toucher.step();
  };
}

/// Run generations [first, first + 6) of heapOwningProgram under `session`,
/// each destroyed as soon as its run returns, and expect no late step.
void expectNoLateSteps(const Session& session, int first) {
  for (int generation = first; generation < first + 6; ++generation) {
    {
      const Program program = heapOwningProgram(generation);
      const TestReport report = session.run(program);
      EXPECT_TRUE(report.complete) << generation;
      EXPECT_GT(report.schedulesExecuted, 1u) << generation;
      EXPECT_TRUE(report.foundViolation()) << generation;
      g_returnedGeneration.store(generation);
    }  // the program and its heap state are gone
    EXPECT_EQ(g_lateSteps.load(), 0) << generation;
  }
}

TEST(SessionLifetime, NoFiberOfAShardedProgramRunsAfterItsRunReturned) {
  // Sharded runs lease parked workers whose kits outlive the exploration.
  // With full rollback a kit's last execution keeps its deadlocked fibers
  // suspended until teardown; that teardown, and the release of the
  // program's closures, must happen before run() returns, while the
  // program lives.
  const Session session =
      Session().strategy("dfs").workers(4).checkpointable(true).schedules(100'000);
  expectNoLateSteps(session, 1);
  (void)session.run("disjoint-lock-3");
  EXPECT_EQ(g_lateSteps.load(), 0);
}

TEST(SessionLifetime, NoFiberOfASequentialProgramRunsAfterItsRunReturned) {
  // A sequential explorer's leased kit is parked when the explorer is
  // destroyed, inside run(), and the next run leases it again. Its last
  // execution's deadlocked fibers must run to their end there, not at the
  // next run's first schedule, when the program is gone. Its generations
  // follow the sharded test's, which may have run in this process.
  expectNoLateSteps(
      Session().strategy("dfs").checkpointable(true).schedules(100'000), 101);
}

}  // namespace
