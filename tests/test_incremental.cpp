// Rollback-equivalence properties for the incremental prefix-replay engine.
//
// The engine's contract is byte-identity: exploring with checkpoints and
// rollbacks (either tier — full runtime rollback or recorder-side replay
// elision) must produce, schedule by schedule, exactly the choices,
// outcomes, prefix fingerprints at every pick and clock rows that a
// from-scratch exploration produces. These tests pin that contract:
//
//   * a traced DFS walk run three ways (incremental off / recorder elision /
//     full rollback) over a corpus slice, compared element-wise;
//   * the same triple-run over randomly generated checkpointable programs
//     (InlineVec storage, the shape the fiber-snapshot tier requires);
//   * traced random walks run fresh and rolled back to their root, per
//     walk, under both memory models;
//   * explorer-level count identity across modes for DPOR and the caching
//     explorers (prune hooks interleave with rollback);
//   * ClockArena truncation re-extension identity.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "memory/memory_model.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "explore/random_explorer.hpp"
#include "explore/replay.hpp"
#include "programs/registry.hpp"
#include "runtime/api.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"
#include "trace/clock_arena.hpp"
#include "trace/trace_recorder.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::expectSameContractStats;
using lazyhb::testing::PrefixFingerprints;
using lazyhb::testing::prefixFingerprints;

struct ScheduleTrace {
  std::vector<int> choices;
  runtime::Outcome outcome = runtime::Outcome::Terminal;
  /// At every pick past the divergence, then once at the schedule's end.
  std::vector<PrefixFingerprints> prefixes;
  support::Hash128 state;
  std::vector<std::vector<std::uint32_t>> clocks; // full-relation rows

  bool operator==(const ScheduleTrace&) const = default;
};

/// The recorder the traced loops observe through: DPOR's consumer set, so
/// the Full clock rows exist to be compared.
trace::TraceRecorder tracingRecorder() {
  return trace::TraceRecorder(trace::TraceRecorder::Options{.fullClocks = true});
}

/// Forwards every pick to the search's scheduler, first capturing the
/// recorder's prefix fingerprints once the prefix is new to this schedule
/// (`probeFrom` events or more) — the prefixes a prune hook probes. The
/// recorder must be live there in every incremental mode: rollback and
/// replay elision cover only the shared prefix.
class ProbingScheduler final : public runtime::Scheduler {
 public:
  ProbingScheduler(runtime::Scheduler& inner, const trace::TraceRecorder& recorder,
                   std::size_t probeFrom, std::vector<PrefixFingerprints>& out)
      : inner_(inner), recorder_(recorder), probeFrom_(probeFrom), out_(out) {}

  int pick(runtime::Execution& exec) override {
    const std::size_t depth = exec.events().size();
    if (depth > 0 && depth >= probeFrom_) {
      EXPECT_EQ(recorder_.eventCount(), depth);
      out_.push_back(prefixFingerprints(recorder_));
    }
    return inner_.pick(exec);
  }

 private:
  runtime::Scheduler& inner_;
  const trace::TraceRecorder& recorder_;
  std::size_t probeFrom_;
  std::vector<PrefixFingerprints>& out_;
};

/// Run one schedule through `engine` and capture everything the
/// exploration layer could observe about it.
ScheduleTrace traceOne(explore::PrefixReplayEngine& engine,
                       trace::TraceRecorder& recorder,
                       const explore::Program& program,
                       runtime::Scheduler& scheduler, memory::MemoryModel model,
                       std::size_t probeFrom) {
  runtime::Config config;
  config.memoryModel = model;
  const explore::PrefixReplayEngine::Session session =
      engine.beginSchedule(config, &recorder);
  ScheduleTrace trace;
  ProbingScheduler probing(scheduler, recorder, probeFrom, trace.prefixes);
  trace.outcome = session.resumed ? session.exec->resume(probing)
                                  : session.exec->run(program, probing);
  trace.choices = session.exec->choices();
  trace.state = session.exec->stateFingerprint();
  if (recorder.eventCount() > 0) trace.prefixes.push_back(prefixFingerprints(recorder));
  for (std::size_t i = 0; i < recorder.eventCount(); ++i) {
    const trace::ClockView view =
        recorder.eventClock(trace::Relation::Full, static_cast<std::int32_t>(i));
    trace.clocks.emplace_back(view.data(), view.data() + view.width());
  }
  return trace;
}

/// The DFS walk of DfsExplorer::runSearch, instrumented: returns one trace
/// per executed schedule, capturing everything the exploration layer could
/// observe about it.
std::vector<ScheduleTrace> tracedDfs(const explore::Program& program,
                                     bool incremental, bool checkpointable,
                                     std::uint64_t limit = 4000,
                                     std::uint64_t snapshotBudgetBytes = 0,
                                     memory::MemoryModel model = memory::MemoryModel::Sc) {
  trace::TraceRecorder recorder = tracingRecorder();
  runtime::StackPool pool;
  explore::PrefixReplayEngine engine(
      pool, recorder, incremental,
      checkpointable && runtime::Execution::checkpointingSupported(),
      snapshotBudgetBytes);
  explore::TreeSearchState state;
  std::vector<ScheduleTrace> traces;
  std::size_t startDepth = 0;
  for (;;) {
    if (traces.size() >= limit) break;
    explore::TreeScheduler scheduler(state, {}, &engine, startDepth);
    // Events before checkFromDepth replay the previous schedule's prefix.
    traces.push_back(
        traceOne(engine, recorder, program, scheduler, model, state.checkFromDepth + 1));
    if (!state.advance()) break;
    startDepth = engine.prepareNext(state.checkFromDepth);
  }
  return traces;
}

/// The walk loop of RandomExplorer::runSearch, instrumented the same way:
/// one trace per walk. On the runtime-rollback tier every walk after the
/// first resumes from the root checkpoint its first pick staged.
std::vector<ScheduleTrace> tracedRandom(const explore::Program& program,
                                        bool incremental, bool checkpointable,
                                        std::uint64_t snapshotBudgetBytes,
                                        memory::MemoryModel model,
                                        std::uint64_t walks = 300) {
  trace::TraceRecorder recorder = tracingRecorder();
  runtime::StackPool pool;
  explore::PrefixReplayEngine engine(
      pool, recorder, incremental,
      checkpointable && runtime::Execution::checkpointingSupported(),
      snapshotBudgetBytes);
  explore::PrefixReplayEngine* root = engine.runtimeRollback() ? &engine : nullptr;
  std::vector<ScheduleTrace> traces;
  for (std::uint64_t k = 0; k < walks; ++k) {
    if (root != nullptr && k > 0) {
      EXPECT_EQ(root->prepareNext(0), 0u);
    }
    explore::RandomScheduler scheduler(support::mix64(17 + k), root);
    traces.push_back(traceOne(engine, recorder, program, scheduler, model, 1));
  }
  if (root != nullptr && walks > 1) {
    EXPECT_EQ(engine.rollbacks(), walks - 1);  // every later walk resumed
    EXPECT_EQ(engine.stagesCreated(), 1u);     // the root stage, counted once
  }
  return traces;
}

void expectIdenticalTraces(const explore::Program& program, bool checkpointable,
                           const std::string& label) {
  const std::vector<ScheduleTrace> baseline = tracedDfs(program, false, false);
  const std::vector<ScheduleTrace> elision = tracedDfs(program, true, false);
  ASSERT_EQ(baseline.size(), elision.size()) << label << " (recorder elision)";
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(baseline[i] == elision[i])
        << label << ": schedule " << i << " diverges under recorder elision";
  }
  if (checkpointable && runtime::Execution::checkpointingSupported()) {
    const std::vector<ScheduleTrace> rollback = tracedDfs(program, true, true);
    ASSERT_EQ(baseline.size(), rollback.size()) << label << " (runtime rollback)";
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(baseline[i] == rollback[i])
          << label << ": schedule " << i << " diverges under runtime rollback";
    }
  }
}

TEST(IncrementalReplay, CorpusSliceTracesIdenticalAcrossModes) {
  // A slice spanning the regimes: coarse locking, racy counters, condvars,
  // trylock, semaphores, and known-buggy programs (violations mid-tree).
  const char* names[] = {
      "disjoint-lock-2", "noisy-counter-3x1", "prodcons-1x1", "trylock-vs-lock",
      "sem-rendezvous",  "racy-counter-3",    "pingpong-2",
  };
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    expectIdenticalTraces(spec->body, spec->checkpointable, name);
  }
}

TEST(IncrementalReplay, HeapBasedProgramFallsBackAndMatches) {
  // buggy-family programs keep std::vector storage on purpose: they must
  // still explore correctly (via re-execution + recorder elision), never
  // via fiber snapshots.
  const programs::ProgramSpec* spec = programs::byName("deadlock-ab");
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(spec->checkpointable);
  expectIdenticalTraces(spec->body, spec->checkpointable, "deadlock-ab");
}

// --- randomly generated checkpointable programs ------------------------------

struct GenOp {
  enum class Kind : std::uint8_t { Read, Write, Lock, Unlock, TryLockPulse };
  Kind kind = Kind::Read;
  int object = 0;
};

struct GenProgram {
  int vars = 2;
  int mutexes = 2;
  std::vector<std::vector<GenOp>> threads;
};

GenProgram generate(std::uint64_t seed) {
  support::Rng rng(seed);
  GenProgram p;
  p.vars = rng.intIn(1, 2);
  p.mutexes = rng.intIn(1, 2);
  const int threadCount = rng.intIn(2, 3);
  for (int t = 0; t < threadCount; ++t) {
    std::vector<GenOp> ops;
    std::vector<int> held;
    const int steps = rng.intIn(2, 4);
    for (int s = 0; s < steps; ++s) {
      const int roll = rng.intIn(0, 9);
      if (roll < 4) {
        ops.push_back({rng.chance(1, 2) ? GenOp::Kind::Read : GenOp::Kind::Write,
                       rng.intIn(0, p.vars - 1)});
      } else if (roll < 7 && held.size() < 2) {
        const int m = rng.intIn(0, p.mutexes - 1);
        bool alreadyHeld = false;
        for (const int h : held) alreadyHeld = alreadyHeld || h == m;
        if (!alreadyHeld) {
          ops.push_back({GenOp::Kind::Lock, m});
          held.push_back(m);
        }
      } else if (roll < 8 && !held.empty()) {
        ops.push_back({GenOp::Kind::Unlock, held.back()});
        held.pop_back();
      } else {
        ops.push_back({GenOp::Kind::TryLockPulse, rng.intIn(0, p.mutexes - 1)});
      }
    }
    while (!held.empty()) {
      ops.push_back({GenOp::Kind::Unlock, held.back()});
      held.pop_back();
    }
    p.threads.push_back(std::move(ops));
  }
  return p;
}

/// Materialize with InlineVec storage: the checkpointable-contract shape.
explore::Program materializeCheckpointable(const GenProgram& gen) {
  return [gen] {
    InlineVec<Shared<int>, 4> vars;
    for (int v = 0; v < gen.vars; ++v) vars.emplace(0, "v");
    InlineVec<Mutex, 4> mutexes;
    for (int m = 0; m < gen.mutexes; ++m) mutexes.emplace("m");
    InlineVec<ThreadHandle, 4> workers;
    for (const auto& ops : gen.threads) {
      workers.push(spawn([&vars, &mutexes, &ops] {
        for (const GenOp& op : ops) {
          switch (op.kind) {
            case GenOp::Kind::Read:
              (void)vars[static_cast<std::size_t>(op.object)].load();
              break;
            case GenOp::Kind::Write:
              vars[static_cast<std::size_t>(op.object)].modify(
                  [](int v) { return v + 1; });
              break;
            case GenOp::Kind::Lock:
              mutexes[static_cast<std::size_t>(op.object)].lock();
              break;
            case GenOp::Kind::Unlock:
              mutexes[static_cast<std::size_t>(op.object)].unlock();
              break;
            case GenOp::Kind::TryLockPulse:
              if (mutexes[static_cast<std::size_t>(op.object)].tryLock()) {
                mutexes[static_cast<std::size_t>(op.object)].unlock();
              }
              break;
          }
        }
      }));
    }
    for (auto& w : workers) w.join();
  };
}

TEST(IncrementalReplay, RandomCheckpointableProgramsTraceIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const GenProgram gen = generate(seed);
    expectIdenticalTraces(materializeCheckpointable(gen), /*checkpointable=*/true,
                          "seed " + std::to_string(seed));
  }
}

// --- explorer-level identity (prune hooks interact with rollback) ------------

explore::ExplorerOptions optionsFor(bool incremental, bool checkpointable) {
  explore::ExplorerOptions options;
  options.scheduleLimit = 500;
  options.incremental = incremental;
  options.checkpointable = checkpointable;
  return options;
}

TEST(IncrementalReplay, CachingAndDporCountsIdenticalAcrossModes) {
  const char* names[] = {"noisy-counter-3x2", "prodcons-1x1", "deadlock-ab",
                         "trylock-fallback-2"};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    for (const trace::Relation relation :
         {trace::Relation::Full, trace::Relation::Lazy, trace::Relation::Value}) {
      explore::DfsExplorer off(optionsFor(false, false), relation);
      explore::DfsExplorer on(optionsFor(true, spec->checkpointable), relation);
      expectSameContractStats(
          off.explore(spec->body), on.explore(spec->body),
          std::string(name) + " caching-" + trace::relationName(relation));
    }
    explore::DporExplorer off(optionsFor(false, false));
    explore::DporExplorer on(optionsFor(true, spec->checkpointable));
    expectSameContractStats(off.explore(spec->body), on.explore(spec->body),
                            std::string(name) + " dpor");
  }
}

TEST(IncrementalReplay, ElisionAccountingIsConsistent) {
  const programs::ProgramSpec* spec = programs::byName("noisy-counter-3x2");
  ASSERT_NE(spec, nullptr);
  // DPOR stages by the tree search's one rule (explore/dfs_explorer.hpp)
  // over its backtrack sets; a DPOR that stopped staging would still pass
  // every count gate, so its replay statistics are checked like dfs's.
  for (const bool dpor : {false, true}) {
    SCOPED_TRACE(dpor ? "dpor" : "dfs");
    const auto run = [&](const explore::ExplorerOptions& options) {
      if (dpor) return explore::DporExplorer(options).explore(spec->body);
      return explore::DfsExplorer(options).explore(spec->body);
    };
    const explore::ExplorationResult base = run(optionsFor(false, false));
    EXPECT_EQ(base.eventsElided, 0u);
    EXPECT_GT(base.eventsReplayed, 0u);  // replays exist; they are just re-run

    // At the engine default every divergence finds its stage; at 512 bytes
    // (less than one stage) eviction and the replay fallback run constantly.
    for (const std::uint64_t budget :
         {explore::defaultSnapshotBudgetBytes(), std::uint64_t{512}}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      explore::ExplorerOptions options = optionsFor(true, spec->checkpointable);
      options.snapshotBudgetBytes = budget;
      const explore::ExplorationResult fast = run(options);
      EXPECT_EQ(fast.totalEvents, base.totalEvents);
      if (runtime::Execution::checkpointingSupported()) {
        EXPECT_GT(fast.eventsElided, 0u);
        // Elided + replayed per schedule == divergence depth, so the two
        // modes partition the same redundant-prefix total at any budget —
        // a fallback only moves events from elided to replayed.
        EXPECT_EQ(fast.eventsElided + fast.eventsReplayed, base.eventsReplayed);
        if (budget == 512) {
          EXPECT_GT(fast.checkpointStats.evictions, 0u);
          EXPECT_GT(fast.checkpointStats.replayFallbacks, 0u);
        }
      }
      EXPECT_LE(fast.eventsElided, fast.totalEvents);
    }
  }
}

// --- snapshot-budget identity ------------------------------------------------
//
// The byte-budgeted snapshot store (explore/prefix_replay.hpp) evicts
// staged checkpoints under pressure and falls back to replaying from a
// shallower stage (or a full restart). None of that may move a single
// observable: traces and counts are byte-identical at any budget.

TEST(SnapshotBudget, EnvironmentValueMustBePlainDecimal) {
  // LAZYHB_SNAPSHOT_BUDGET: empty means unset (CI legs export it empty);
  // anything but plain decimal digits that fit in 64 bits is refused, and
  // defaultSnapshotBudgetBytes() aborts with a diagnostic on a refusal.
  EXPECT_EQ(explore::parseSnapshotBudgetEnv(""), std::uint64_t{256} * 1024 * 1024);
  EXPECT_EQ(explore::parseSnapshotBudgetEnv("0"), 0u);
  EXPECT_EQ(explore::parseSnapshotBudgetEnv("4096"), 4096u);
  for (const char* bad : {"-1", "4k", " 4096", "99999999999999999999"}) {
    EXPECT_EQ(explore::parseSnapshotBudgetEnv(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(IncrementalReplay, TracesIdenticalAtAnySnapshotBudget) {
  // A 64-byte budget keeps at most the deepest stage alive — every
  // shallower divergence goes through the eviction fallback path.
  const char* names[] = {"noisy-counter-3x1", "racy-counter-3", "pingpong-2"};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    const std::vector<ScheduleTrace> baseline = tracedDfs(spec->body, false, false);
    for (const std::uint64_t budget : {std::uint64_t{64}, std::uint64_t{0}}) {
      const std::vector<ScheduleTrace> elision =
          tracedDfs(spec->body, true, false, 4000, budget);
      ASSERT_EQ(baseline.size(), elision.size()) << name << " budget " << budget;
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_TRUE(baseline[i] == elision[i])
            << name << ": schedule " << i << " diverges at budget " << budget;
      }
      if (spec->checkpointable && runtime::Execution::checkpointingSupported()) {
        const std::vector<ScheduleTrace> rollback =
            tracedDfs(spec->body, true, true, 4000, budget);
        ASSERT_EQ(baseline.size(), rollback.size()) << name << " budget " << budget;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_TRUE(baseline[i] == rollback[i])
              << name << ": schedule " << i
              << " diverges under rollback at budget " << budget;
        }
      }
    }
  }
}

// --- TSO store-buffer identity -----------------------------------------------
//
// Under TSO a checkpoint can land with stores still parked in per-thread
// buffers; rollback must restore the buffers (contents, FIFO order, flush
// counters) exactly, or the re-extended schedule forwards different values
// and every fingerprint downstream drifts. These tests run the same
// triple-mode and budget-eviction comparisons as above, but over the
// weak-memory corpus with flush transitions in every schedule tree.

TEST(IncrementalReplay, TsoTracesIdenticalAcrossModes) {
  // The whole weak-memory family: buggy litmus variants (violations
  // mid-tree), fenced witnesses (fence gates interleave with rollback), and
  // the forwarding witness (reads served from restored buffers).
  for (const programs::ProgramSpec* spec : programs::byFamily("weakmem")) {
    const std::vector<ScheduleTrace> baseline =
        tracedDfs(spec->body, false, false, 4000, 0, memory::MemoryModel::Tso);
    const std::vector<ScheduleTrace> elision =
        tracedDfs(spec->body, true, false, 4000, 0, memory::MemoryModel::Tso);
    ASSERT_EQ(baseline.size(), elision.size()) << spec->name;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(baseline[i] == elision[i])
          << spec->name << ": schedule " << i
          << " diverges under recorder elision (tso)";
    }
    if (spec->checkpointable && runtime::Execution::checkpointingSupported()) {
      const std::vector<ScheduleTrace> rollback =
          tracedDfs(spec->body, true, true, 4000, 0, memory::MemoryModel::Tso);
      ASSERT_EQ(baseline.size(), rollback.size()) << spec->name;
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_TRUE(baseline[i] == rollback[i])
            << spec->name << ": schedule " << i
            << " diverges under runtime rollback (tso)";
      }
    }
  }
}

TEST(IncrementalReplay, TsoTracesIdenticalUnderSnapshotBudgetEviction) {
  // A 64-byte budget forces the eviction fallback on nearly every
  // divergence: rollback targets vanish and the engine replays from
  // shallower stages — with non-empty store buffers at both ends.
  const char* names[] = {"sb-unfenced", "peterson-unfenced", "seqlock-fenced",
                         "store-forwarding"};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    const std::vector<ScheduleTrace> baseline =
        tracedDfs(spec->body, false, false, 4000, 0, memory::MemoryModel::Tso);
    for (const std::uint64_t budget : {std::uint64_t{64}, std::uint64_t{0}}) {
      for (const bool useRollback : {false, true}) {
        if (useRollback && !(spec->checkpointable &&
                             runtime::Execution::checkpointingSupported())) {
          continue;
        }
        const std::vector<ScheduleTrace> candidate = tracedDfs(
            spec->body, true, useRollback, 4000, budget, memory::MemoryModel::Tso);
        ASSERT_EQ(baseline.size(), candidate.size())
            << name << " budget " << budget << " rollback " << useRollback;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_TRUE(baseline[i] == candidate[i])
              << name << ": schedule " << i << " diverges at budget " << budget
              << (useRollback ? " under runtime rollback" : " under elision")
              << " (tso)";
        }
      }
    }
  }
}

// --- random walks rolled back to the root ------------------------------------
//
// Random walks share no prefix beyond the root, so on the runtime-rollback
// tier each walk after the first resumes the persistent execution from the
// checkpoint its first pick staged. Every walk — including ones that end
// parked in a failed assertion or a deadlock — must match a fresh
// execution's walk exactly.

/// A checkpointable SC program whose walks can violate: an unprotected
/// check-then-act oversells the one seat, and an AB-BA lock order
/// deadlocks under some interleavings.
void oversellOrDeadlock() {
  Shared<int> seats{1, "seats"};
  Mutex a("a");
  Mutex b("b");
  auto buyer = spawn([&] {
    if (seats.load() > 0) seats.store(seats.load() - 1);
    LockGuard first(a);
    LockGuard second(b);
  });
  if (seats.load() > 0) seats.store(seats.load() - 1);
  {
    LockGuard first(b);
    LockGuard second(a);
  }
  buyer.join();
  checkAlways(seats.load() >= 0, "oversold");
}

struct WalkCase {
  std::string label;
  explore::Program body;
  memory::MemoryModel model = memory::MemoryModel::Sc;
  bool violates = false;  ///< some of the walks must end in a violation
};

std::vector<WalkCase> walkCases() {
  std::vector<WalkCase> cases = {{"oversell-or-deadlock", oversellOrDeadlock,
                                  memory::MemoryModel::Sc, true}};
  for (const char* name : {"readers-writer-2", "prodcons-2x2", "trylock-vs-lock"}) {
    cases.push_back({name, programs::byName(name)->body, memory::MemoryModel::Sc, false});
  }
  cases.push_back({"sb-unfenced", programs::byName("sb-unfenced")->body,
                   memory::MemoryModel::Tso, true});
  cases.push_back({"store-forwarding", programs::byName("store-forwarding")->body,
                   memory::MemoryModel::Tso, false});
  return cases;
}

TEST(IncrementalReplay, RandomWalksTraceIdenticallyWhenRolledBackToTheRoot) {
  for (const WalkCase& c : walkCases()) {
    const std::vector<ScheduleTrace> fresh =
        tracedRandom(c.body, /*incremental=*/false, false, 0, c.model);
    bool violated = false;
    for (const ScheduleTrace& t : fresh) violated = violated || runtime::isViolation(t.outcome);
    EXPECT_EQ(violated, c.violates) << c.label;
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{4096}}) {
      const std::vector<ScheduleTrace> rolled =
          tracedRandom(c.body, /*incremental=*/true, /*checkpointable=*/true, budget, c.model);
      ASSERT_EQ(fresh.size(), rolled.size()) << c.label;
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_TRUE(fresh[i] == rolled[i])
            << c.label << ": walk " << i << " diverges at budget " << budget;
      }
    }
  }
}

TEST(IncrementalReplay, RandomExplorerCountsIdenticalWhenRolledBackToTheRoot) {
  for (const WalkCase& c : walkCases()) {
    explore::ExplorerOptions off = optionsFor(false, false);
    off.memoryModel = c.model;
    explore::RandomExplorer fresh(off, /*seed=*/5);
    const explore::ExplorationResult baseline = fresh.explore(c.body);
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{4096}}) {
      explore::ExplorerOptions on = optionsFor(true, true);
      on.memoryModel = c.model;
      on.snapshotBudgetBytes = budget;
      explore::RandomExplorer rolled(on, /*seed=*/5);
      const explore::ExplorationResult result = rolled.explore(c.body);
      const std::string label = c.label + " budget " + std::to_string(budget);
      expectSameContractStats(baseline, result, label);
      if (runtime::Execution::checkpointingSupported()) {
        EXPECT_EQ(result.checkpointStats.stages, 1u) << label;  // the root, once
        EXPECT_EQ(result.eventsElided, 0u) << label;
      }
    }
  }
}

TEST(IncrementalReplay, CountsIdenticalAcrossBudgetAndWorkerMatrix) {
  // The golden 8-program matrix crossed with undo-log on/off, snapshot
  // budget {tiny, engine default, unlimited} and workers {1, 4}. The
  // incremental-off sequential run is the one baseline; every other mode
  // must reproduce its counts byte-for-byte.
  const char* names[] = {
      "disjoint-lock-2", "noisy-counter-3x1", "prodcons-1x1", "trylock-vs-lock",
      "sem-rendezvous",  "racy-counter-3",    "pingpong-2",   "deadlock-ab",
  };
  const std::uint64_t budgets[] = {512, explore::defaultSnapshotBudgetBytes(), 0};
  for (const char* name : names) {
    const programs::ProgramSpec* spec = programs::byName(name);
    ASSERT_NE(spec, nullptr) << name;
    explore::DfsExplorer off(optionsFor(false, false));
    const explore::ExplorationResult baseline = off.explore(spec->body);
    for (const std::uint64_t budget : budgets) {
      for (const int workers : {1, 4}) {
        explore::ExplorerOptions options = optionsFor(true, spec->checkpointable);
        options.snapshotBudgetBytes = budget;
        options.workers = workers;
        const std::string label = std::string(name) + " budget " +
                                  std::to_string(budget) + " workers " +
                                  std::to_string(workers);
        if (workers == 1) {
          explore::DfsExplorer on(options);
          expectSameContractStats(baseline, on.explore(spec->body), label);
        } else {
          ASSERT_TRUE(explore::ParallelExplorer::shardable(options)) << label;
          explore::ParallelExplorer on(options, /*cacheKey=*/std::nullopt);
          expectSameContractStats(baseline, on.explore(spec->body), label);
        }
      }
    }
  }
}

// --- undo-log mechanics ------------------------------------------------------

void coalesceProgram() {
  Shared<int> a{0, "a"};
  Shared<int> b{0, "b"};
  a.store(1);
  a.store(2);
  a.store(3);
  b.store(1);
  a.store(4);
}

lazyhb::testing::CapturedTrace captureCoalesceTrace() {
  runtime::StackPool pool;
  lazyhb::testing::CapturedTrace captured;
  runtime::Execution source(runtime::Config{}, pool, &captured);
  explore::FixedScheduler scheduler({});
  (void)source.run(coalesceProgram, scheduler);
  return captured;
}

TEST(IncrementalReplay, UndoEntriesCoalescePerObjectBetweenStages) {
  const lazyhb::testing::CapturedTrace captured = captureCoalesceTrace();
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < captured.events.size(); ++i) {
    if (captured.events[i].kind == runtime::OpKind::Write) writes.push_back(i);
  }
  ASSERT_EQ(writes.size(), 5u);  // a, a, a, b, a

  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  recorder.onExecutionStart(dummy);
  for (const auto& reg : captured.registrations) {
    recorder.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                                reg.initialValueHash);
  }
  std::size_t next = 0;
  auto feedThrough = [&](std::size_t lastEvent) {
    for (; next <= lastEvent; ++next) {
      recorder.onEvent(dummy, captured.events[next]);
    }
  };

  // No capture, no undo-logging: the hook must be a no-op.
  feedThrough(writes[0]);
  EXPECT_EQ(recorder.undoLogSize(), 0u);

  trace::TraceRecorder::Snapshot s0;
  trace::TraceRecorder::Snapshot s1;
  const std::size_t d0 = recorder.eventCount();
  (void)recorder.capture(s0);
  feedThrough(writes[1]);
  EXPECT_EQ(recorder.undoLogSize(), 1u);  // first touch of `a` since the capture
  feedThrough(writes[2]);
  EXPECT_EQ(recorder.undoLogSize(), 1u);  // second write to `a` coalesces
  feedThrough(writes[3]);
  EXPECT_EQ(recorder.undoLogSize(), 2u);  // `b` is a fresh object

  (void)recorder.capture(s1);
  feedThrough(writes[4]);
  EXPECT_EQ(recorder.undoLogSize(), 3u);  // a new capture re-logs `a` once

  // Restoring trims the undo log to each snapshot's mark.
  recorder.restore(s1);
  EXPECT_EQ(recorder.undoLogSize(), 2u);
  recorder.restore(s0);
  EXPECT_EQ(recorder.undoLogSize(), 0u);
  EXPECT_EQ(recorder.eventCount(), d0);
}

TEST(IncrementalReplay, EvictThenRollbackPastEvictedRestoresState) {
  const lazyhb::testing::CapturedTrace captured = captureCoalesceTrace();
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < captured.events.size(); ++i) {
    if (captured.events[i].kind == runtime::OpKind::Write) writes.push_back(i);
  }
  ASSERT_EQ(writes.size(), 5u);

  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  recorder.onExecutionStart(dummy);
  for (const auto& reg : captured.registrations) {
    recorder.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                                reg.initialValueHash);
  }
  std::size_t next = 0;
  auto feedThrough = [&](std::size_t lastEvent) {
    for (; next <= lastEvent; ++next) {
      recorder.onEvent(dummy, captured.events[next]);
    }
  };

  feedThrough(writes[0]);
  trace::TraceRecorder::Snapshot base;
  trace::TraceRecorder::Snapshot mid;
  const std::size_t d0 = recorder.eventCount();
  (void)recorder.capture(base);
  const support::Hash128 fullAtD0 = recorder.fingerprint(trace::Relation::Full);
  const support::Hash128 lazyAtD0 = recorder.fingerprint(trace::Relation::Lazy);

  feedThrough(writes[2]);
  const std::size_t d1 = recorder.eventCount();
  (void)recorder.capture(mid);
  feedThrough(writes[4]);
  const support::Hash128 fullEnd = recorder.fingerprint(trace::Relation::Full);

  // Evicting the mid stage is the replay engine dropping its snapshot: the
  // undo entries logged above its mark stay in the log, so restoring the
  // base *past* it still lands exactly on d0's state.
  recorder.restore(base);
  EXPECT_EQ(recorder.eventCount(), d0);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Full), fullAtD0);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Lazy), lazyAtD0);

  // Re-extending along the same suffix reproduces the original trace, and
  // the evicted snapshot's storage serves the next capture.
  next = writes[0] + 1;
  feedThrough(writes[2]);
  (void)recorder.capture(mid);
  feedThrough(writes[4]);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Full), fullEnd);
  recorder.restore(mid);
  EXPECT_EQ(recorder.eventCount(), d1);
}

TEST(IncrementalReplay, ValueFingerprintSurvivesRollbackAndReplay) {
  // The observation state behind Relation::Value (abelian prefix digest,
  // per-var value hashes, condvar queues) must restore across
  // capture/restore exactly like the relation state: a rolled-back and
  // re-extended recorder's Value fingerprint is byte-identical to a fresh
  // recorder fed the same stream.
  runtime::StackPool pool;
  lazyhb::testing::CapturedTrace captured;
  {
    runtime::Execution source(runtime::Config{}, pool, &captured);
    explore::FixedScheduler scheduler({});
    (void)source.run(
        [] {
          Shared<int> a{0, "a"};
          Shared<int> b{5, "b"};  // nonzero initial value hash
          a.store(1);
          b.store(a.load() + 2);
          a.store(4);
          (void)b.load();
        },
        scheduler);
  }
  ASSERT_GE(captured.events.size(), 4u);

  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  auto seed = [&](trace::TraceRecorder& r) {
    r.onExecutionStart(dummy);
    for (const auto& reg : captured.registrations) {
      r.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                           reg.initialValueHash);
    }
  };
  seed(recorder);
  const std::size_t half = captured.events.size() / 2;
  for (std::size_t i = 0; i < half; ++i) recorder.onEvent(dummy, captured.events[i]);
  trace::TraceRecorder::Snapshot atHalf;
  (void)recorder.capture(atHalf);
  const support::Hash128 valueAtD = recorder.fingerprint(trace::Relation::Value);
  for (std::size_t i = half; i < captured.events.size(); ++i) {
    recorder.onEvent(dummy, captured.events[i]);
  }
  const support::Hash128 valueEnd = recorder.fingerprint(trace::Relation::Value);
  EXPECT_NE(valueAtD, valueEnd);  // the suffix must actually change it

  recorder.restore(atHalf);
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Value), valueAtD);
  for (std::size_t i = half; i < captured.events.size(); ++i) {
    recorder.onEvent(dummy, captured.events[i]);
  }
  EXPECT_EQ(recorder.fingerprint(trace::Relation::Value), valueEnd);

  trace::TraceRecorder fresh;
  seed(fresh);
  for (const auto& ev : captured.events) fresh.onEvent(dummy, ev);
  EXPECT_EQ(fresh.fingerprint(trace::Relation::Value), valueEnd);
}

// --- arena truncation --------------------------------------------------------

TEST(ClockArena, TruncateThenReExtendMatchesFreshRows) {
  trace::ClockArena arena(4);
  auto append = [&](std::uint32_t base) {
    std::uint32_t* row = arena.appendRow();
    for (std::uint32_t i = 0; i < arena.stride(); ++i) row[i] = base + i;
  };
  for (std::uint32_t r = 0; r < 6; ++r) append(10 * r);
  arena.truncate(3);
  EXPECT_EQ(arena.rows(), 3u);
  // Retained rows untouched.
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(arena.view(r).get(0), 10 * r);
  }
  // Re-extension overwrites the truncated tail.
  append(700);
  EXPECT_EQ(arena.rows(), 4u);
  EXPECT_EQ(arena.view(3).get(0), 700u);
  EXPECT_EQ(arena.view(3).get(3), 703u);
}

TEST(ClockArena, TruncateToZeroBehavesLikeReset) {
  trace::ClockArena arena(2);
  (void)arena.appendRow();
  arena.truncate(0);
  EXPECT_EQ(arena.rows(), 0u);
}

}  // namespace
