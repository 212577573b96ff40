// Trace-layer tests: vector clocks, the three happens-before relations on
// hand-constructed scenarios, exact canonical forms, the equivalence of the
// incremental fingerprints with the exact forms across entire schedule
// spaces, sync-HB race detection, and the recorder's consumer sets (what
// each builds must not change what the others see).

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "explore/random_explorer.hpp"
#include "explore/replay.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "runtime/api.hpp"
#include "test_helpers.hpp"
#include "trace/clock_arena.hpp"
#include "trace/foata.hpp"
#include "trace/hb_graph.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/vector_clock.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::PrefixFingerprints;
using trace::Relation;
using trace::TraceRecorder;
using trace::VectorClock;

TEST(VectorClock, GetSetJoinLeq) {
  VectorClock a;
  a.set(0, 3);
  a.set(2, 1);
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(1), 0u);
  EXPECT_EQ(a.get(5), 0u);  // beyond width

  VectorClock b;
  b.set(1, 2);
  b.set(2, 4);
  VectorClock joined = a;
  joined.joinWith(b);
  EXPECT_EQ(joined.get(0), 3u);
  EXPECT_EQ(joined.get(1), 2u);
  EXPECT_EQ(joined.get(2), 4u);

  EXPECT_TRUE(a.leq(joined));
  EXPECT_TRUE(b.leq(joined));
  EXPECT_FALSE(joined.leq(a));
}

TEST(VectorClock, EqualityIgnoresTrailingZeros) {
  VectorClock a;
  a.set(0, 1);
  VectorClock b;
  b.set(0, 1);
  b.set(3, 0);
  EXPECT_TRUE(a == b);
}

TEST(ClockView, ViewsInteroperateAcrossWidths) {
  const std::uint32_t narrow[] = {3, 1};
  const std::uint32_t wide[] = {3, 2, 0, 5};
  const trace::ClockView a{narrow, 2};
  const trace::ClockView b{wide, 4};
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(3), 0u);         // beyond width: zero by convention
  EXPECT_TRUE(a.leq(b));           // pointwise over the implicit zeros
  EXPECT_FALSE(b.leq(a));          // b[3]=5 exceeds a's implicit zero
  const std::uint32_t bumped[] = {3, 3};
  EXPECT_FALSE((trace::ClockView{bumped, 2}.leq(b)));  // 3 > b[1]=2
  // Default view is the zero clock: leq everything, equal to explicit zeros.
  EXPECT_TRUE(trace::ClockView{}.leq(a));
  const std::uint32_t zeros[] = {0, 0};
  EXPECT_TRUE((trace::ClockView{} == trace::ClockView{zeros, 2}));
  // Round trip through the owning class.
  const VectorClock owned{b};
  EXPECT_TRUE(owned.view() == b);
}

TEST(ClockArena, AppendJoinAndWiden) {
  trace::ClockArena arena{4};
  std::uint32_t* r0 = arena.appendRow();
  for (std::uint32_t i = 0; i < 4; ++i) r0[i] = i + 1;  // 1 2 3 4
  std::uint32_t* r1 = arena.appendRow();
  for (std::uint32_t i = 0; i < 4; ++i) r1[i] = 4 - i;  // 4 3 2 1
  trace::joinClockSpans(r1, arena.row(0), 4);
  EXPECT_TRUE((arena.view(1) == trace::ClockView{
                   std::array<std::uint32_t, 4>{4, 3, 3, 4}.data(), 4}));

  // Widening re-strides in place and zero-pads: no clock changes value.
  const VectorClock before0{arena.view(0)};
  const VectorClock before1{arena.view(1)};
  arena.widen(8);
  EXPECT_EQ(arena.stride(), 8u);
  EXPECT_TRUE(arena.view(0) == before0.view());
  EXPECT_TRUE(arena.view(1) == before1.view());
  EXPECT_EQ(arena.view(0).get(7), 0u);

  // reset keeps stride and storage, drops rows.
  arena.reset();
  EXPECT_EQ(arena.rows(), 0u);
  EXPECT_EQ(arena.stride(), 8u);
}

/// Record one execution of `body` (first-enabled schedule) with full
/// predecessor tracking and hand it to `inspect`.
void recordOnce(const std::function<void()>& body,
                const std::function<void(const TraceRecorder&)>& inspect,
                bool detectRaces = false) {
  TraceRecorder recorder(TraceRecorder::Options{true, detectRaces});
  runtime::StackPool pool;
  runtime::Execution exec(runtime::Config{}, pool, &recorder);
  explore::FixedScheduler scheduler({});
  (void)exec.run(body, scheduler);
  inspect(recorder);
}

TEST(Relations, MutexEdgesPresentInFullAbsentInLazy) {
  recordOnce(lazyhb::testing::figure1Program, [](const TraceRecorder& recorder) {
    // Figure 1, T1-first schedule: T2's lock must depend on T1's unlock in
    // the Full relation but not in the Lazy relation.
    const int fullEdges = trace::interThreadEdgeCount(recorder, Relation::Full);
    const int lazyEdges = trace::interThreadEdgeCount(recorder, Relation::Lazy);
    EXPECT_GT(fullEdges, lazyEdges);
    // Lazy keeps only the spawn/join scaffold here (x is read-only, y/z
    // disjoint, all mutex edges erased): exactly 2 inter-thread edges.
    EXPECT_EQ(lazyEdges, 2);
  });
}

TEST(Relations, SpawnJoinEdgesInEveryRelation) {
  auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    t.join();
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    // Events: spawn(T0), write(T1), join(T0). The write's spawn predecessor
    // and the join's target-last-event predecessor must appear in all three
    // relations.
    ASSERT_EQ(recorder.eventCount(), 3u);
    for (const auto relation : {Relation::Sync, Relation::Full, Relation::Lazy}) {
      EXPECT_EQ(recorder.eventPredecessors(relation, 1), std::vector<std::int32_t>{0})
          << trace::relationName(relation);
      // join's predecessors: its own thread's previous event (0) and the
      // child's last event (1).
      EXPECT_EQ(recorder.eventPredecessors(relation, 2),
                (std::vector<std::int32_t>{0, 1}))
          << trace::relationName(relation);
    }
  });
}

TEST(Relations, TryLockKeepsLazyEdges) {
  auto body = [] {
    Mutex m("m");
    m.lock();
    m.unlock();
    if (m.tryLock()) {
      m.unlock();
    }
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    // Events: lock(0) unlock(1) trylock(2) unlock(3). The trylock must be
    // lazily ordered after the preceding lock AND unlock (it observes the
    // mutex state); the plain lock/unlock chain is lazily erased.
    ASSERT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.eventPredecessors(Relation::Lazy, 2),
              (std::vector<std::int32_t>{0, 1}));
    // Full keeps the chain: each event depends on its chain predecessor.
    EXPECT_EQ(recorder.eventPredecessors(Relation::Full, 2),
              (std::vector<std::int32_t>{1}));
  });
}

TEST(Races, DetectedOnUnsyncAccessMissedUnderLock) {
  auto racy = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
  };
  recordOnce(racy, [](const TraceRecorder& recorder) {
    ASSERT_EQ(recorder.races().size(), 1u);
    EXPECT_EQ(recorder.races()[0].objectName, "x");
  }, /*detectRaces=*/true);

  auto locked = [] {
    Shared<int> x{0, "x"};
    Mutex m("m");
    auto t = spawn([&] {
      LockGuard guard(m);
      x.store(1);
    });
    {
      LockGuard guard(m);
      x.store(2);
    }
    t.join();
  };
  recordOnce(locked, [](const TraceRecorder& recorder) {
    EXPECT_TRUE(recorder.races().empty());
  }, /*detectRaces=*/true);
}

TEST(Races, SemaphoreSynchronizes) {
  auto body = [] {
    Shared<int> data{0, "data"};
    Semaphore ready{0, "sem"};
    auto t = spawn([&] {
      data.store(1);
      ready.release();
    });
    ready.acquire();
    data.store(2);
    t.join();
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    EXPECT_TRUE(recorder.races().empty());
  }, /*detectRaces=*/true);
}

TEST(Foata, LevelsRespectDependencies) {
  auto body = [] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
  };
  recordOnce(body, [](const TraceRecorder& recorder) {
    const auto levels = trace::foataLevels(recorder, Relation::Full);
    ASSERT_EQ(levels.size(), recorder.eventCount());
    // Every event sits strictly above all of its predecessors.
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(levels.size()); ++i) {
      for (const std::int32_t p : recorder.eventPredecessors(Relation::Full, i)) {
        EXPECT_LT(levels[static_cast<std::size_t>(p)],
                  levels[static_cast<std::size_t>(i)]);
      }
    }
  });
}

TEST(HbGraph, RenderContainsEventsAndDot) {
  recordOnce(lazyhb::testing::figure1Program, [](const TraceRecorder& recorder) {
    const std::string text = trace::renderSchedule(recorder, Relation::Full);
    EXPECT_NE(text.find("lock(m)"), std::string::npos);
    EXPECT_NE(text.find("write(y)"), std::string::npos);
    const std::string dot = trace::renderDot(recorder, Relation::Full);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
  });
}

// The central canonicity property: over every prefix a prune hook probes in
// a program's complete schedule tree, two prefixes get the same incremental
// fingerprint iff they have the same exact canonical form — for both
// relations, with the Foata normal form and the explicit relation (the
// closure of the kept predecessor lists) as independent oracles. Besides
// three hand-written SC programs, the inputs cover every object kind the
// epochs treat differently — trylocks, condvars, semaphores, spawn/join
// trees — and TSO store buffers (buffered writes, flushes, forwarded reads,
// fences). The walk runs through the prefix-replay engine, with runtime
// rollback wherever the program allows it, so fingerprints restored by a
// rollback are probed too.
class FingerprintCanonicity : public ::testing::TestWithParam<int> {};

struct CanonicityInput {
  std::string name;
  explore::Program body;
  memory::MemoryModel model = memory::MemoryModel::Sc;
  bool checkpointable = false;
};

CanonicityInput canonicityInput(int index) {
  switch (index) {
    case 0: return {"figure1", lazyhb::testing::figure1Program};
    case 1:
      return {"racy-writes-and-mutex", [] {
                Shared<int> x{0, "x"};
                Mutex m("m");
                auto t = spawn([&] {
                  x.store(1);
                  LockGuard guard(m);
                });
                {
                  LockGuard guard(m);
                }
                x.store(2);
                t.join();
              }};
    case 2:
      return {"three-threads-two-vars", [] {
                Shared<int> a{0, "a"};
                Shared<int> b{0, "b"};
                auto t1 = spawn([&] { a.store(1); });
                auto t2 = spawn([&] {
                  b.store(1);
                  (void)a.load();
                });
                a.store(2);
                t1.join();
                t2.join();
              }};
    default: break;
  }
  static const std::pair<const char*, memory::MemoryModel> kCorpus[] = {
      {"trylock-vs-lock", memory::MemoryModel::Sc},
      {"trylock-fallback-2", memory::MemoryModel::Sc},
      {"trylock-fallback-3", memory::MemoryModel::Sc},
      {"prodcons-1x1", memory::MemoryModel::Sc},
      {"barrier-2", memory::MemoryModel::Sc},
      {"lost-signal", memory::MemoryModel::Sc},
      {"sem-handoff-2", memory::MemoryModel::Sc},
      {"fork-tree", memory::MemoryModel::Sc},
      {"store-forwarding", memory::MemoryModel::Tso},
      {"sb-unfenced", memory::MemoryModel::Tso},
      {"dekker-unfenced", memory::MemoryModel::Tso},
      {"seqlock-fenced", memory::MemoryModel::Tso},
  };
  const auto& [name, model] = kCorpus[index - 3];
  const programs::ProgramSpec* spec = programs::byName(name);
  if (spec == nullptr) return {name, nullptr};
  return {name, spec->body, model, spec->checkpointable};
}

TEST_P(FingerprintCanonicity, FingerprintEqualsIffExactFormEqual) {
  const CanonicityInput input = canonicityInput(GetParam());
  ASSERT_TRUE(input.body) << input.name;
  SCOPED_TRACE(input.name);

  TraceRecorder recorder(TraceRecorder::Options{.keepPredecessors = true});
  runtime::StackPool pool;
  explore::PrefixReplayEngine engine(
      pool, recorder, /*incremental=*/true,
      input.checkpointable && runtime::Execution::checkpointingSupported(),
      /*snapshotBudgetBytes=*/0);
  explore::TreeSearchState state;
  using Form = std::vector<std::uint64_t>;
  std::map<Form, support::Hash128> foataToFp[2];
  std::map<Form, support::Hash128> explicitToFp[2];
  std::map<support::Hash128, Form,
           decltype([](const support::Hash128& a, const support::Hash128& b) {
             return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
           })>
      fpToFoata[2];
  int schedules = 0;
  std::size_t probes = 0;
  int failures = 0;
  auto expect = [&](bool holds, const char* what) {
    if (!holds && ++failures <= 3) {
      ADD_FAILURE() << what << " (schedule " << schedules << ", prefix of "
                    << recorder.eventCount() << " events)";
    }
  };
  // The prune hook of the caching explorers, minus the pruning: record one
  // (fingerprint, exact form) pair per relation for the current prefix.
  auto probe = [&] {
    ++probes;
    for (const auto relation : {Relation::Full, Relation::Lazy}) {
      const int r = relation == Relation::Full ? 0 : 1;
      const auto fp = recorder.fingerprint(relation);
      const Form foata = trace::foataNormalForm(recorder, relation);
      const Form exact = trace::explicitRelation(recorder, relation);
      expect(foataToFp[r].emplace(foata, fp).first->second == fp,
             "same Foata NF, different fingerprint");
      expect(explicitToFp[r].emplace(exact, fp).first->second == fp,
             "same explicit relation, different fingerprint");
      expect(fpToFoata[r].emplace(fp, foata).first->second == foata,
             "same fingerprint, different Foata NF");
    }
    return false;  // never prune: every prefix of the tree gets probed
  };

  std::size_t startDepth = 0;
  for (;;) {
    runtime::Config config;
    config.memoryModel = input.model;
    explore::TreeScheduler scheduler(state, probe, &engine, startDepth);
    const explore::PrefixReplayEngine::Session session =
        engine.beginSchedule(config, &recorder);
    (void)(session.resumed ? session.exec->resume(scheduler)
                           : session.exec->run(input.body, scheduler));
    ++schedules;
    ASSERT_LT(schedules, 100000) << "space too large for the test";
    // The final prefix has no pick after it; the caching explorers insert
    // it at schedule end, so it is probed here.
    if (recorder.eventCount() > 0) (void)probe();
    if (!state.advance()) break;
    startDepth = engine.prepareNext(state.checkFromDepth);
  }
  EXPECT_EQ(failures, 0) << "over " << probes << " probed prefixes";
  // Foata NF and the explicit relation must agree on the class count too.
  EXPECT_EQ(foataToFp[0].size(), explicitToFp[0].size());
  EXPECT_EQ(foataToFp[1].size(), explicitToFp[1].size());
  EXPECT_GT(schedules, 1);
  if (input.checkpointable && runtime::Execution::checkpointingSupported()) {
    EXPECT_GT(engine.rollbacks(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallPrograms, FingerprintCanonicity, ::testing::Range(0, 15));

// --- consumer sets -------------------------------------------------------------
//
// The recorder builds only what its consumers declared: fingerprints
// always, Full clock rows for DPOR, Sync rows for the race detector,
// predecessor lists for Foata and rendering. One observer stream fed to
// each consumer set must yield the same prefix fingerprints after every
// event — the fingerprint half reads nothing the predecessor half keeps —
// and DPOR's Full rows must be exactly the clocks the kept Full
// predecessor lists imply.

/// One real execution's observer stream. The execution stays alive: the
/// race detector names racy objects from its object table.
struct RecordedStream {
  runtime::StackPool pool;
  lazyhb::testing::CapturedTrace captured;
  std::unique_ptr<runtime::Execution> source;
};

bool hasKind(const lazyhb::testing::CapturedTrace& c, runtime::OpKind kind) {
  for (const runtime::EventRecord& ev : c.events) {
    if (ev.kind == kind) return true;
  }
  return false;
}

/// Record `program` under the first random walk (seeds 0, 1, ...) whose
/// stream contains every kind in `kinds`.
std::unique_ptr<RecordedStream> recordStream(const explore::Program& program,
                                             memory::MemoryModel model,
                                             std::vector<runtime::OpKind> kinds) {
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    auto stream = std::make_unique<RecordedStream>();
    runtime::Config config;
    config.memoryModel = model;
    stream->source =
        std::make_unique<runtime::Execution>(config, stream->pool, &stream->captured);
    explore::RandomScheduler scheduler(seed);
    (void)stream->source->run(program, scheduler);
    bool all = true;
    for (const runtime::OpKind kind : kinds) all = all && hasKind(stream->captured, kind);
    if (all) return stream;
  }
  ADD_FAILURE() << "no walk produced the requested event kinds";
  return nullptr;
}

/// Feed the stream to `recorder` with registrations interleaved where they
/// happened, staging a checkpoint halfway, running to the end, rolling back
/// and re-extending — the cycle the incremental engine drives. Returns the
/// prefix fingerprints after every event fed.
std::vector<PrefixFingerprints> feed(TraceRecorder& recorder, const RecordedStream& stream) {
  const auto& c = stream.captured;
  const runtime::Execution& exec = *stream.source;
  const std::size_t half = c.events.size() / 2;
  std::vector<PrefixFingerprints> prefixes;
  TraceRecorder::Snapshot atHalf;
  auto extend = [&](std::size_t from) {
    std::size_t reg = 0;
    while (reg < c.registrations.size() && c.registrations[reg].atEvent < from) ++reg;
    for (std::size_t i = from; i <= c.events.size(); ++i) {
      for (; reg < c.registrations.size() && c.registrations[reg].atEvent == i; ++reg) {
        const auto& r = c.registrations[reg];
        recorder.onObjectRegistered(exec, r.index, r.uid, r.kind, r.name, r.initialValueHash);
      }
      if (i == c.events.size()) break;
      recorder.onEvent(exec, c.events[i]);
      prefixes.push_back(lazyhb::testing::prefixFingerprints(recorder));
      if (i + 1 == half) (void)recorder.capture(atHalf);
    }
  };
  recorder.onExecutionStart(exec);
  extend(0);
  recorder.restore(atHalf);
  EXPECT_EQ(recorder.eventCount(), half);
  extend(half);
  EXPECT_EQ(recorder.eventCount(), c.events.size());
  return prefixes;
}

/// An SC program with a mutex, a condvar handshake, a trylock prober and
/// one unsynchronised read (a race for the detector to report).
void mutexCondvarTrylock() {
  Shared<int> ready{0, "ready"};
  Shared<int> data{0, "data"};
  Mutex m("m");
  CondVar cv("cv");
  auto producer = spawn([&] {
    data.store(1);
    LockGuard guard(m);
    ready.store(1);
    cv.signal();
  });
  auto prober = spawn([&] {
    (void)data.load();
    if (m.tryLock()) {
      (void)ready.load();
      m.unlock();
    }
  });
  m.lock();
  while (ready.load() == 0) cv.wait(m);
  m.unlock();
  producer.join();
  prober.join();
}

struct ConsumerSets {
  TraceRecorder none{TraceRecorder::Options{}};
  TraceRecorder dpor{TraceRecorder::Options{.fullClocks = true}};
  TraceRecorder races{TraceRecorder::Options{.detectRaces = true}};
  TraceRecorder preds{TraceRecorder::Options{.keepPredecessors = true}};
  /// Per recorder, in the order above: the prefix fingerprints after every
  /// event fed.
  std::vector<PrefixFingerprints> prefixes[4];

  explicit ConsumerSets(const RecordedStream& stream) {
    std::size_t i = 0;
    for (TraceRecorder* r : {&none, &dpor, &races, &preds}) prefixes[i++] = feed(*r, stream);
  }
};

/// The Full clocks the kept predecessor lists imply: join the direct
/// predecessors' clocks, tick the event's own thread.
std::vector<VectorClock> clocksFromPredecessors(const TraceRecorder& recorder) {
  std::vector<VectorClock> clocks(recorder.eventCount());
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    const auto index = static_cast<std::int32_t>(i);
    for (const std::int32_t p : recorder.eventPredecessors(Relation::Full, index)) {
      clocks[i].joinWith(clocks[static_cast<std::size_t>(p)]);
    }
    const runtime::EventRecord& ev = recorder.eventRecord(index);
    clocks[i].set(ev.threadIndex, ev.indexInThread + 1);
  }
  return clocks;
}

void expectConsumerSetsAgree(const ConsumerSets& sets, const RecordedStream& stream) {
  const std::size_t n = stream.captured.events.size();
  ASSERT_GT(sets.prefixes[0].size(), n);  // the re-extension is fed too
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(sets.prefixes[i] == sets.prefixes[0]) << "consumer set " << i;
  }
  const std::vector<VectorClock> expected = clocksFromPredecessors(sets.preds);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(VectorClock{sets.dpor.eventClock(Relation::Full, static_cast<std::int32_t>(i))} ==
                expected[i])
        << "event " << i;
  }
  // A thread's running clock is its last event's row.
  std::map<int, std::size_t> lastEvent;
  for (std::size_t i = 0; i < n; ++i) lastEvent[stream.captured.events[i].threadIndex] = i;
  for (const auto& [tid, i] : lastEvent) {
    EXPECT_TRUE(VectorClock{sets.dpor.threadClock(Relation::Full, tid)} == expected[i])
        << "thread " << tid;
  }
}

TEST(RecorderConsumers, ScStreamAgreesAcrossConsumerSets) {
  const auto stream = recordStream(mutexCondvarTrylock, memory::MemoryModel::Sc,
                                   {runtime::OpKind::Wait, runtime::OpKind::Signal,
                                    runtime::OpKind::Reacquire, runtime::OpKind::TryLock});
  ASSERT_NE(stream, nullptr);
  const ConsumerSets sets(*stream);
  expectConsumerSetsAgree(sets, *stream);
  // Only the race consumer runs the detector, and it sees the racy read.
  ASSERT_EQ(sets.races.races().size(), 1u);
  EXPECT_EQ(sets.races.races()[0].objectName, "data");
  EXPECT_TRUE(sets.none.races().empty());
  // Object names are kept with the predecessor lists only.
  const runtime::EventRecord& last = stream->captured.events.back();
  const std::string& name = stream->source->object(last.objectIndex).name;
  EXPECT_EQ(sets.preds.objectName(last.objectUid), name);
  EXPECT_NE(sets.none.objectName(last.objectUid), name);
}

TEST(RecorderConsumers, TsoStreamAgreesAcrossConsumerSets) {
  const programs::ProgramSpec* spec = programs::byName("sb-unfenced");
  ASSERT_NE(spec, nullptr);
  const auto stream = recordStream(spec->body, memory::MemoryModel::Tso,
                                   {runtime::OpKind::Flush, runtime::OpKind::Read});
  ASSERT_NE(stream, nullptr);
  expectConsumerSetsAgree(ConsumerSets(*stream), *stream);
}

TEST(RecorderConsumersDeathTest, ReadingAnUnrequestedClockAborts) {
  const auto stream = recordStream(mutexCondvarTrylock, memory::MemoryModel::Sc, {});
  ASSERT_NE(stream, nullptr);
  const ConsumerSets sets(*stream);
  EXPECT_DEATH((void)sets.none.eventClock(Relation::Full, 0), "invariant violated");
  EXPECT_DEATH((void)sets.races.threadClock(Relation::Full, 0), "invariant violated");
  EXPECT_DEATH((void)sets.dpor.eventClock(Relation::Sync, 0), "invariant violated");
  // The Lazy relation has no clocks for any consumer.
  EXPECT_DEATH((void)sets.preds.eventClock(Relation::Lazy, 0), "invariant violated");
}

TEST(RecorderConsumersDeathTest, ReadingUnmaintainedCursorsAborts) {
  // Without a predecessor consumer the recorder keeps no event records and
  // no conflict cursors, so DPOR's queries must not read stale ones.
  const auto stream = recordStream(mutexCondvarTrylock, memory::MemoryModel::Sc, {});
  ASSERT_NE(stream, nullptr);
  const ConsumerSets sets(*stream);
  std::vector<std::int32_t> conflicts;
  EXPECT_DEATH((void)sets.none.eventRecord(0), "invariant violated");
  EXPECT_DEATH((void)sets.none.chainEvents(0), "invariant violated");
  EXPECT_DEATH(sets.none.collectConflicts(*stream->source, 0, conflicts), "invariant violated");
  // Every predecessor consumer maintains them.
  for (const TraceRecorder* r : {&sets.dpor, &sets.races, &sets.preds}) {
    EXPECT_EQ(r->eventRecord(0), stream->captured.events[0]);
    r->collectConflicts(*stream->source, 0, conflicts);
  }
}

// --- one recorder across explorations -------------------------------------------

/// Run `program` once, first enabled pick at every point, observed by
/// `recorder`.
void runOnce(TraceRecorder& recorder, const explore::Program& program,
             memory::MemoryModel model) {
  runtime::StackPool pool;
  runtime::Config config;
  config.memoryModel = model;
  runtime::Execution exec(config, pool, &recorder);
  explore::FixedScheduler scheduler({});
  (void)exec.run(program, scheduler);
}

TEST(RecorderReset, NextExplorationStartsWithNarrowClockRows) {
  // Under TSO the flush agents sit at picks 32 + t, so a TSO run widens the
  // clock rows to 40 columns. A recorder reset for the next exploration
  // (a reused kit) must not keep them for an SC program.
  const programs::ProgramSpec* spec = programs::byName("sb-unfenced");
  ASSERT_NE(spec, nullptr);
  TraceRecorder recorder(TraceRecorder::Options{.fullClocks = true});
  runOnce(recorder, spec->body, memory::MemoryModel::Tso);
  ASSERT_GT(recorder.eventClock(Relation::Full, 0).width(), 8u);
  recorder.reset(TraceRecorder::Options{.fullClocks = true});
  runOnce(recorder, spec->body, memory::MemoryModel::Sc);
  EXPECT_EQ(recorder.eventClock(Relation::Full, 0).width(), 8u);
}

TEST(RecorderSnapshot, CapturedBytesIgnoreSpareCapacity) {
  // capture() refills a pooled snapshot in place. The bytes it reports
  // (checkpoint.bytes_staged) must count what the snapshot holds, not the
  // capacity a capture of more threads left in it.
  const programs::ProgramSpec* spec = programs::byName("sb-unfenced");
  ASSERT_NE(spec, nullptr);
  TraceRecorder recorder(TraceRecorder::Options{.fullClocks = true});
  TraceRecorder::Snapshot reused;
  runOnce(recorder, spec->body, memory::MemoryModel::Tso);
  const std::size_t wide = recorder.capture(reused);  // flush agents: 33+ threads
  runOnce(recorder, spec->body, memory::MemoryModel::Sc);
  TraceRecorder::Snapshot fresh;
  const std::size_t narrow = recorder.capture(fresh);
  ASSERT_LT(narrow, wide);
  EXPECT_EQ(recorder.capture(reused), narrow);
}

// --- value-class fingerprints ------------------------------------------------

/// Enumerate every terminal schedule of `program`; return the distinct
/// fingerprint sets under the Lazy and Value relations plus the distinct
/// terminal-state set (the extended section-3 chain reads
/// |states| <= |value| <= |lazy|).
struct ValueEnumeration {
  std::set<std::pair<std::uint64_t, std::uint64_t>> lazy;
  std::set<std::pair<std::uint64_t, std::uint64_t>> value;
  std::set<std::pair<std::uint64_t, std::uint64_t>> states;
};

ValueEnumeration enumerateValueClasses(const explore::Program& program) {
  TraceRecorder recorder;
  runtime::StackPool pool;
  explore::TreeSearchState state;
  ValueEnumeration out;
  for (;;) {
    runtime::Execution exec(runtime::Config{}, pool, &recorder);
    explore::TreeScheduler scheduler(state);
    if (exec.run(program, scheduler) == runtime::Outcome::Terminal) {
      const auto l = recorder.fingerprint(Relation::Lazy);
      const auto v = recorder.fingerprint(Relation::Value);
      const auto s = exec.stateFingerprint();
      out.lazy.emplace(l.lo, l.hi);
      out.value.emplace(v.lo, v.hi);
      out.states.emplace(s.lo, s.hi);
    }
    if (!state.advance()) break;
  }
  return out;
}

TEST(ValueFingerprint, SameValueDifferentWriterCollides) {
  // Two racing writers store the SAME value, then the parent reads it. The
  // lazy relation still totally orders the conflicting writes (two
  // classes), but both orders produce identical observations — every read
  // sees 7, the final visible state is x == 7 — so the value class merges
  // what the lazy HBR keeps apart.
  const auto e = enumerateValueClasses([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(7); });
    x.store(7);
    t.join();
    (void)x.load();
  });
  EXPECT_GT(e.lazy.size(), 1u);
  EXPECT_EQ(e.value.size(), 1u);
  EXPECT_EQ(e.states.size(), 1u);
}

TEST(ValueFingerprint, DifferentObservedValuesSeparate) {
  // Same shape with different stored values: the write order now decides
  // which value the read observes and which state is terminal, so the
  // value classes must NOT collapse — they track the two states exactly.
  const auto e = enumerateValueClasses([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] { x.store(1); });
    x.store(2);
    t.join();
    (void)x.load();
  });
  EXPECT_EQ(e.value.size(), 2u);
  EXPECT_EQ(e.states.size(), 2u);
  EXPECT_EQ(e.value.size(), e.lazy.size());
}

TEST(ValueFingerprint, IntermediateObservationsSplitWithinOneState) {
  // The child writes 1 then 2; the parent's lone read can observe 0, 1, or
  // 2 while the terminal state is always x == 2. Value classes sit strictly
  // between states and lazy classes: |states| = 1 < |value| = 3 <= |lazy|.
  const auto e = enumerateValueClasses([] {
    Shared<int> x{0, "x"};
    auto t = spawn([&] {
      x.store(1);
      x.store(2);
    });
    (void)x.load();
    t.join();
  });
  EXPECT_EQ(e.states.size(), 1u);
  EXPECT_EQ(e.value.size(), 3u);
  EXPECT_LE(e.value.size(), e.lazy.size());
}

}  // namespace

