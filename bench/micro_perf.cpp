// Micro-benchmarks (google-benchmark) for the substrate the experiments
// stand on: fiber context switches, controlled-execution throughput, vector
// clock operations, incremental fingerprint maintenance, exact Foata
// canonicalisation and cache lookups. These quantify the "executions per
// second" budget that makes 100k-schedule explorations practical.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/hbr_cache.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/random_explorer.hpp"
#include "explore/replay.hpp"
#include "memory/memory_model.hpp"
#include "runtime/api.hpp"
#include "runtime/fiber.hpp"
#include "support/rng.hpp"
#include "trace/clock_arena.hpp"
#include "trace/foata.hpp"
#include "trace/vector_clock.hpp"

namespace {

using namespace lazyhb;

// --- fiber switching ---------------------------------------------------------

void BM_FiberRoundTrip(benchmark::State& state) {
  runtime::StackPool pool;
  // One fiber that yields forever; each iteration is resume+yield.
  bool stop = false;
  runtime::Fiber* self = nullptr;
  runtime::Fiber fiber(pool, [&] {
    while (!stop) {
      self->yieldToHost();
    }
  });
  self = &fiber;
  for (auto _ : state) {
    fiber.resume();
  }
  stop = true;
  fiber.resume();  // let it finish
}
BENCHMARK(BM_FiberRoundTrip);

// --- execution throughput ------------------------------------------------------

void incrementProgram() {
  Shared<int> x{0, "x"};
  Mutex m("m");
  auto t = spawn([&] {
    LockGuard guard(m);
    x.store(x.load() + 1);
  });
  {
    LockGuard guard(m);
    x.store(x.load() + 1);
  }
  t.join();
}

void BM_ExecutionsPerSecond(benchmark::State& state) {
  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    runtime::Execution exec(runtime::Config{}, pool, &recorder);
    explore::FixedScheduler scheduler({});
    benchmark::DoNotOptimize(exec.run(incrementProgram, scheduler));
    ++seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExecutionsPerSecond);

/// BM_ExecutionsPerSecond's twin on the path explorers take: one execution
/// restarted in place per iteration, its fibers, stacks and logs recycled.
void BM_ExecutionsPerSecondRecycled(benchmark::State& state) {
  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution exec(runtime::Config{}, pool, &recorder);
  for (auto _ : state) {
    exec.restart(runtime::Config{}, &recorder);
    explore::FixedScheduler scheduler({});
    benchmark::DoNotOptimize(exec.run(incrementProgram, scheduler));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExecutionsPerSecondRecycled);

void BM_RandomExploration1k(benchmark::State& state) {
  for (auto _ : state) {
    explore::ExplorerOptions options;
    options.scheduleLimit = 1000;
    explore::RandomExplorer explorer(options, 42);
    benchmark::DoNotOptimize(explorer.explore(incrementProgram));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_RandomExploration1k);

/// One thread storing to a Shared<int> 64 times: every pick continues the
/// running thread, so each event is granted in place on its fiber, with no
/// switch. Reported per event.
void sameThreadProgram() {
  Shared<int> x{0, "x"};
  for (int i = 0; i < 64; ++i) x.store(i);
}

void BM_SameThreadEvents(benchmark::State& state) {
  constexpr std::uint64_t kWalks = 1000;
  for (auto _ : state) {
    explore::ExplorerOptions options;
    options.scheduleLimit = kWalks;
    explore::RandomExplorer explorer(options, 42);
    benchmark::DoNotOptimize(explorer.explore(sameThreadProgram));
  }
  // Seconds per event, printed with an SI prefix ("49n" is 49 ns).
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(kWalks * 64),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SameThreadEvents);

void BM_DporExplorationComplete(benchmark::State& state) {
  for (auto _ : state) {
    explore::ExplorerOptions options;
    options.scheduleLimit = 1u << 20;
    explore::DporExplorer explorer(options);
    benchmark::DoNotOptimize(explorer.explore(incrementProgram));
  }
}
BENCHMARK(BM_DporExplorationComplete);

// --- vector clocks ------------------------------------------------------------

void BM_VectorClockJoin(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  trace::VectorClock a;
  trace::VectorClock b;
  support::Rng rng(7);
  for (int i = 0; i < width; ++i) {
    a.set(i, static_cast<std::uint32_t>(rng.below(1000)));
    b.set(i, static_cast<std::uint32_t>(rng.below(1000)));
  }
  for (auto _ : state) {
    a.joinWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(16)->Arg(64);

void BM_ClockArenaJoin(benchmark::State& state) {
  // The recorder's actual clock primitive: a branch-free span join between
  // two arena rows (compare against BM_VectorClockJoin above, the owning
  // fallback the Foata/test layers use).
  const auto width = static_cast<std::uint32_t>(state.range(0));
  trace::ClockArena arena{width};
  support::Rng rng(7);
  (void)arena.appendRow();
  (void)arena.appendRow();  // may reallocate: take row pointers only now
  auto* a = const_cast<std::uint32_t*>(arena.row(0));
  auto* b = const_cast<std::uint32_t*>(arena.row(1));
  for (std::uint32_t i = 0; i < width; ++i) {
    a[i] = static_cast<std::uint32_t>(rng.below(1000));
    b[i] = static_cast<std::uint32_t>(rng.below(1000));
  }
  for (auto _ : state) {
    trace::joinClockSpans(a, b, width);
    benchmark::DoNotOptimize(a[0]);
  }
}
BENCHMARK(BM_ClockArenaJoin)->Arg(4)->Arg(16)->Arg(64);

// --- recorder hot loop ---------------------------------------------------------

/// Captures the observer stream of one execution so the recorder can be
/// benchmarked in isolation (no fibers, no scheduling — just onEvent).
struct CapturedTrace : runtime::ExecutionObserver {
  struct Registration {
    std::int32_t index;
    runtime::Uid uid;
    runtime::ObjectKind kind;
    std::string name;
    std::uint64_t initialValueHash;
  };
  std::vector<Registration> registrations;
  std::vector<runtime::EventRecord> events;

  void onObjectRegistered(const runtime::Execution&, std::int32_t index,
                          runtime::Uid uid, runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override {
    registrations.push_back({index, uid, kind, name, initialValueHash});
  }
  void onEvent(const runtime::Execution&, const runtime::EventRecord& ev) override {
    events.push_back(ev);
  }
};

/// The recorder's consumer sets, by Arg: fingerprints only (every caching
/// and random explorer), + Full clock rows (DPOR), + Sync rows and the race
/// detector (detectRaces), + predecessor lists and names (Foata, rendering).
trace::TraceRecorder::Options consumerSet(std::int64_t arg) {
  switch (arg) {
    case 1: return {.fullClocks = true};
    case 2: return {.detectRaces = true};
    case 3: return {.keepPredecessors = true};
    default: return {};
  }
}

void BM_TraceRecorderOnEvent(benchmark::State& state) {
  // Arg 0: the consumer set; Arg 1: the stream's memory model. Under TSO
  // the flush agents (picks 32+t) widen every clock row to 40 columns.
  runtime::Config config;
  config.memoryModel =
      state.range(1) == 0 ? memory::MemoryModel::Sc : memory::MemoryModel::Tso;
  runtime::StackPool pool;
  CapturedTrace captured;
  runtime::Execution source(config, pool, &captured);
  explore::FixedScheduler scheduler({});
  (void)source.run(incrementProgram, scheduler);

  trace::TraceRecorder recorder(consumerSet(state.range(0)));
  for (auto _ : state) {
    recorder.onExecutionStart(source);
    for (const auto& reg : captured.registrations) {
      recorder.onObjectRegistered(source, reg.index, reg.uid, reg.kind, reg.name,
                                  reg.initialValueHash);
    }
    for (const auto& ev : captured.events) {
      recorder.onEvent(source, ev);
    }
    benchmark::DoNotOptimize(recorder.fingerprint(trace::Relation::Lazy));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * captured.events.size()));
}
BENCHMARK(BM_TraceRecorderOnEvent)
    ->ArgNames({"consumers", "tso"})
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

// --- fingerprints ---------------------------------------------------------------

void BM_MultisetHashAdd(benchmark::State& state) {
  support::MultisetHash acc;
  std::uint64_t i = 0;
  for (auto _ : state) {
    acc.add(support::hash128(i++));
    benchmark::DoNotOptimize(acc.digest());
  }
}
BENCHMARK(BM_MultisetHashAdd);

void BM_HbrCacheCheckAndInsert(benchmark::State& state) {
  core::HbrCache cache;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.checkAndInsert(support::hash128(i++ % 4096)));
  }
}
BENCHMARK(BM_HbrCacheCheckAndInsert);

void BM_HbrCacheHitAtSize(benchmark::State& state) {
  // Steady-state lookups against a populated table (the caching explorers'
  // common case late in a campaign: nearly every probe is a hit).
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  core::HbrCache cache;
  for (std::uint64_t i = 0; i < entries; ++i) cache.insert(support::hash128(i));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.contains(support::hash128(i++ % entries)));
  }
}
BENCHMARK(BM_HbrCacheHitAtSize)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// --- undo-log checkpoints --------------------------------------------------------
//
// The checkpoint store's cost model (docs/performance.md): staging is
// O(objects touched since the last stage), rollback replays the undo chain
// newest-first, and evicting a stage keeps its undo entries so rolling back
// *past* an evicted depth still works. The probes below pin each leg of
// that model against a fixed population of registered objects, so a
// regression back to O(all objects) staging shows up as the Arg sweep
// going flat.

constexpr int kUndoObjects = 256;
int gTouchedSuffix = 0;  // how many objects the program's suffix re-touches

void touchManyProgram() {
  // kUndoObjects registered vars, all written once (the prefix); then the
  // suffix re-touches the first gTouchedSuffix of them, one store each.
  std::vector<std::unique_ptr<Shared<int>>> vars;
  vars.reserve(kUndoObjects);
  for (int i = 0; i < kUndoObjects; ++i) {
    vars.push_back(std::make_unique<Shared<int>>(0, "v"));
  }
  for (auto& v : vars) v->store(1);
  for (int i = 0; i < gTouchedSuffix; ++i) {
    vars[static_cast<std::size_t>(i)]->store(2);
  }
}

CapturedTrace captureTouchTrace(int touchedSuffix) {
  runtime::StackPool pool;
  CapturedTrace captured;
  runtime::Execution source(runtime::Config{}, pool, &captured);
  explore::FixedScheduler scheduler({});
  gTouchedSuffix = touchedSuffix;
  (void)source.run(touchManyProgram, scheduler);
  return captured;
}

/// Feeds a captured trace's prefix into `recorder` and captures the root
/// snapshot there.
void feedPrefixAndCapture(trace::TraceRecorder& recorder, runtime::Execution& dummy,
                          const CapturedTrace& full, std::size_t prefix,
                          trace::TraceRecorder::Snapshot& root) {
  recorder.onExecutionStart(dummy);
  for (const auto& reg : full.registrations) {
    recorder.onObjectRegistered(dummy, reg.index, reg.uid, reg.kind, reg.name,
                                reg.initialValueHash);
  }
  for (std::size_t i = 0; i < prefix; ++i) {
    recorder.onEvent(dummy, full.events[i]);
  }
  (void)recorder.capture(root);
}

void BM_RecorderCheckpointStageTouched(benchmark::State& state) {
  // One capture/restore cycle where the span between captures touches K of
  // the 256 registered objects: feed the K-store suffix (each first touch
  // undo-logs one cursor pre-image), capture, restore the root. Time per
  // iteration must scale with K, not with the object population.
  const int touched = static_cast<int>(state.range(0));
  const CapturedTrace base = captureTouchTrace(0);
  const CapturedTrace full = captureTouchTrace(touched);
  const std::size_t prefix = base.events.size();

  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  trace::TraceRecorder::Snapshot root;
  trace::TraceRecorder::Snapshot staged;
  feedPrefixAndCapture(recorder, dummy, full, prefix, root);
  for (auto _ : state) {
    for (std::size_t i = prefix; i < full.events.size(); ++i) {
      recorder.onEvent(dummy, full.events[i]);
    }
    benchmark::DoNotOptimize(recorder.capture(staged));
    recorder.restore(root);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * touched);
}
BENCHMARK(BM_RecorderCheckpointStageTouched)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_RecorderUndoChainRollback(benchmark::State& state) {
  // S captures spread along a 256-store suffix, then one restore of the
  // root: it invalidates every later snapshot and replays the whole undo
  // chain newest-first, whatever S is.
  const int stages = static_cast<int>(state.range(0));
  const CapturedTrace base = captureTouchTrace(0);
  const CapturedTrace full = captureTouchTrace(kUndoObjects);
  const std::size_t prefix = base.events.size();
  const std::size_t suffix = full.events.size() - prefix;
  const std::size_t chunk = suffix / static_cast<std::size_t>(stages);

  runtime::StackPool pool;
  trace::TraceRecorder recorder;
  runtime::Execution dummy(runtime::Config{}, pool, nullptr);  // never run
  trace::TraceRecorder::Snapshot root;
  std::vector<trace::TraceRecorder::Snapshot> staged(suffix / chunk);
  feedPrefixAndCapture(recorder, dummy, full, prefix, root);
  for (auto _ : state) {
    std::size_t fed = 0;
    for (std::size_t i = prefix; i < full.events.size(); ++i) {
      recorder.onEvent(dummy, full.events[i]);
      if (++fed % chunk == 0) (void)recorder.capture(staged[fed / chunk - 1]);
    }
    recorder.restore(root);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(suffix));
}
BENCHMARK(BM_RecorderUndoChainRollback)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

int gDeepStores = 0;  // stores per thread in deepTreeProgram

/// Descend `frames` stack frames, then run the store loop with all of them
/// live: each fiber switch inside the loop snapshots the whole used stack,
/// so the per-stage runtime image is ~frames x frame-size bytes.
void deepSpine(int frames, Shared<int>& x, int sign) {
  if (frames > 0) {
    deepSpine(frames - 1, x, sign);
    benchmark::DoNotOptimize(frames);  // keep the frame from being elided
    return;
  }
  for (int i = 0; i < gDeepStores; ++i) x.store(sign * i);
}

void deepTreeProgram() {
  // Two always-enabled writers on deep stacks: every depth of the schedule
  // tree is a branch point, so one DFS branch stages a checkpoint at every
  // event, each pinning both threads' fiber images. Live staged bytes grow
  // linearly with depth at ~10 KB/stage — the deep-tree regime where the
  // default 256 MiB snapshot budget binds within one branch.
  Shared<int> x{0, "x"};
  auto t = spawn([&] { deepSpine(256, x, 1); });
  deepSpine(256, x, -1);
  t.join();
}

void BM_DfsDeepTreeDefaultBudget(benchmark::State& state) {
  // End-to-end: a deep-tree exploration at the DEFAULT snapshot budget.
  // With range(0) stores per thread the first branch stacks ~range(0)
  // stages; once their summed fiber images cross 256 MiB the engine evicts
  // the shallowest stages mid-branch and later divergences below an
  // evicted depth replay from a shallower stage (counters below;
  // docs/performance.md records the measured numbers). Counts are
  // byte-identical to an unlimited-budget run either way.
  gDeepStores = static_cast<int>(state.range(0));
  CheckpointStats last{};
  for (auto _ : state) {
    explore::ExplorerOptions options;
    options.scheduleLimit = 4;
    options.maxEventsPerSchedule = 1u << 18;
    options.checkpointable = true;  // fiber images dominate the stage cost
    // ExplorerOptions defaults to defaultSnapshotBudgetBytes(): the probe
    // deliberately measures the out-of-the-box configuration.
    explore::DfsExplorer explorer(options);
    const auto result = explorer.explore(deepTreeProgram);
    last = result.checkpointStats;
    benchmark::DoNotOptimize(result.schedulesExecuted);
  }
  state.counters["stages"] = static_cast<double>(last.stages);
  state.counters["bytes_staged"] = static_cast<double>(last.bytesStaged);
  state.counters["evictions"] = static_cast<double>(last.evictions);
  state.counters["replay_fallbacks"] = static_cast<double>(last.replayFallbacks);
}
BENCHMARK(BM_DfsDeepTreeDefaultBudget)
    ->Arg(4000)     // live stages stay far under budget: 0 evictions
    ->Arg(16000)    // stacked fiber images cross 256 MiB: the budget binds
    ->Unit(benchmark::kMillisecond);

void BM_DfsDeepTreeTsoDefaultBudget(benchmark::State& state) {
  // The same deep-tree regime under TSO: every store now stages a buffered
  // write plus a flush transition (twice the events per branch, so half the
  // stores reach the same depth), and every checkpoint pins the writers'
  // store-buffer pre-images through the undo log on top of their fiber
  // images. The budget must bind the same way it does under SC — evictions
  // without count drift — with buffers live across almost every stage.
  gDeepStores = static_cast<int>(state.range(0));
  CheckpointStats last{};
  for (auto _ : state) {
    explore::ExplorerOptions options;
    options.scheduleLimit = 4;
    options.maxEventsPerSchedule = 1u << 18;
    options.checkpointable = true;
    options.memoryModel = memory::MemoryModel::Tso;
    explore::DfsExplorer explorer(options);
    const auto result = explorer.explore(deepTreeProgram);
    last = result.checkpointStats;
    benchmark::DoNotOptimize(result.schedulesExecuted);
  }
  state.counters["stages"] = static_cast<double>(last.stages);
  state.counters["bytes_staged"] = static_cast<double>(last.bytesStaged);
  state.counters["evictions"] = static_cast<double>(last.evictions);
  state.counters["replay_fallbacks"] = static_cast<double>(last.replayFallbacks);
}
BENCHMARK(BM_DfsDeepTreeTsoDefaultBudget)
    ->Arg(2000)     // ~6k stages: under budget, 0 evictions
    ->Arg(12000)    // ~36k stages of fiber+buffer images: the budget binds
    ->Unit(benchmark::kMillisecond);

void contendedProgram() {
  // Three unlocked incrementers: a schedule tree deep and wide enough that
  // a small snapshot budget forces constant eviction during the walk.
  Shared<int> x{0, "x"};
  auto t1 = spawn([&] { x.store(x.load() + 1); });
  auto t2 = spawn([&] { x.store(x.load() + 1); });
  x.store(x.load() + 1);
  t1.join();
  t2.join();
}

void BM_DfsExplorationAtBudget(benchmark::State& state) {
  // End-to-end eviction cost: the same DFS exploration at an unlimited
  // budget (0), a budget that evicts occasionally, and one that thrashes.
  // Counts are byte-identical at every Arg; only the replay spans differ.
  for (auto _ : state) {
    explore::ExplorerOptions options;
    options.scheduleLimit = 1u << 14;
    options.snapshotBudgetBytes = static_cast<std::uint64_t>(state.range(0));
    explore::DfsExplorer explorer(options);
    benchmark::DoNotOptimize(explorer.explore(contendedProgram));
  }
}
BENCHMARK(BM_DfsExplorationAtBudget)->Arg(0)->Arg(4096)->Arg(256);

// --- exact canonical forms -------------------------------------------------------

void BM_FoataNormalForm(benchmark::State& state) {
  // Record one execution with predecessors kept, then canonicalise it
  // repeatedly (the cost model for "exact mode" experiments).
  runtime::StackPool pool;
  trace::TraceRecorder recorder(trace::TraceRecorder::Options{true, false});
  runtime::Execution exec(runtime::Config{}, pool, &recorder);
  explore::FixedScheduler scheduler({});
  (void)exec.run(incrementProgram, scheduler);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::foataNormalForm(recorder, trace::Relation::Lazy));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * recorder.eventCount()));
}
BENCHMARK(BM_FoataNormalForm);

}  // namespace

BENCHMARK_MAIN();
