// The traced run: the same explorations as the untraced run, rebuilt from
// the engine's public layer classes with every call into a layer timed from
// here. Sequential tree searches and random walks run the explorers' own
// loop (TreeSearchState / TreeScheduler / PrefixReplayEngine, or a random
// picker) around a forwarding observer and a timing scheduler decorator;
// strategies whose loop is not public (dpor, the sharded ParallelExplorer)
// are built with ExplorerSpec::create and report only Explorer::explore.
// Every traced exploration must reproduce the untraced counts exactly.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "bench.hpp"
#include "campaign/explorer_spec.hpp"
#include "core/hbr_cache.hpp"
#include "explore/dfs_explorer.hpp"
#include "explore/prefix_replay.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "runtime/execution.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "trace/trace_recorder.hpp"

namespace perfbench {
namespace {

namespace lz = lazyhb;
using lz::runtime::Outcome;

/// Accumulated time and call count of one span kind.
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;

  void add(Clock::time_point a, Clock::time_point b) {
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    ++calls;
  }
  [[nodiscard]] double perCall() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

class ScopedSpan {
 public:
  explicit ScopedSpan(Span& span) : span_(span), start_(Clock::now()) {}
  ~ScopedSpan() { span_.add(start_, Clock::now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span& span_;
  Clock::time_point start_;
};

/// Everything the traced run measures, summed over all traced passes.
struct Ledger {
  // Spans inside the benchmark's own loops.
  Span onEvent;       ///< TraceRecorder::onEvent
  Span callbacks;     ///< the recorder's other observer callbacks
  Span pick;          ///< Scheduler::pick, cache probes included
  Span probe;         ///< prefix fingerprint + HbrCache::checkAndInsert
  Span run;           ///< Execution::run / resume
  Span freshBegin;    ///< beginSchedule handing out a fresh execution
  Span resumedBegin;  ///< beginSchedule handing out the rolled-back one
  Span prepare;       ///< PrefixReplayEngine::prepareNext
  Span fold;          ///< per-schedule count folding (fingerprint sets)
  // Spans around whole explorations.
  Span construct;     ///< building and destroying an explorer / loop
  Span opaque;        ///< Explorer::explore of strategies with no public loop
  double tracedWall = 0.0;

  // Work counts (own loops + opaque results).
  std::uint64_t schedules = 0;
  std::uint64_t totalEvents = 0;
  std::uint64_t elided = 0;
  std::uint64_t flushEvents = 0;
  std::uint64_t stages = 0;
  std::uint64_t bytesStaged = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheBytes = 0;
  // Own loops only (the denominators of the per-event spans).
  std::uint64_t ownSchedules = 0;
  std::uint64_t ownExecutedEvents = 0;
  std::uint64_t replaysSkipped = 0;

  // Rate-set throughput, traced.
  std::uint64_t rateSchedules = 0;
  double rateWall = 0.0;

  // Parallel cells: the same cell at 1 and N workers.
  double wall1 = 0.0, wallN = 0.0, cpu1 = 0.0, cpuN = 0.0;
  double imbalanceSum = 0.0;
  std::uint64_t imbalanceCells = 0;
  std::uint64_t tasksStolen = 0;
  std::uint64_t fallbackCells = 0;
};

/// Forwards every observer callback to the recorder, timing each.
class TimedObserver final : public lz::runtime::ExecutionObserver {
 public:
  TimedObserver(lz::trace::TraceRecorder& recorder, Ledger& ledger)
      : recorder_(recorder), ledger_(ledger) {}

  void onExecutionStart(const lz::runtime::Execution& exec) override {
    ScopedSpan span(ledger_.callbacks);
    recorder_.onExecutionStart(exec);
  }
  void onObjectRegistered(const lz::runtime::Execution& exec, std::int32_t index,
                          lz::runtime::Uid uid, lz::runtime::ObjectKind kind,
                          const std::string& name,
                          std::uint64_t initialValueHash) override {
    ScopedSpan span(ledger_.callbacks);
    recorder_.onObjectRegistered(exec, index, uid, kind, name, initialValueHash);
  }
  void onEvent(const lz::runtime::Execution& exec,
               const lz::runtime::EventRecord& event) override {
    ScopedSpan span(ledger_.onEvent);
    recorder_.onEvent(exec, event);
  }
  void onExecutionEnd(const lz::runtime::Execution& exec, Outcome outcome) override {
    ScopedSpan span(ledger_.callbacks);
    recorder_.onExecutionEnd(exec, outcome);
  }

 private:
  lz::trace::TraceRecorder& recorder_;
  Ledger& ledger_;
};

/// Scheduler decorator timing every pick of the wrapped scheduler.
class TimedScheduler final : public lz::runtime::Scheduler {
 public:
  TimedScheduler(lz::runtime::Scheduler& inner, Span& span) : inner_(inner), span_(span) {}
  int pick(lz::runtime::Execution& exec) override {
    ScopedSpan span(span_);
    return inner_.pick(exec);
  }

 private:
  lz::runtime::Scheduler& inner_;
  Span& span_;
};

/// Uniform pick among the enabled threads: the random strategy's scheduler,
/// seeded per schedule exactly as RandomExplorer seeds it.
class RandomPicker final : public lz::runtime::Scheduler {
 public:
  explicit RandomPicker(std::uint64_t seed) : rng_(seed) {}
  int pick(lz::runtime::Execution& exec) override {
    const lz::support::ThreadSet enabled = exec.enabled();
    auto nth = rng_.below(static_cast<std::uint64_t>(enabled.size()));
    int tid = enabled.first();
    while (nth-- > 0) tid = enabled.next(tid);
    return tid;
  }

 private:
  lz::support::Rng rng_;
};

std::optional<lz::trace::Relation> cacheRelation(const std::string& strategy) {
  if (strategy == "caching-full") return lz::trace::Relation::Full;
  if (strategy == "caching-lazy") return lz::trace::Relation::Lazy;
  if (strategy == "caching-value") return lz::trace::Relation::Value;
  return std::nullopt;
}

/// True when the benchmark can drive this (sequential) exploration's loop
/// itself; dpor's loop is not public.
bool hasPublicLoop(const Exploration& e) {
  return e.strategy == "dfs" || e.strategy == "random" ||
         cacheRelation(e.strategy).has_value();
}

lz::memory::MemoryModel modelOf(const Exploration& e) {
  const auto model = lz::memory::parseMemoryModel(e.model);
  if (!model) throw std::invalid_argument("unknown memory model " + e.model);
  return *model;
}

/// One sequential exploration driven through the public layer classes the
/// way ExplorerBase drives them, with every layer call timed.
class TracedLoop {
 public:
  TracedLoop(const Exploration& e, const lz::programs::ProgramSpec& spec, Ledger& ledger)
      : e_(e),
        body_(spec.body),
        ledger_(ledger),
        model_(modelOf(e)),
        observer_(recorder_, ledger),
        engine_(pool_, recorder_, /*incremental=*/true,
                spec.checkpointable && lz::runtime::Execution::checkpointingSupported(),
                lz::explore::defaultSnapshotBudgetBytes()) {}

  Counts run() {
    counts_.hasTso = true;
    if (e_.strategy == "random") {
      runRandom();
    } else {
      runTree(cacheRelation(e_.strategy));
    }
    counts_.hbrs = hbrs_.size();
    counts_.lazyHbrs = lazyHbrs_.size();
    counts_.valueClasses = valueClasses_.size();
    counts_.states = states_.size();
    ledger_.elided += engine_.eventsElided();
    ledger_.ownExecutedEvents += totalEvents_ - engine_.eventsElided();
    ledger_.totalEvents += totalEvents_;
    ledger_.stages += engine_.stagesCreated();
    ledger_.bytesStaged += engine_.bytesStaged();
    ledger_.replaysSkipped += recorder_.replaysSkipped();
    ledger_.schedules += counts_.schedules;
    ledger_.ownSchedules += counts_.schedules;
    ledger_.flushEvents += counts_.flushEvents;
    if (cacheRelation(e_.strategy)) {
      ledger_.cacheLookups += cache_.stats().lookups;
      ledger_.cacheHits += cache_.stats().hits;
      ledger_.cacheBytes += cache_.approxMemoryBytes();
    }
    return counts_;
  }

 private:
  [[nodiscard]] bool stopped() const { return e_.stopOnBug && counts_.violations > 0; }

  void runTree(std::optional<lz::trace::Relation> relation) {
    std::function<bool()> prune;
    if (relation) {
      prune = [this, rel = *relation] {
        ScopedSpan span(ledger_.probe);
        return cache_.checkAndInsert(recorder_.fingerprint(rel));
      };
    }
    lz::explore::TreeSearchState state;
    std::size_t startDepth = 0;
    for (;;) {
      if (counts_.schedules >= e_.limit || stopped()) return;
      lz::explore::TreeScheduler scheduler(state, prune, &engine_, startDepth);
      const Outcome outcome = execute(scheduler);
      if (relation && outcome != Outcome::Abandoned && recorder_.eventCount() > 0) {
        // The final prefix is never probed by a pick; seed it, as the
        // caching explorers do.
        ScopedSpan span(ledger_.fold);
        cache_.insert(recorder_.fingerprint(*relation));
      }
      if (!state.advance()) {
        counts_.complete = true;
        return;
      }
      const Clock::time_point t0 = Clock::now();
      startDepth = engine_.prepareNext(state.checkFromDepth);
      ledger_.prepare.add(t0, Clock::now());
    }
  }

  void runRandom() {
    for (std::uint64_t k = 0; counts_.schedules < e_.limit; ++k) {
      if (stopped()) return;
      RandomPicker picker(lz::support::mix64(e_.seed + k));
      (void)execute(picker);
    }
  }

  Outcome execute(lz::runtime::Scheduler& scheduler) {
    lz::runtime::Config config;
    config.maxEventsPerSchedule = lz::explore::ExplorerOptions{}.maxEventsPerSchedule;
    config.memoryModel = model_;
    const Clock::time_point t0 = Clock::now();
    const lz::explore::PrefixReplayEngine::Session session =
        engine_.beginSchedule(config, &observer_);
    const Clock::time_point t1 = Clock::now();
    (session.resumed ? ledger_.resumedBegin : ledger_.freshBegin).add(t0, t1);

    lz::runtime::Execution& exec = *session.exec;
    TimedScheduler timed(scheduler, ledger_.pick);
    const Outcome outcome =
        session.resumed ? exec.resume(timed) : exec.run(body_, timed);
    const Clock::time_point t2 = Clock::now();
    ledger_.run.add(t1, t2);

    ++counts_.schedules;
    totalEvents_ += exec.events().size();
    counts_.flushEvents += exec.flushEventCount();
    counts_.fenceEvents += exec.fenceEventCount();
    switch (outcome) {
      case Outcome::Terminal:
        ++counts_.terminal;
        hbrs_.insert(recorder_.fingerprint(lz::trace::Relation::Full));
        lazyHbrs_.insert(recorder_.fingerprint(lz::trace::Relation::Lazy));
        valueClasses_.insert(recorder_.fingerprint(lz::trace::Relation::Value));
        states_.insert(exec.stateFingerprint());
        break;
      case Outcome::Deadlock:
      case Outcome::AssertionFailure:
      case Outcome::UsageError:
        ++counts_.violations;
        break;
      case Outcome::Abandoned:
        ++counts_.pruned;
        break;
      case Outcome::EventLimit:
        break;
    }
    ledger_.fold.add(t2, Clock::now());
    return outcome;
  }

  using HashSet =
      std::unordered_set<lz::support::Hash128, lz::support::Hash128Hasher>;

  const Exploration& e_;
  const lz::explore::Program& body_;
  Ledger& ledger_;
  lz::memory::MemoryModel model_;
  Counts counts_;
  std::uint64_t totalEvents_ = 0;
  HashSet hbrs_, lazyHbrs_, valueClasses_, states_;
  // Declaration order mirrors ExplorerBase: the engine (which owns the
  // live execution) is destroyed before the pool, recorder and observer.
  lz::runtime::StackPool pool_;
  lz::trace::TraceRecorder recorder_{lz::trace::TraceRecorder::Options{}};
  TimedObserver observer_;
  lz::core::HbrCache cache_;
  lz::explore::PrefixReplayEngine engine_;
};

struct OpaqueRun {
  Counts counts;
  double wall = 0.0;   ///< Explorer::explore only
  double cpu = 0.0;
  lz::explore::ParallelStats parallel;
  double total = 0.0;  ///< construction and destruction included
};

/// Build through ExplorerSpec::create and time construction and explore().
OpaqueRun runOpaque(const Exploration& e, const lz::programs::ProgramSpec& spec,
                    Ledger& ledger) {
  const auto explorerSpec = lz::campaign::parseExplorerSpec(e.strategy);
  if (!explorerSpec) throw std::invalid_argument("unknown strategy " + e.strategy);
  lz::explore::ExplorerOptions options;
  options.scheduleLimit = e.limit;
  options.memoryModel = modelOf(e);
  options.stopOnFirstViolation = e.stopOnBug;
  options.checkpointable = spec.checkpointable;
  options.workers = e.workers;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<lz::explore::Explorer> explorer = explorerSpec->create(options, e.seed);
  const Clock::time_point t1 = Clock::now();
  const double cpu0 = processCpuSeconds();
  const lz::explore::ExplorationResult result = explorer->explore(spec.body);
  const double cpu1 = processCpuSeconds();
  const Clock::time_point t2 = Clock::now();
  explorer.reset();
  const Clock::time_point t3 = Clock::now();
  ledger.construct.ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>((t1 - t0) + (t3 - t2)).count());
  ++ledger.construct.calls;
  ledger.opaque.add(t1, t2);
  ledger.tracedWall += secondsBetween(t0, t3);

  ledger.schedules += result.schedulesExecuted;
  ledger.totalEvents += result.totalEvents;
  ledger.elided += result.eventsElided;
  ledger.flushEvents += result.flushEvents;
  ledger.stages += result.checkpointStats.stages;
  ledger.bytesStaged += result.checkpointStats.bytesStaged;
  if (result.cacheStats.enabled) {
    ledger.cacheLookups += result.cacheStats.lookups;
    ledger.cacheHits += result.cacheStats.hits;
    ledger.cacheBytes += result.cacheStats.approxBytes;
  }
  return OpaqueRun{countsOf(result), secondsBetween(t1, t2), cpu1 - cpu0, result.parallel,
                   secondsBetween(t0, t3)};
}

/// Run one exploration traced; returns its wall time (construction included).
double runTracedOnce(const Exploration& e, Ledger& ledger, CountLedger& counts) {
  const lz::programs::ProgramSpec* spec = lz::programs::byName(e.scenario);
  if (spec == nullptr) throw std::invalid_argument("unknown scenario " + e.scenario);
  if (!hasPublicLoop(e)) {
    const OpaqueRun run = runOpaque(e, *spec, ledger);
    counts.record(e, run.counts);
    return run.total;
  }
  const Clock::time_point t0 = Clock::now();
  auto loop = std::make_unique<TracedLoop>(e, *spec, ledger);
  const Clock::time_point t1 = Clock::now();
  const Counts result = loop->run();
  const Clock::time_point t2 = Clock::now();
  loop.reset();
  const Clock::time_point t3 = Clock::now();
  ledger.construct.ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>((t1 - t0) + (t3 - t2)).count());
  ++ledger.construct.calls;
  ledger.tracedWall += secondsBetween(t0, t3);
  counts.record(e, result);
  return secondsBetween(t0, t3);
}

/// A sharded cell: run it at 1 worker and at N workers (both opaque).
void runParallelCell(const Exploration& e, Ledger& ledger, CountLedger& counts) {
  const lz::programs::ProgramSpec* spec = lz::programs::byName(e.scenario);
  if (spec == nullptr) throw std::invalid_argument("unknown scenario " + e.scenario);
  Exploration single = e;
  single.workers = 1;
  const OpaqueRun one = runOpaque(single, *spec, ledger);
  const OpaqueRun many = runOpaque(e, *spec, ledger);
  counts.record(single, one.counts);
  counts.record(e, many.counts);
  ledger.wall1 += one.wall;
  ledger.cpu1 += one.cpu;
  ledger.wallN += many.wall;
  ledger.cpuN += many.cpu;
  ledger.rateSchedules += many.counts.schedules;
  ledger.rateWall += many.wall;
  if (many.parallel.fellBackSequential) ++ledger.fallbackCells;
  std::uint64_t most = 0;
  std::uint64_t total = 0;
  for (const lz::explore::WorkerShare& share : many.parallel.byWorker) {
    most = std::max(most, share.schedulesVisited);
    total += share.schedulesVisited;
    ledger.tasksStolen += share.tasksStolen;
  }
  if (!many.parallel.fellBackSequential && total > 0) {
    const double mean =
        static_cast<double>(total) / static_cast<double>(many.parallel.byWorker.size());
    ledger.imbalanceSum += static_cast<double>(most) / mean;
    ++ledger.imbalanceCells;
  }
}

template <typename Fn>
void guarded(const Exploration& e, CountLedger& counts, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: traced %s threw: %s\n", e.id().c_str(), ex.what());
    counts.threw(e);
  }
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

}  // namespace

int runTraced(const Workload& workload, double seconds) {
  // Reference: one untraced pass through Session::run, for the counts the
  // traced run must reproduce, the untraced rate and the facade's overhead.
  CountLedger sessionCounts;
  std::uint64_t refSchedules = 0;
  double refWall = 0.0;
  double overheadSum = 0.0;
  std::uint64_t overheadRuns = 0;
  auto reference = [&](const Exploration& e, bool inRateSet) {
    guarded(e, sessionCounts, [&] {
      const lazyhb::Session session = e.session();
      const Clock::time_point t0 = Clock::now();
      const lazyhb::TestReport report = session.run(e.scenario);
      const double wall = secondsBetween(t0, Clock::now());
      sessionCounts.record(e, countsOf(report));
      overheadSum += wall - report.wallSeconds;
      ++overheadRuns;
      if (inRateSet) {
        refSchedules += report.schedulesExecuted;
        refWall += wall;
      }
    });
  };
  for (const Exploration& e : workload.main) reference(e, true);
  for (const Exploration& e : workload.hunts) reference(e, workload.main.empty());

  // Traced passes: at least one, more while another fits in the budget.
  Ledger ledger;
  CountLedger tracedCounts;
  std::uint64_t passes = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point passStart = Clock::now();
    for (const Exploration& e : workload.main) {
      guarded(e, tracedCounts, [&] {
        if (e.workers > 1) {
          runParallelCell(e, ledger, tracedCounts);
        } else {
          const std::uint64_t before = ledger.schedules;
          ledger.rateWall += runTracedOnce(e, ledger, tracedCounts);
          ledger.rateSchedules += ledger.schedules - before;
        }
      });
    }
    for (const Exploration& e : workload.hunts) {
      guarded(e, tracedCounts, [&] {
        const std::uint64_t before = ledger.schedules;
        const double wall = runTracedOnce(e, ledger, tracedCounts);
        if (workload.main.empty()) {
          ledger.rateWall += wall;
          ledger.rateSchedules += ledger.schedules - before;
        }
      });
    }
    ++passes;
    const Clock::time_point now = Clock::now();
    if (secondsBetween(start, now) + secondsBetween(passStart, now) > seconds) break;
  }

  // Traced counts must equal the untraced ones (run.py gates on the
  // emitted records; this is the human-readable tally).
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
  for (const std::vector<Exploration>* set : {&workload.main, &workload.hunts}) {
    for (const Exploration& e : *set) {
      const Counts* traced = tracedCounts.find(e.id());
      const Counts* untraced = sessionCounts.find(e.id());
      if (traced == nullptr || untraced == nullptr) continue;
      ++compared;
      if (!traced->sameContract(*untraced)) ++mismatched;
    }
  }
  sessionCounts.emit("session");
  tracedCounts.emit("traced");

  const double wallNs = ledger.tracedWall * 1e9;
  const double passCount = static_cast<double>(passes);
  const double covered = static_cast<double>(
      ledger.construct.ns + ledger.freshBegin.ns + ledger.resumedBegin.ns +
      ledger.run.ns + ledger.prepare.ns + ledger.fold.ns);
  const double untracedRate = ratio(static_cast<double>(refSchedules), refWall);
  const double tracedRate = ratio(static_cast<double>(ledger.rateSchedules), ledger.rateWall);
  const std::uint64_t runSelfNs =
      ledger.run.ns - std::min(ledger.run.ns, ledger.pick.ns + ledger.onEvent.ns +
                                                   ledger.callbacks.ns);
  const std::uint64_t executed = ledger.totalEvents - ledger.elided;

  std::printf("traced run: %llu pass(es), %.3f s traced wall; counts traced == "
              "untraced on %llu/%llu explorations\n",
              static_cast<unsigned long long>(passes), ledger.tracedWall,
              static_cast<unsigned long long>(compared - mismatched),
              static_cast<unsigned long long>(compared));
  std::printf("tracing overhead: untraced %.6g schedules/s, traced %.6g schedules/s "
              "(traced/untraced %.3f)\n",
              untracedRate, tracedRate, ratio(tracedRate, untracedRate));
  std::printf("attribution: %.1f%% in layer spans, %.1f%% inside opaque "
              "Explorer::explore, %.1f%% unattributed\n",
              100.0 * ratio(covered, wallNs),
              100.0 * ratio(static_cast<double>(ledger.opaque.ns), wallNs),
              100.0 * (1.0 - ratio(covered + static_cast<double>(ledger.opaque.ns), wallNs)));

  MetricSet metrics;
  metrics.add("trace.on_event_ns", ledger.onEvent.perCall(), "ns");
  metrics.add("trace.on_event_share", ratio(static_cast<double>(ledger.onEvent.ns), wallNs),
              "ratio");
  metrics.add("trace.events_recorded",
              static_cast<double>(ledger.onEvent.calls - ledger.replaysSkipped) / passCount,
              "count");
  metrics.add("runtime.self_ns_per_event",
              ratio(static_cast<double>(runSelfNs),
                    static_cast<double>(ledger.ownExecutedEvents)),
              "ns");
  metrics.add("runtime.exec_setup_ns", ledger.freshBegin.perCall(), "ns");
  metrics.add("runtime.fresh_frac", ratio(ledger.freshBegin.calls, ledger.ownSchedules),
              "ratio");
  metrics.add("explore.pick_ns",
              ratio(static_cast<double>(ledger.pick.ns - std::min(ledger.pick.ns,
                                                                  ledger.probe.ns)),
                    static_cast<double>(ledger.pick.calls)),
              "ns");
  metrics.add("explore.stages_per_schedule", ratio(ledger.stages, ledger.schedules), "ratio");
  metrics.add("explore.bytes_staged", static_cast<double>(ledger.bytesStaged) / passCount,
              "bytes");
  metrics.add("explore.rollback_ns", ledger.prepare.perCall(), "ns");
  metrics.add("explore.elided_frac", ratio(ledger.elided, ledger.totalEvents), "ratio");
  metrics.add("core.cache_probe_ns", ledger.probe.perCall(), "ns");
  metrics.add("core.cache_hit_ratio", ratio(ledger.cacheHits, ledger.cacheLookups), "ratio");
  metrics.add("core.cache_bytes", static_cast<double>(ledger.cacheBytes) / passCount, "bytes");
  metrics.add("memory.flush_frac", ratio(ledger.flushEvents, executed), "ratio");
  metrics.add("explore.construct_us", ledger.construct.perCall() / 1e3, "us");
  metrics.add("api.session_overhead_us",
              ratio(overheadSum, static_cast<double>(overheadRuns)) * 1e6, "us");
  metrics.add("parallel.speedup", ratio(ledger.wall1, ledger.wallN), "x");
  metrics.add("parallel.cpu_ratio", ratio(ledger.cpuN, ledger.cpu1), "x");
  metrics.add("parallel.imbalance",
              ratio(ledger.imbalanceSum, static_cast<double>(ledger.imbalanceCells)), "x");
  metrics.add("parallel.tasks_stolen", static_cast<double>(ledger.tasksStolen) / passCount,
              "count");
  metrics.add("parallel.fallback_cells",
              static_cast<double>(ledger.fallbackCells) / passCount, "count");
  metrics.add("trace.untraced_schedules_per_s", untracedRate, "1/s");
  metrics.add("trace.traced_schedules_per_s", tracedRate, "1/s");
  metrics.add("trace.unattributed_share",
              1.0 - ratio(covered + static_cast<double>(ledger.opaque.ns), wallNs), "ratio");
  metrics.add("trace.opaque_share", ratio(static_cast<double>(ledger.opaque.ns), wallNs),
              "ratio");
  metrics.emit();
  return 0;
}

}  // namespace perfbench
