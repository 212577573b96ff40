// End-to-end measurement: every exploration goes through the public
// lazyhb::Session::run, with nothing of the benchmark's own between the
// caller and the engine.
//
// Samples land in one arena allocated and touched before timing starts.
// Growing sample vectors between explorations would interleave the
// benchmark's allocations with the engine's: that alone more than triples
// the median bug-hunt latency within a 20 s run, and it would make peak RSS
// depend on how many samples a run took.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Warm-up explorations are capped at this many schedules.
constexpr std::uint64_t kWarmUpBudget = 2'000;
/// Arena capacity; measuring ends early once it is full.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
/// Hunt time per second of main exploration: hunts fill a fifth of the run.
constexpr double kHuntPerMain = 0.25;

struct Sample {
  std::uint32_t exploration = 0;  ///< main index, or kHuntTag + hunt index
  float wall = 0.0F;              ///< seconds
  float cpu = 0.0F;               ///< seconds
};

class SampleArena {
 public:
  SampleArena() : samples_(kMaxSamples) {}  // value-initialised: pages touched now

  [[nodiscard]] bool full() const { return size_ == samples_.size(); }
  void push(const Sample& s) { samples_[size_++] = s; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Sample& operator[](std::size_t i) const { return samples_[i]; }

 private:
  std::vector<Sample> samples_;
  std::size_t size_ = 0;
};

/// Run one exploration through Session::run and record its counts. Returns
/// false when it threw.
bool runOnce(const Exploration& e, CountLedger& ledger, float* wall, float* cpu) {
  try {
    const lazyhb::Session session = e.session();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const lazyhb::TestReport report = session.run(e.scenario);
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = processCpuSeconds();
    ledger.record(e, countsOf(report));
    *wall = static_cast<float>(secondsBetween(t0, t1));
    *cpu = static_cast<float>(cpu1 - cpu0);
    return true;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s threw: %s\n", e.id().c_str(), ex.what());
    ledger.threw(e);
    return false;
  }
}

/// Main explorations are tagged 0..M-1, hunts kHuntTag + 0..H-1.
constexpr std::uint32_t kHuntTag = 1u << 16;

/// Run `e` once and file its sample under `tag`.
void sample(const Exploration& e, std::uint32_t tag, CountLedger& ledger,
            SampleArena& arena) {
  if (arena.full()) return;
  Sample s;
  s.exploration = tag;
  if (runOnce(e, ledger, &s.wall, &s.cpu)) arena.push(s);
}

/// Run whole hunt passes until `budget` seconds have passed (at least one).
/// Returns the seconds they took.
double huntFor(const std::vector<Exploration>& hunts, double budget, CountLedger& ledger,
               SampleArena& arena) {
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < hunts.size(); ++i) {
      sample(hunts[i], kHuntTag + static_cast<std::uint32_t>(i), ledger, arena);
    }
  } while (!arena.full() && secondsBetween(start, Clock::now()) < budget);
  return secondsBetween(start, Clock::now());
}

/// Walls (or CPU times) of one tagged exploration.
std::vector<double> column(const SampleArena& arena, std::uint32_t exploration,
                           bool cpu) {
  std::vector<double> out;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    if (arena[i].exploration == exploration) out.push_back(cpu ? arena[i].cpu : arena[i].wall);
  }
  return out;
}

}  // namespace

void warmUp(const Workload& workload) {
  CountLedger discard;
  float wall = 0.0F;
  float cpu = 0.0F;
  for (Exploration e : workload.main) {
    e.limit = std::min(e.limit, kWarmUpBudget);
    runOnce(e, discard, &wall, &cpu);
  }
  for (const Exploration& e : workload.hunts) runOnce(e, discard, &wall, &cpu);
}

int runUntraced(const Workload& workload, double seconds) {
  CountLedger ledger;
  SampleArena arena;
  // Whole passes over the exploration set while at least half of another
  // pass of the last pass's length fits (so the pass count does not flip
  // on small timing changes). Each main exploration adds a quarter of its
  // time to a hunt allowance, and whole hunt passes run while it is
  // positive, so hunts and main explorations both sample the whole run
  // rather than one stretch of it. Peak RSS is read after the first pass:
  // later passes of sharded searches keep growing the workers' malloc
  // arenas, so a later reading would depend on how many passes fit.
  double peakRss = 0.0;
  std::size_t passes = 0;
  double huntDebt = 0.0;  // hunt seconds owed to the main explorations so far
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point passStart = Clock::now();
    if (workload.main.empty()) {
      huntFor(workload.hunts, seconds, ledger, arena);
    }
    for (std::size_t i = 0; i < workload.main.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      sample(workload.main[i], static_cast<std::uint32_t>(i), ledger, arena);
      huntDebt += secondsBetween(t0, Clock::now()) * kHuntPerMain;
      if (huntDebt > 0.0) huntDebt -= huntFor(workload.hunts, huntDebt, ledger, arena);
    }
    if (++passes == 1) peakRss = peakRssMib();
    const Clock::time_point now = Clock::now();
    if (arena.full() ||
        secondsBetween(start, now) + 0.5 * secondsBetween(passStart, now) > seconds) {
      break;
    }
  }

  // On shared hosts the speed a sample sees comes and goes: most of a run
  // is slowed by other tenants by a share that drifts over minutes, while
  // windows of a few milliseconds at full speed recur throughout. A median
  // follows the drift from run to run; the fastest of many short passes
  // lands in such a window in every run. Each exploration is therefore
  // small (milliseconds), and rates and hunt latencies are built from
  // per-exploration minima. The commentary keeps the medians and tails.
  const std::vector<Exploration>& rateSet = workload.rateSet();
  const std::uint32_t rateTag = workload.main.empty() ? kHuntTag : 0;
  double schedules = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  std::printf("exploration set (%zu pass(es)%s):\n", passes,
              arena.full() ? ", sample arena full" : "");
  for (std::size_t i = 0; i < rateSet.size(); ++i) {
    const Counts* counts = ledger.find(rateSet[i].id());
    const std::uint32_t tag = rateTag + static_cast<std::uint32_t>(i);
    const std::vector<double> walls = column(arena, tag, false);
    const std::vector<double> cpus = column(arena, tag, true);
    if (counts == nullptr || walls.empty()) continue;
    schedules += static_cast<double>(counts->schedules);
    wall += *std::min_element(walls.begin(), walls.end());
    cpu += *std::min_element(cpus.begin(), cpus.end());
    if (!workload.main.empty()) {
      std::printf("  %-58s %9llu schedules, wall min %.4g s, %s\n", rateSet[i].id().c_str(),
                  static_cast<unsigned long long>(counts->schedules),
                  *std::min_element(walls.begin(), walls.end()),
                  describeTiming(walls, 1.0, "s").c_str());
    }
  }

  // Hunt latency percentiles weigh every (strategy, program) hunt equally:
  // a random hunt's weight is shared among its seeds.
  std::map<std::string, double> seedsPerHunt;
  for (const Exploration& e : workload.hunts) {
    seedsPerHunt[e.strategy + "|" + e.scenario + "|" + e.model] += 1.0;
  }
  std::vector<WeightedSample> fastest;  // one per hunt
  std::vector<WeightedSample> raw;      // every hunt sample
  for (std::size_t i = 0; i < workload.hunts.size(); ++i) {
    const Exploration& e = workload.hunts[i];
    const double weight = 1.0 / seedsPerHunt[e.strategy + "|" + e.scenario + "|" + e.model];
    const std::vector<double> walls =
        column(arena, kHuntTag + static_cast<std::uint32_t>(i), false);
    if (walls.empty()) continue;
    fastest.push_back({*std::min_element(walls.begin(), walls.end()), weight});
    for (const double w : walls) raw.push_back({w, weight});
  }
  const double p50 = weightedPercentile(fastest, 50.0);
  const double p99 = weightedPercentile(fastest, 99.0);
  std::printf("time to bug over %zu hunts (%zu kinds): median %.4g ms, p99 %.4g ms; "
              "raw samples: median %.4g ms, p99 %.4g ms, p99.9 %.4g ms (n=%zu)\n",
              fastest.size(), seedsPerHunt.size(), p50 * 1e3, p99 * 1e3,
              weightedPercentile(raw, 50.0) * 1e3, weightedPercentile(raw, 99.0) * 1e3,
              weightedPercentile(raw, 99.9) * 1e3, raw.size());
  ledger.emit("session");

  if (schedules == 0.0 || wall <= 0.0 || fastest.empty()) {
    std::fprintf(stderr, "perfbench: no completed exploration to measure\n");
    return 1;
  }
  MetricSet metrics;
  metrics.add("schedules_per_s", schedules / wall, "1/s");
  metrics.add("cpu_us_per_schedule", cpu / schedules * 1e6, "us");
  metrics.add("time_to_bug_p50_ms", p50 * 1e3, "ms");
  metrics.add("time_to_bug_p99_ms", p99 * 1e3, "ms");
  metrics.add("peak_rss_mib", peakRss, "MiB");
  metrics.emit();
  return 0;
}

}  // namespace perfbench
