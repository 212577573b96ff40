#include "explore/explorer.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <type_traits>
#include <utility>

#include "support/diagnostics.hpp"

namespace lazyhb::explore {

std::optional<std::uint64_t> parseSnapshotBudgetEnv(std::string_view text) noexcept {
  if (text.empty()) return std::uint64_t{256} * 1024 * 1024;
  // Unsigned from_chars takes no sign, space or suffix and reports
  // overflow, so only plain decimal digits that fit get through.
  std::uint64_t bytes = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, bytes);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return bytes;
}

std::uint64_t defaultSnapshotBudgetBytes() noexcept {
  static const std::uint64_t value = [] {
    const char* env = std::getenv("LAZYHB_SNAPSHOT_BUDGET");
    const std::optional<std::uint64_t> bytes =
        parseSnapshotBudgetEnv(env == nullptr ? "" : env);
    if (!bytes) {
      std::fprintf(stderr,
                   "lazyhb: LAZYHB_SNAPSHOT_BUDGET must be a byte count in plain "
                   "decimal digits (0: unlimited; empty: the default), got '%s'\n",
                   env);
      std::abort();
    }
    return *bytes;
  }();
  return value;
}

const char* statBlockName(StatBlock block) noexcept {
  switch (block) {
    case StatBlock::Top:
      return nullptr;
    case StatBlock::Cache:
      return "cache";
    case StatBlock::Checkpoint:
      return "checkpoint";
    case StatBlock::Tso:
      return "tso";
  }
  return nullptr;
}

std::string statPath(const StatSpec& spec) {
  const char* block = statBlockName(spec.block);
  return block == nullptr ? spec.key : std::string(block) + "." + spec.key;
}

bool statBlockPresent(const ExplorationStats& stats, StatBlock block) noexcept {
  switch (block) {
    case StatBlock::Top:
      return true;
    case StatBlock::Cache:
      return stats.cacheStats.enabled;
    case StatBlock::Checkpoint:
      return stats.checkpointStats.enabled;
    case StatBlock::Tso:
      return stats.flushEvents > 0 || stats.fenceEvents > 0 ||
             stats.maxBufferedStores > 0;
  }
  return false;
}

ExplorationStats emptyStatFold() {
  ExplorationStats stats;
  forEachStat(
      [](const StatSpec& spec, auto& field) {
        if (spec.fold == StatFold::And) field = true;
      },
      stats);
  return stats;
}

void foldStats(ExplorationStats& into, const ExplorationStats& from) {
  forEachStat(
      [](const StatSpec& spec, auto& acc, const auto& value) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(acc)>, bool>) {
          acc = spec.fold == StatFold::And ? acc && value : acc || value;
        } else {
          acc = spec.fold == StatFold::Max ? std::max(acc, value) : acc + value;
        }
      },
      into, from);
  into.cacheStats.enabled = into.cacheStats.enabled || from.cacheStats.enabled;
  into.checkpointStats.enabled =
      into.checkpointStats.enabled || from.checkpointStats.enabled;
}

CacheStats cacheStatsOf(const core::HbrCache& cache) {
  const core::HbrCache::Stats counts = cache.stats();
  CacheStats stats;
  stats.enabled = true;
  stats.lookups = counts.lookups;
  stats.hits = counts.hits;
  stats.insertions = counts.insertions;
  stats.entries = cache.size();
  stats.approxBytes = cache.approxMemoryBytes();
  return stats;
}

void ClassStates::merge(const ClassStates& other) {
  for (const auto& [cls, state] : other.firstStates_) record(cls, state);
  conflicted_.insert(other.conflicted_.begin(), other.conflicted_.end());
}

ScheduleTally::ScheduleTally(const ExplorerOptions& options, Keep keep)
    : detectRaces_(options.detectRaces),
      keepViolations_(options.maxViolationsKept),
      keep_(keep) {
  config_.maxEventsPerSchedule = options.maxEventsPerSchedule;
  config_.memoryModel = options.memoryModel;
}

runtime::Outcome ScheduleTally::execute(PrefixReplayEngine& engine,
                                        trace::TraceRecorder& recorder,
                                        const Program& program,
                                        runtime::Scheduler& scheduler) {
  const PrefixReplayEngine::Session session =
      engine.beginSchedule(config_, &recorder);
  runtime::Execution& exec = *session.exec;
  const runtime::Outcome outcome =
      session.resumed ? exec.resume(scheduler) : exec.run(program, scheduler);

  ++result_.schedulesExecuted;
  result_.totalEvents += exec.events().size();
  // The execution's store-buffer counters are checkpoint/rollback-aware, so
  // at schedule end they read this full schedule's totals in every
  // incremental replay mode, exactly like totalEvents.
  result_.flushEvents += exec.flushEventCount();
  result_.fenceEvents += exec.fenceEventCount();
  result_.maxBufferedStores =
      std::max<std::uint64_t>(result_.maxBufferedStores, exec.maxBufferedStores());

  switch (outcome) {
    case runtime::Outcome::Terminal: {
      ++result_.terminalSchedules;
      const support::Hash128 state = exec.stateFingerprint();
      hbrs_.record(recorder.fingerprint(trace::Relation::Full), state);
      lazyHbrs_.record(recorder.fingerprint(trace::Relation::Lazy), state);
      valueClasses_.record(recorder.fingerprint(trace::Relation::Value), state);
      states_.insert(state);
      break;
    }
    case runtime::Outcome::Deadlock:
    case runtime::Outcome::AssertionFailure:
    case runtime::Outcome::UsageError: {
      ++result_.violationSchedules;
      keepViolation(exec.violation());
      break;
    }
    case runtime::Outcome::Abandoned:
      ++result_.prunedSchedules;
      break;
    case runtime::Outcome::EventLimit:
      break;  // counted as executed, contributes no terminal data
  }

  if (detectRaces_) races_.ingest(recorder);
  return outcome;
}

void ScheduleTally::keepViolation(const runtime::Violation& v) {
  std::vector<ViolationRecord>& kept = result_.violations;
  if (kept.size() < keepViolations_) {
    kept.push_back(ViolationRecord{v.kind, v.message, v.schedule});
    if (keep_ == Keep::Smallest) std::push_heap(kept.begin(), kept.end(), dfsOrderLess);
    return;
  }
  if (keep_ == Keep::First || kept.empty() || !(v.schedule < kept.front().schedule)) {
    return;
  }
  std::pop_heap(kept.begin(), kept.end(), dfsOrderLess);
  ViolationRecord& displaced = kept.back();
  displaced.kind = v.kind;
  displaced.message.assign(v.message);
  displaced.schedule.assign(v.schedule.begin(), v.schedule.end());
  std::push_heap(kept.begin(), kept.end(), dfsOrderLess);
}

void ScheduleTally::addReplayStats(const PrefixReplayEngine& engine) {
  result_.eventsElided += engine.eventsElided();
  result_.eventsReplayed += engine.eventsReplayed();
  CheckpointStats& checkpoint = result_.checkpointStats;
  checkpoint.enabled = checkpoint.enabled || engine.incremental();
  checkpoint.stages += engine.stagesCreated();
  checkpoint.bytesStaged += engine.bytesStaged();
  checkpoint.evictions += engine.evictions();
  checkpoint.replayFallbacks += engine.replayFallbacks();
}

void ScheduleTally::absorb(const ScheduleTally& other) {
  foldStats(result_, other.result_);
  hbrs_.merge(other.hbrs_);
  lazyHbrs_.merge(other.lazyHbrs_);
  valueClasses_.merge(other.valueClasses_);
  states_.insert(other.states_.begin(), other.states_.end());
  result_.violations.insert(result_.violations.end(),
                            other.result_.violations.begin(),
                            other.result_.violations.end());
}

ExplorationResult& ScheduleTally::finish() {
  result_.distinctHbrs = hbrs_.size();
  result_.distinctLazyHbrs = lazyHbrs_.size();
  result_.distinctValueClasses = valueClasses_.size();
  result_.distinctStates = states_.size();
  result_.hbrConflicts = hbrs_.conflicts();
  result_.lazyHbrConflicts = lazyHbrs_.conflicts();
  result_.valueConflicts = valueClasses_.conflicts();
  result_.races = races_.distinctRaces();
  return result_;
}

ExplorationKit::ExplorationKit() : engine(stackPool, recorder, false, false, 0) {}

void ExplorationKit::configure(const ExplorerOptions& options,
                               std::uint64_t snapshotBudgetBytes, bool fullClocks) {
  recorder.reset(trace::TraceRecorder::Options{.detectRaces = options.detectRaces,
                                               .fullClocks = fullClocks});
  engine.configure(options.incremental,
                   options.checkpointable && runtime::Execution::checkpointingSupported(),
                   snapshotBudgetBytes);
}

void ExplorationKit::quiesce() {
  engine.quiesce();
  recorder.reset({});
}

namespace {

/// The process's parked kits, the most recently parked last. Destroying it
/// at process exit frees them.
struct IdleKits {
  std::mutex mutex;
  std::vector<std::unique_ptr<ExplorationKit>> kits;
};

IdleKits& idleKits() {
  static IdleKits idle;
  return idle;
}

}  // namespace

void ParkKit::operator()(ExplorationKit* kit) const noexcept {
  kit->quiesce();
  IdleKits& idle = idleKits();
  const std::lock_guard<std::mutex> lock(idle.mutex);
  idle.kits.emplace_back(kit);
}

KitLease leaseKit() {
  IdleKits& idle = idleKits();
  {
    const std::lock_guard<std::mutex> lock(idle.mutex);
    if (!idle.kits.empty()) {
      KitLease kit(idle.kits.back().release());
      idle.kits.pop_back();
      return kit;
    }
  }
  return KitLease(new ExplorationKit);
}

ExplorerBase::ExplorerBase(ExplorerOptions options, bool fullClocks)
    : options_(std::move(options)), kit_(leaseKit()), tally_(options_) {
  kit_->configure(options_, options_.snapshotBudgetBytes, fullClocks);
}

ExplorationResult ExplorerBase::explore(const Program& program) {
  LAZYHB_CHECK(!explored_);
  explored_ = true;
  runSearch(program);
  tally_.addReplayStats(kit_->engine);
  if (const core::HbrCache* cache = prefixCache()) {
    result().cacheStats = cacheStatsOf(*cache);
  }
  return tally_.finish();
}

bool ExplorerBase::budgetExhausted() const noexcept {
  return tally_.result().schedulesExecuted >= options_.scheduleLimit;
}

bool ExplorerBase::shouldStopForViolation() const noexcept {
  return options_.stopOnFirstViolation && !tally_.result().violations.empty();
}

runtime::Outcome ExplorerBase::executeSchedule(const Program& program,
                                               runtime::Scheduler& scheduler) {
  ExplorationResult& result = tally_.result();
  if (budgetExhausted()) {
    result.hitScheduleLimit = true;
  }
  const runtime::Outcome outcome =
      tally_.execute(kit_->engine, kit_->recorder, program, scheduler);
  if (options_.onScheduleTick && options_.tickIntervalSchedules > 0 &&
      result.schedulesExecuted % options_.tickIntervalSchedules == 0) {
    options_.onScheduleTick(result.schedulesExecuted);
  }
  return outcome;
}

}  // namespace lazyhb::explore
