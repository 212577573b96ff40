// Implementation of the public embedding facade (lazyhb/session.hpp).
//
// Session is a thin, loss-free adapter: run() maps the builder's config
// onto ExplorerOptions, constructs the explorer through the same
// campaign::ExplorerSpec factory every other consumer uses, and copies the
// ExplorationResult's statistics whole into the public TestReport (both
// extend ExplorationStats). No count is computed differently from the
// direct construction path — the parity test suite (tests/test_session.cpp)
// pins byte-identity.

#include "lazyhb/session.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "campaign/explorer_spec.hpp"
#include "campaign/report.hpp"
#include "explore/explorer.hpp"
#include "explore/replay.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "support/json_writer.hpp"
#include "support/worker_pool.hpp"

namespace lazyhb {
namespace {

std::vector<TestRace> toRaces(const std::vector<trace::RaceReport>& races) {
  std::vector<TestRace> out;
  out.reserve(races.size());
  for (const trace::RaceReport& race : races) {
    TestRace r;
    r.object = race.objectName;
    r.firstEvent = race.firstEvent;
    r.secondEvent = race.secondEvent;
    out.push_back(std::move(r));
  }
  return out;
}

const programs::ProgramSpec& resolveScenario(const std::string& name) {
  const programs::ProgramSpec* spec = programs::byName(name);
  if (spec == nullptr) {
    throw std::invalid_argument("lazyhb: unknown scenario '" + name +
                                "' (see lazyhb::scenarios())");
  }
  return *spec;
}

memory::MemoryModel resolveMemoryModel(const std::string& name) {
  const auto model = memory::parseMemoryModel(name);
  if (!model) {
    throw std::invalid_argument("lazyhb: unknown memory model '" + name +
                                "' (expected one of: " +
                                memory::memoryModelNamesHelp() + ")");
  }
  return *model;
}

}  // namespace

Session::Session() {
  config_.snapshotBudgetBytes = explore::defaultSnapshotBudgetBytes();
}

Session& Session::strategy(std::string name) {
  config_.strategy = std::move(name);
  return *this;
}

Session& Session::schedules(std::uint64_t limit) {
  config_.scheduleLimit = limit;
  return *this;
}

Session& Session::maxEventsPerSchedule(std::uint32_t events) {
  config_.maxEventsPerSchedule = events;
  return *this;
}

Session& Session::seed(std::uint64_t value) {
  config_.seed = value;
  return *this;
}

Session& Session::memoryModel(std::string model) {
  config_.memoryModel = std::move(model);
  return *this;
}

Session& Session::detectRaces(bool on) {
  config_.detectRaces = on;
  return *this;
}

Session& Session::stopOnFirstViolation(bool on) {
  config_.stopOnFirstViolation = on;
  return *this;
}

Session& Session::keepViolations(std::uint32_t max) {
  config_.maxViolationsKept = max;
  return *this;
}

Session& Session::incremental(bool on) {
  config_.incremental = on;
  return *this;
}

Session& Session::checkpointable(bool on) {
  config_.checkpointable = on;
  return *this;
}

Session& Session::workers(int count) {
  config_.workers = count;
  return *this;
}

Session& Session::snapshotBudget(std::uint64_t bytes) {
  config_.snapshotBudgetBytes = bytes;
  return *this;
}

Session& Session::onProgress(ProgressCallback callback) {
  config_.progress = std::move(callback);
  return *this;
}

Session& Session::progressInterval(std::uint64_t schedules) {
  config_.progressInterval = schedules;
  return *this;
}

std::vector<std::string> Session::strategies() {
  std::vector<std::string> names;
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    names.push_back(spec.name);
  }
  for (const campaign::ExplorerSpec& spec : campaign::extendedExplorers()) {
    names.push_back(spec.name);
  }
  return names;
}

TestReport Session::run(const Program& program) const {
  const auto spec = campaign::parseExplorerSpec(config_.strategy);
  if (!spec) {
    throw std::invalid_argument("lazyhb: unknown strategy '" +
                                config_.strategy + "' (expected one of: " +
                                campaign::explorerNamesHelp(true) + ")");
  }
  if (config_.workers > support::kMaxWorkerThreads) {
    throw std::invalid_argument(
        "lazyhb: workers(" + std::to_string(config_.workers) +
        ") exceeds the bound of " + std::to_string(support::kMaxWorkerThreads) +
        " threads");
  }

  explore::ExplorerOptions options;
  options.scheduleLimit = config_.scheduleLimit;
  options.maxEventsPerSchedule = config_.maxEventsPerSchedule;
  options.memoryModel = resolveMemoryModel(config_.memoryModel);
  options.detectRaces = config_.detectRaces;
  options.stopOnFirstViolation = config_.stopOnFirstViolation;
  options.maxViolationsKept = config_.maxViolationsKept;
  options.incremental = config_.incremental;
  options.checkpointable = config_.checkpointable;
  options.workers = config_.workers;
  options.snapshotBudgetBytes = config_.snapshotBudgetBytes;
  if (config_.progress) {
    // Adapt the engine's raw schedule tick into the public ProgressEvent.
    // A non-null onScheduleTick also disqualifies the options from
    // parallel sharding (ParallelExplorer::shardable), keeping the tick
    // stream deterministic.
    const ProgressCallback callback = config_.progress;
    const std::string scenarioLabel = config_.scenarioLabel;
    const std::string strategyName = config_.strategy;
    const std::uint64_t limit = config_.scheduleLimit;
    options.tickIntervalSchedules =
        config_.progressInterval == 0 ? 1 : config_.progressInterval;
    options.onScheduleTick = [callback, scenarioLabel, strategyName,
                              limit](std::uint64_t executed) {
      ProgressEvent event;
      event.kind = ProgressEvent::Kind::ScheduleTick;
      event.scenario = scenarioLabel;
      event.strategy = strategyName;
      event.schedulesExecuted = executed;
      event.scheduleLimit = limit;
      callback(event);
    };
  }

  const auto explorer = spec->create(options, config_.seed);
  const auto start = std::chrono::steady_clock::now();
  const explore::ExplorationResult result = explorer->explore(program);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  TestReport report;
  report.strategy = config_.strategy;
  report.scheduleLimit = config_.scheduleLimit;
  report.maxEventsPerSchedule = config_.maxEventsPerSchedule;
  report.seed = config_.seed;
  report.incremental = config_.incremental;
  report.checkpointable = config_.checkpointable;
  report.memoryModel = config_.memoryModel;

  static_cast<ExplorationStats&>(report) = result;
  for (const explore::ViolationRecord& violation : result.violations) {
    TestViolation v;
    v.kind = runtime::outcomeName(violation.kind);
    v.message = violation.message;
    v.schedule = violation.schedule;
    report.violations.push_back(std::move(v));
  }
  report.races = toRaces(result.races);
  report.wallSeconds = elapsed.count();
  return report;
}

TestReport Session::run(const std::string& scenarioName) const {
  const programs::ProgramSpec& spec = resolveScenario(scenarioName);
  Session configured = *this;
  configured.config_.checkpointable = spec.checkpointable;
  configured.config_.scenarioLabel = spec.name;
  TestReport report = configured.run(spec.body);
  report.scenario = spec.name;
  report.family = spec.family;
  return report;
}

TestReport Session::run(const char* scenarioName) const {
  return run(std::string(scenarioName));
}

std::string TestReport::toJson() const {
  support::JsonWriter json;
  json.beginObject();
  json.field("schema", kTestReportSchemaName);
  json.field("version", kTestReportSchemaVersion);
  json.field("scenario", scenario);
  json.field("family", family);
  json.field("strategy", strategy);

  json.key("config").beginObject();
  json.field("limit", scheduleLimit);
  json.field("max_events", static_cast<std::uint64_t>(maxEventsPerSchedule));
  json.field("seed", seed);
  json.field("incremental", incremental);
  json.field("checkpointable", checkpointable);
  json.field("memory_model", memoryModel);
  json.endObject();

  json.key("counts").beginObject();
  campaign::writeTopStats(json, *this);
  json.endObject();

  json.key("violations").beginArray();
  for (const TestViolation& violation : violations) {
    json.beginObject();
    json.field("kind", violation.kind);
    json.field("message", violation.message);
    json.key("schedule").beginArray();
    for (const int pick : violation.schedule) json.value(pick);
    json.endArray();
    json.endObject();
  }
  json.endArray();

  json.key("races").beginArray();
  for (const TestRace& race : races) {
    json.beginObject();
    json.field("object", race.object);
    json.field("first_event", race.firstEvent);
    json.field("second_event", race.secondEvent);
    json.endObject();
  }
  json.endArray();

  campaign::writeStatBlocks(json, *this);
  json.field("wall_seconds", wallSeconds);
  json.endObject();
  return json.str() + "\n";
}

std::string TestReport::summary() const {
  const std::string subject =
      scenario.empty() ? std::string("program") : "scenario '" + scenario + "'";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s [%s]: %llu schedules (%llu pruned), %llu lazy-HBR "
                "class(es), %llu state(s), %zu violation(s)%s",
                subject.c_str(), strategy.c_str(),
                static_cast<unsigned long long>(schedulesExecuted),
                static_cast<unsigned long long>(prunedSchedules),
                static_cast<unsigned long long>(distinctLazyHbrs),
                static_cast<unsigned long long>(distinctStates),
                violations.size(),
                complete ? ", search space exhausted"
                         : hitScheduleLimit ? ", budget exhausted" : "");
  std::string line(buf);
  if (!violations.empty()) {
    line += " — first: [" + violations.front().kind + "] " +
            violations.front().message;
  }
  return line;
}

ScheduleTrace traceSchedule(const Program& program,
                            const std::vector<int>& schedule,
                            const TraceOptions& options) {
  explore::ReplayOptions replayOptions;
  replayOptions.renderTrace = options.renderTrace;
  replayOptions.detectRaces = options.detectRaces;
  replayOptions.maxEventsPerSchedule = options.maxEventsPerSchedule;
  replayOptions.memoryModel = resolveMemoryModel(options.memoryModel);
  if (options.relation == "sync") {
    replayOptions.renderRelation = trace::Relation::Sync;
  } else if (options.relation == "full") {
    replayOptions.renderRelation = trace::Relation::Full;
  } else if (options.relation == "lazy") {
    replayOptions.renderRelation = trace::Relation::Lazy;
  } else {
    throw std::invalid_argument("lazyhb: unknown relation '" +
                                options.relation +
                                "' (expected sync, full or lazy)");
  }

  const explore::ReplayResult result =
      explore::replaySchedule(program, schedule, replayOptions);

  ScheduleTrace out;
  out.applied = result.outcome != runtime::Outcome::Abandoned;
  out.outcome = runtime::outcomeName(result.outcome);
  out.violated = runtime::isViolation(result.outcome);
  out.message = result.violationMessage;
  out.rendered = result.renderedTrace;
  out.events = result.eventCount;
  out.hbrFingerprint = result.hbrFingerprint.toHex();
  out.lazyFingerprint = result.lazyFingerprint.toHex();
  out.stateFingerprint = result.stateFingerprint.toHex();
  out.races = toRaces(result.races);
  return out;
}

ScheduleTrace traceSchedule(const std::string& scenarioName,
                            const std::vector<int>& schedule,
                            const TraceOptions& options) {
  return traceSchedule(resolveScenario(scenarioName).body, schedule, options);
}

}  // namespace lazyhb
