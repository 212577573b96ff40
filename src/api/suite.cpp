// Implementation of the public batch-campaign facade (lazyhb/suite.hpp).
//
// Suite is a loss-free adapter over campaign::runCampaign — the same runner
// the CLI's `bench` subcommand drives — plus campaign::writeReportJson for
// the rendered document, so a SuiteReport::toJson() is merge- and
// diff-compatible with `lazyhb bench --out` byte-for-byte (modulo wall
// times). No count is computed or copied field by field in this file.

#include "lazyhb/suite.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/report.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"

namespace lazyhb {

Suite::Suite() = default;

Suite& Suite::add(std::string scenarioOrFamily) {
  config_.selectors.push_back(std::move(scenarioOrFamily));
  return *this;
}

Suite& Suite::strategies(std::vector<std::string> names) {
  config_.strategies = std::move(names);
  return *this;
}

Suite& Suite::schedules(std::uint64_t limit) {
  config_.scheduleLimit = limit;
  return *this;
}

Suite& Suite::maxEventsPerSchedule(std::uint32_t events) {
  config_.maxEventsPerSchedule = events;
  return *this;
}

Suite& Suite::seed(std::uint64_t value) {
  config_.seed = value;
  return *this;
}

Suite& Suite::incremental(bool on) {
  config_.incremental = on;
  return *this;
}

Suite& Suite::memoryModel(std::string model) {
  config_.memoryModel = std::move(model);
  return *this;
}

Suite& Suite::jobs(int count) {
  config_.jobs = count;
  return *this;
}

Suite& Suite::workers(int count) {
  config_.workers = count;
  return *this;
}

Suite& Suite::shard(int index, int count) {
  config_.shardIndex = index;
  config_.shardCount = count;
  return *this;
}

Suite& Suite::checkpointDir(std::string directory) {
  config_.checkpointDir = std::move(directory);
  return *this;
}

Suite& Suite::resumeOnly(bool on) {
  config_.resumeOnly = on;
  return *this;
}

Suite& Suite::onProgress(ProgressCallback callback) {
  config_.progress = std::move(callback);
  return *this;
}

SuiteReport Suite::run() const {
  campaign::CampaignOptions options;

  for (const std::string& name : config_.strategies) {
    const auto spec = campaign::parseExplorerSpec(name);
    if (!spec) {
      throw std::invalid_argument("lazyhb: unknown strategy '" + name +
                                  "' (see Session::strategies())");
    }
    options.explorers.push_back(*spec);
  }

  std::string badToken;
  if (!programs::selectByTokens(config_.selectors, options.programs,
                                &badToken)) {
    throw std::invalid_argument("lazyhb: '" + badToken +
                                "' names no scenario or family "
                                "(see lazyhb::scenarios())");
  }

  options.explorer.scheduleLimit = config_.scheduleLimit;
  options.explorer.maxEventsPerSchedule = config_.maxEventsPerSchedule;
  options.explorer.incremental = config_.incremental;
  const auto model = memory::parseMemoryModel(config_.memoryModel);
  if (!model) {
    throw std::invalid_argument("lazyhb: unknown memory model '" +
                                config_.memoryModel + "' (expected one of: " +
                                memory::memoryModelNamesHelp() + ")");
  }
  options.explorer.memoryModel = *model;
  options.explorer.workers = config_.workers;
  options.seed = config_.seed;
  options.jobs = config_.jobs;
  options.shardIndex = config_.shardIndex;
  options.shardCount = config_.shardCount;
  options.checkpointDir = config_.checkpointDir;
  options.requireExistingJournal = config_.resumeOnly;
  options.onProgress = config_.progress;

  const campaign::CampaignResult result = campaign::runCampaign(options);

  SuiteReport report;
  report.json_ = campaign::writeReportJson(result);
  report.cells.reserve(result.cells.size());
  for (const campaign::CellResult& cell : result.cells) {
    SuiteCell out;
    static_cast<ExplorationStats&>(out) = cell.stats;
    out.scenario = cell.program;
    out.family = cell.family;
    out.strategy = cell.explorer;
    out.fromCheckpoint = cell.fromCheckpoint;
    out.error = cell.error;
    out.wallSeconds = cell.wallSeconds;
    out.inequalityHolds = cell.inequalityHolds();
    out.inequalityDiagnostic = cell.inequalityDiagnostic;
    report.cells.push_back(std::move(out));
  }
  report.totals = result.totals;
  report.inequalityViolations = result.inequalityViolations;
  report.wallSeconds = result.wallSeconds;
  report.cellsFromCheckpoint = result.cellsFromCheckpoint;
  report.cellsFailed = result.cellsFailed;
  report.shardIndex = result.config.shardIndex;
  report.shardCount = result.config.shardCount;
  return report;
}

std::string SuiteReport::summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%zu cell(s)%s: %llu schedules, %llu events, %.2fs wall; "
      "section-3 inequality %s%s",
      cells.size(),
      shardCount > 1
          ? (" (shard " + std::to_string(shardIndex + 1) + "/" +
             std::to_string(shardCount) + ")")
                .c_str()
          : "",
      static_cast<unsigned long long>(totals.schedulesExecuted),
      static_cast<unsigned long long>(totals.totalEvents), wallSeconds,
      inequalityViolations == 0
          ? "holds on all cells"
          : ("VIOLATED on " + std::to_string(inequalityViolations) + " cell(s)")
                .c_str(),
      cellsFromCheckpoint > 0
          ? (", " + std::to_string(cellsFromCheckpoint) + " from checkpoint")
                .c_str()
          : "");
  return std::string(buf);
}

}  // namespace lazyhb
