#include "campaign/merge.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "support/diagnostics.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace lazyhb::campaign {
namespace {

struct ParsedReport {
  std::string label;
  CampaignConfig config;
  std::vector<std::string> explorers;
  std::vector<CellResult> cells;
  std::vector<MergeSource> sources;  ///< flattened provenance contribution
  double wallSeconds = 0.0;
  std::uint64_t tasksStolen = 0;
};

[[noreturn]] void raise(const std::string& label, const std::string& message) {
  throw std::runtime_error("lazyhb: " + label + ": " + message);
}

ParsedReport parseReport(const std::string& document, const std::string& label) {
  ParsedReport report;
  report.label = label;

  std::string parseError;
  const auto root = support::JsonValue::parse(document, &parseError);
  if (root == nullptr) raise(label, "not valid JSON (" + parseError + ")");
  if (!root->isObject()) raise(label, "not a report object");
  if (root->stringAt("schema") != kSuiteReportSchemaName) {
    raise(label, "not a " + std::string(kSuiteReportSchemaName) + " document");
  }
  const auto version = root->intAt("version", -1);
  if (version != kSuiteReportSchemaVersion) {
    raise(label, "schema version " + std::to_string(version) +
                     " (mergeable reports are version " +
                     std::to_string(kSuiteReportSchemaVersion) + ")");
  }

  const support::JsonValue* config = root->find("config");
  if (config == nullptr || !config->isObject()) {
    raise(label, "missing config block");
  }
  report.config.scheduleLimit = config->uintAt("limit");
  report.config.maxEventsPerSchedule =
      static_cast<std::uint32_t>(config->uintAt("max_events"));
  report.config.seed = config->uintAt("seed");
  report.config.incremental = config->boolAt("incremental", true);
  if (!config->has("workers")) {
    raise(label, "config.workers is missing (mandatory since schema v4)");
  }
  report.config.workers = static_cast<int>(config->intAt("workers", 1));
  if (!config->has("snapshot_budget")) {
    raise(label, "config.snapshot_budget is missing (mandatory since schema v6)");
  }
  report.config.snapshotBudgetBytes = config->uintAt("snapshot_budget");
  if (!config->has("memory_model")) {
    raise(label, "config.memory_model is missing (mandatory since schema v8)");
  }
  report.config.memoryModel = config->stringAt("memory_model");
  if (const support::JsonValue* shard = config->find("shard")) {
    report.config.shardIndex = static_cast<int>(shard->intAt("index"));
    report.config.shardCount = static_cast<int>(shard->intAt("count", 1));
  }
  const support::JsonValue* explorers = config->find("explorers");
  if (explorers == nullptr || !explorers->isArray() ||
      explorers->items().empty()) {
    raise(label, "config.explorers is missing or empty");
  }
  for (const support::JsonValue& name : explorers->items()) {
    report.explorers.push_back(name.asString());
  }

  const support::JsonValue* cells = root->find("cells");
  if (cells == nullptr || !cells->isArray()) {
    raise(label, "missing cells array");
  }
  for (const support::JsonValue& value : cells->items()) {
    CellResult cell;
    std::string cellError;
    if (!parseCellJson(value, &cell, &cellError)) raise(label, cellError);
    report.cells.push_back(std::move(cell));
  }

  if (const support::JsonValue* totals = root->find("totals")) {
    report.wallSeconds = totals->doubleAt("wall_seconds");
    report.tasksStolen = totals->uintAt("tasks_stolen");
  }

  // Provenance: a previously merged report contributes its own sources
  // (flattened — the provenance chain stays one level deep however many
  // merge rounds happened); a direct report contributes itself.
  const support::JsonValue* merge = root->find("merge");
  const support::JsonValue* sources =
      merge == nullptr ? nullptr : merge->find("sources");
  if (sources != nullptr && sources->isArray() && !sources->items().empty()) {
    for (const support::JsonValue& value : sources->items()) {
      MergeSource source;
      source.label = value.stringAt("label");
      source.shardIndex = static_cast<int>(value.intAt("shard_index"));
      source.shardCount = static_cast<int>(value.intAt("shard_count", 1));
      source.cells = value.uintAt("cells");
      report.sources.push_back(std::move(source));
    }
  } else {
    MergeSource source;
    source.label = label;
    source.shardIndex = report.config.shardIndex;
    source.shardCount = report.config.shardCount;
    source.cells = report.cells.size();
    report.sources.push_back(std::move(source));
  }
  return report;
}

/// The contract statistics on which two copies of a cell disagree, as
/// "<path> <a> vs <b>" items; empty when they agree. Two clean runs of one
/// configuration agree on every contract statistic and may differ on any
/// scoreboard one.
std::string contractConflicts(const ExplorationStats& a,
                              const ExplorationStats& b) {
  std::string conflicts;
  explore::forEachStat(
      [&](const explore::StatSpec& spec, const auto& x, const auto& y) {
        if (spec.klass != explore::StatClass::Contract || x == y) return;
        if (!conflicts.empty()) conflicts += ", ";
        conflicts += explore::statPath(spec) + " " + std::to_string(x) +
                     " vs " + std::to_string(y);
      },
      a, b);
  return conflicts;
}

std::string serializeCell(const CellResult& cell) {
  support::JsonWriter json;
  writeCellJson(json, cell);
  return json.str();
}

/// Deterministic, argument-order-independent preference between duplicate
/// copies of one cell: healthy beats failed, finished beats timed-out,
/// deeper beats shallower; the serialized form breaks the final tie so
/// merging is commutative down to the byte.
bool preferred(const CellResult& a, const CellResult& b) {
  if (a.failed() != b.failed()) return !a.failed();
  if (a.timedOut != b.timedOut) return !a.timedOut;
  if (a.stats.schedulesExecuted != b.stats.schedulesExecuted) {
    return a.stats.schedulesExecuted > b.stats.schedulesExecuted;
  }
  return serializeCell(a) <= serializeCell(b);
}

void checkConfigCompatible(const ParsedReport& base, const ParsedReport& other) {
  const auto mismatch = [&](const std::string& field) {
    throw std::runtime_error(
        "lazyhb: cannot merge '" + other.label + "' with '" + base.label +
        "': config." + field +
        " differs — merged counts would mix incomparable campaigns");
  };
  if (other.config.scheduleLimit != base.config.scheduleLimit) mismatch("limit");
  if (other.config.maxEventsPerSchedule != base.config.maxEventsPerSchedule) {
    mismatch("max_events");
  }
  if (other.config.seed != base.config.seed) mismatch("seed");
  if (other.config.incremental != base.config.incremental) mismatch("incremental");
  if (other.config.workers != base.config.workers) mismatch("workers");
  if (other.config.snapshotBudgetBytes != base.config.snapshotBudgetBytes) {
    mismatch("snapshot_budget");
  }
  if (other.config.memoryModel != base.config.memoryModel) {
    mismatch("memory_model");
  }
  if (other.explorers != base.explorers) mismatch("explorers");
}

}  // namespace

MergeOutcome mergeReports(const std::vector<std::string>& documents,
                          const std::vector<std::string>& labels) {
  if (documents.empty()) {
    throw std::runtime_error("lazyhb: nothing to merge");
  }
  LAZYHB_CHECK(documents.size() == labels.size());

  std::vector<ParsedReport> reports;
  reports.reserve(documents.size());
  for (std::size_t i = 0; i < documents.size(); ++i) {
    reports.push_back(parseReport(documents[i], labels[i]));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    checkConfigCompatible(reports.front(), reports[i]);
  }
  const std::vector<std::string>& explorerOrder = reports.front().explorers;
  const auto explorerPosition = [&](const CellResult& cell,
                                    const std::string& label) {
    for (std::size_t e = 0; e < explorerOrder.size(); ++e) {
      if (explorerOrder[e] == cell.explorer) return e;
    }
    raise(label, "cell '" + cell.program + "' names explorer '" +
                     cell.explorer + "' outside config.explorers");
  };

  // Union with dedup: one slot per (program, explorer) cell.
  std::map<std::pair<int, std::size_t>, CellResult> merged;
  for (const ParsedReport& report : reports) {
    for (const CellResult& cell : report.cells) {
      const auto key = std::make_pair(cell.programId,
                                      explorerPosition(cell, report.label));
      const auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, cell);
        continue;
      }
      CellResult& kept = it->second;
      const bool bothClean = !kept.failed() && !kept.timedOut &&
                             !cell.failed() && !cell.timedOut;
      const std::string conflicts =
          bothClean ? contractConflicts(kept.stats, cell.stats) : std::string();
      if (!conflicts.empty()) {
        throw std::runtime_error(
            "lazyhb: conflicting counts for cell (" + cell.program + ", " +
            cell.explorer + ") while merging '" + report.label +
            "': " + conflicts +
            " — two clean runs of one configuration can never disagree, so "
            "the inputs do not come from the same campaign configuration");
      }
      if (preferred(cell, kept)) kept = cell;
    }
  }

  const std::uint64_t scheduleLimit = reports.front().config.scheduleLimit;
  std::vector<CellResult> cells;
  cells.reserve(merged.size());
  for (auto& entry : merged) {
    CellResult cell = std::move(entry.second);
    // Re-check the §3 chain from the merged cell's own counts — a merged
    // report must not inherit inequality verdicts it cannot verify.
    if (!cell.failed()) {
      cell.inequalityDiagnostic =
          core::checkCountingChain(cell.counts(), scheduleLimit);
    }
    cells.push_back(std::move(cell));
  }
  MergeOutcome outcome;
  outcome.result = foldCells(std::move(cells), explorerOrder);
  outcome.result.config = reports.front().config;
  // The merged report is not a shard: its coverage is the union, described
  // by the merge provenance block rather than a shard slice.
  outcome.result.config.shardIndex = 0;
  outcome.result.config.shardCount = 1;

  // Cross-report aggregates with no per-cell decomposition: wall time is
  // the slowest input (shards run concurrently); steal counts just sum.
  // jobs has no meaning for a merged report and reads 0.
  outcome.result.jobs = 0;
  for (const ParsedReport& report : reports) {
    outcome.result.wallSeconds =
        std::max(outcome.result.wallSeconds, report.wallSeconds);
    outcome.result.tasksStolen += report.tasksStolen;
    for (const MergeSource& source : report.sources) {
      outcome.provenance.sources.push_back(source);
    }
  }
  std::sort(outcome.provenance.sources.begin(), outcome.provenance.sources.end(),
            [](const MergeSource& a, const MergeSource& b) {
              if (a.shardCount != b.shardCount) return a.shardCount < b.shardCount;
              if (a.shardIndex != b.shardIndex) return a.shardIndex < b.shardIndex;
              if (a.label != b.label) return a.label < b.label;
              return a.cells < b.cells;
            });
  return outcome;
}

}  // namespace lazyhb::campaign
