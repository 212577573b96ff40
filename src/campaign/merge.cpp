#include "campaign/merge.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
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
};

[[noreturn]] void raise(const std::string& label, const std::string& message) {
  throw std::runtime_error("lazyhb: " + label + ": " + message);
}

/// `object[key]` when it is an unsigned integer.
std::optional<std::uint64_t> uintMember(const support::JsonValue& object,
                                        const char* key) {
  const support::JsonValue* value = object.find(key);
  if (value == nullptr || value->type() != support::JsonValue::Type::Uint) {
    return std::nullopt;
  }
  return value->asUint();
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
                     " (lazyhb reads only version " +
                     std::to_string(kSuiteReportSchemaVersion) +
                     "; regenerate the report with `lazyhb bench`)");
  }

  const support::JsonValue* config = root->find("config");
  if (config == nullptr || !config->isObject()) {
    raise(label, "missing config block");
  }
  const auto configUint = [&](const char* key,
                              std::uint64_t max = UINT64_MAX) {
    const std::optional<std::uint64_t> value = uintMember(*config, key);
    if (!value || *value > max) {
      raise(label, std::string("config.") + key +
                       " is missing, not an unsigned integer or out of range");
    }
    return *value;
  };
  report.config.scheduleLimit = configUint("limit");
  report.config.maxEventsPerSchedule =
      static_cast<std::uint32_t>(configUint("max_events", UINT32_MAX));
  report.config.seed = configUint("seed");
  report.config.incremental = config->boolAt("incremental", true);
  report.config.workers = static_cast<int>(configUint("workers", INT_MAX));
  report.config.snapshotBudgetBytes = configUint("snapshot_budget");
  report.config.memoryModel = config->stringAt("memory_model");
  if (report.config.memoryModel.empty()) {
    raise(label, "config.memory_model is missing");
  }
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
  }

  // Provenance: a previously merged report contributes its own sources
  // (flattened — the provenance chain stays one level deep however many
  // merge rounds happened); a direct report contributes itself.
  const support::JsonValue* merge = root->find("merge");
  if (merge == nullptr) {
    MergeSource source;
    source.label = label;
    source.shardIndex = report.config.shardIndex;
    source.shardCount = report.config.shardCount;
    source.cells = report.cells.size();
    report.sources.push_back(std::move(source));
    return report;
  }
  const support::JsonValue* sources = merge->find("sources");
  if (sources == nullptr || !sources->isArray() || sources->items().empty()) {
    raise(label, "merge block without a non-empty sources list");
  }
  std::uint64_t contributed = 0;
  for (const support::JsonValue& value : sources->items()) {
    const support::JsonValue* name = value.find("label");
    const auto index = uintMember(value, "shard_index");
    const auto count = uintMember(value, "shard_count");
    const auto cellCount = uintMember(value, "cells");
    if (name == nullptr || !name->isString() || !index || !count ||
        !cellCount || *index >= *count || *count > INT_MAX) {
      raise(label, "merge.sources[" + std::to_string(report.sources.size()) +
                       "] is malformed");
    }
    MergeSource source;
    source.label = name->asString();
    source.shardIndex = static_cast<int>(*index);
    source.shardCount = static_cast<int>(*count);
    source.cells = *cellCount;
    contributed += source.cells;
    report.sources.push_back(std::move(source));
  }
  if (contributed < report.cells.size()) {
    raise(label, "merge sources contributed " + std::to_string(contributed) +
                     " cell(s) but the report carries " +
                     std::to_string(report.cells.size()));
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
/// copies of one cell: healthy beats failed; the serialized form breaks the
/// tie so merging is commutative down to the byte. Two clean copies have
/// equal contract statistics (or the merge raised CountConflict), and a
/// failed copy has zero counts, so no count needs ranking.
bool preferred(const CellResult& a, const CellResult& b) {
  if (a.failed() != b.failed()) return !a.failed();
  return serializeCell(a) <= serializeCell(b);
}

/// The first config field on which two reports differ, or nullptr. Counts
/// depend on memory_model, limit, max_events and seed by design, so no two
/// reports that differ there compare. `asOneCampaign` adds the fields a
/// merged report echoes as its single configuration.
const char* configDifference(const ParsedReport& a, const ParsedReport& b,
                             bool asOneCampaign) {
  if (a.config.memoryModel != b.config.memoryModel) return "memory_model";
  if (a.config.scheduleLimit != b.config.scheduleLimit) return "limit";
  if (a.config.maxEventsPerSchedule != b.config.maxEventsPerSchedule) {
    return "max_events";
  }
  if (a.config.seed != b.config.seed) return "seed";
  if (!asOneCampaign) return nullptr;
  if (a.config.incremental != b.config.incremental) return "incremental";
  if (a.config.workers != b.config.workers) return "workers";
  if (a.config.snapshotBudgetBytes != b.config.snapshotBudgetBytes) {
    return "snapshot_budget";
  }
  if (a.explorers != b.explorers) return "explorers";
  return nullptr;
}

/// The worker count that explored a cell: its parallel block's, unless the
/// budget forced the sequential fallback.
int cellWorkers(const CellResult& cell) {
  const explore::ParallelStats& parallel = cell.stats.parallel;
  return parallel.workers > 0 && !parallel.fellBackSequential ? parallel.workers
                                                              : 1;
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
    if (const char* field = configDifference(reports.front(), reports[i],
                                             /*asOneCampaign=*/true)) {
      throw std::runtime_error(
          "lazyhb: cannot merge '" + reports[i].label + "' with '" +
          reports.front().label + "': config." + field +
          " differs — merged counts would mix incomparable campaigns");
    }
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
      const bool bothClean = !kept.failed() && !cell.failed();
      const std::string conflicts =
          bothClean ? contractConflicts(kept.stats, cell.stats) : std::string();
      if (!conflicts.empty()) {
        throw CountConflict(
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
          checkCountingChain(cell.program, cell.stats, scheduleLimit);
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

  // Wall time has no per-cell decomposition: it is the slowest input
  // (shards run concurrently). jobs has no meaning for a merged report and
  // reads 0.
  outcome.result.jobs = 0;
  for (const ParsedReport& report : reports) {
    outcome.result.wallSeconds =
        std::max(outcome.result.wallSeconds, report.wallSeconds);
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

DiffOutcome diffReports(const std::string& baseline,
                        const std::string& candidate,
                        const std::string& baselineLabel,
                        const std::string& candidateLabel, bool allowNewCells) {
  const ParsedReport base = parseReport(baseline, baselineLabel);
  const ParsedReport cand = parseReport(candidate, candidateLabel);
  if (const char* field = configDifference(base, cand, /*asOneCampaign=*/false)) {
    throw std::runtime_error("lazyhb: cannot diff '" + cand.label +
                             "' against '" + base.label + "': config." +
                             field + " differs, and counts depend on it");
  }
  using CellKey = std::pair<std::string, std::string>;  // (program, explorer)
  const auto index = [](const ParsedReport& report) {
    std::map<CellKey, const CellResult*> cells;
    for (const CellResult& cell : report.cells) {
      if (!cells.emplace(CellKey{cell.program, cell.explorer}, &cell).second) {
        raise(report.label, "holds cell (" + cell.program + ", " +
                                cell.explorer + ") twice");
      }
    }
    return cells;
  };
  const auto baseCells = index(base);
  const auto candCells = index(cand);
  const auto name = [](const CellKey& key) {
    return key.first + " x " + key.second;
  };

  DiffOutcome diff;
  diff.memoryModel = cand.config.memoryModel;
  struct LogRatios {
    std::size_t cells = 0;
    double events = 0.0;
    double executed = 0.0;
  };
  std::map<std::pair<std::string, std::string>, LogRatios> byRow;
  LogRatios overall;
  for (const auto& [key, a] : baseCells) {
    const auto found = candCells.find(key);
    if (found == candCells.end()) {
      diff.missing.push_back(name(key));
      continue;
    }
    const CellResult* b = found->second;
    // A failed cell's explorer threw; its zero counts compare to nothing.
    if (a->failed() || b->failed()) {
      diff.skipped.push_back(name(key) + " [failed]");
      continue;
    }
    ++diff.compared;
    if (const std::string conflicts = contractConflicts(a->stats, b->stats);
        !conflicts.empty()) {
      diff.mismatches.push_back(name(key) + ": " + conflicts);
    }
    if (a->eventsPerSecond <= 0 || b->eventsPerSecond <= 0 ||
        a->executedEventsPerSecond <= 0 || b->executedEventsPerSecond <= 0) {
      continue;
    }
    const int wa = cellWorkers(*a);
    const int wb = cellWorkers(*b);
    const std::string workers =
        std::to_string(wa) + (wa == wb ? "" : "->" + std::to_string(wb));
    for (LogRatios* sums : {&byRow[{key.second, workers}], &overall}) {
      ++sums->cells;
      sums->events += std::log(b->eventsPerSecond / a->eventsPerSecond);
      sums->executed +=
          std::log(b->executedEventsPerSecond / a->executedEventsPerSecond);
    }
  }
  for (const auto& entry : candCells) {
    if (baseCells.count(entry.first) == 0) diff.extra.push_back(name(entry.first));
  }
  diff.contractHolds = diff.mismatches.empty() && diff.missing.empty() &&
                       (allowNewCells || diff.extra.empty());

  const auto rateRow = [](const std::string& explorer,
                          const std::string& workers, const LogRatios& sums) {
    const auto n = static_cast<double>(sums.cells);
    return RateRow{explorer, workers, sums.cells, std::exp(sums.events / n),
                   std::exp(sums.executed / n)};
  };
  for (const auto& [row, sums] : byRow) {
    diff.rates.push_back(rateRow(row.first, row.second, sums));
  }
  if (overall.cells > 0) diff.rates.push_back(rateRow("overall", "", overall));
  return diff;
}

}  // namespace lazyhb::campaign
