#include "campaign/report.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace lazyhb::campaign {
namespace {

void writeProgram(support::JsonWriter& json, const ProgramSummary& program) {
  json.beginObject();
  json.field("id", program.id);
  json.field("program", program.program);
  json.field("family", program.family);
  json.field("inequality_holds", program.inequalityHolds);
  if (program.hasDpor) {
    json.key("dpor").beginObject();
    json.field("hbrs", program.dporHbrs);
    json.field("lazy_hbrs", program.dporLazyHbrs);
    json.field("redundant_hbr_percent", program.redundantHbrPercent);
    json.field("below_diagonal", program.belowDiagonal);
    json.endObject();
  }
  if (program.hasCachingPair) {
    json.key("caching").beginObject();
    json.field("lazy_hbrs_by_full_caching", program.lazyHbrsByFullCaching);
    json.field("lazy_hbrs_by_lazy_caching", program.lazyHbrsByLazyCaching);
    json.field("differs", program.cachingDiffers);
    json.endObject();
  }
  if (program.hasDfsBaseline) {
    json.key("dfs_baseline").beginObject();
    json.field("schedules", program.dfsSchedules);
    json.field("dpor_schedule_ratio", program.dporScheduleRatio);
    json.field("caching_lazy_schedule_ratio", program.cachingLazyScheduleRatio);
    json.endObject();
  }
  json.endObject();
}

void writeStatRows(support::JsonWriter& json, const ExplorationStats& stats,
                   explore::StatBlock block) {
  explore::forEachStat(
      [&](const explore::StatSpec& spec, const auto& field) {
        if (spec.block == block) json.field(spec.key, field);
      },
      stats);
}

void writeExplorerTotals(support::JsonWriter& json, const ExplorerTotals& t) {
  json.beginObject();
  json.field("explorer", t.explorer);
  json.field("cells", t.cells);
  writeTopStats(json, t.stats);
  json.field("wall_seconds", t.wallSeconds);
  json.field("events_per_second", t.eventsPerSecond);
  json.field("executed_events_per_second", t.executedEventsPerSecond);
  json.field("inequality_violations",
             static_cast<std::int64_t>(t.inequalityViolations));
  writeStatBlocks(json, t.stats);
  json.endObject();
}

/// Read back the statistics writeTopStats/writeStatBlocks wrote into the
/// object `value`, each with its table type: every top-level statistic, and
/// every row of each optional block present. Returns what is wrong with the
/// first statistic that is absent or mistyped, or an empty string.
std::string readStats(const support::JsonValue& value, ExplorationStats* stats) {
  std::string error;
  explore::forEachStat(
      [&](const explore::StatSpec& spec, auto& field) {
        const char* blockName = explore::statBlockName(spec.block);
        const support::JsonValue* block =
            blockName == nullptr ? &value : value.find(blockName);
        if (block == nullptr || !error.empty()) return;
        const support::JsonValue* entry = block->find(spec.key);
        using Field = std::remove_cvref_t<decltype(field)>;
        constexpr bool isFlag = std::is_same_v<Field, bool>;
        const bool typed =
            entry != nullptr &&
            (isFlag ? entry->isBool()
                    : entry->type() == support::JsonValue::Type::Uint);
        if (!typed) {
          error = "statistic '" + explore::statPath(spec) +
                  "' is missing or not " +
                  (isFlag ? "a bool" : "an unsigned integer");
          return;
        }
        if constexpr (isFlag) {
          field = entry->asBool();
        } else {
          field = entry->asUint();
        }
      },
      *stats);
  // The cache and checkpoint blocks exist exactly when their stats are on.
  using explore::StatBlock;
  stats->cacheStats.enabled =
      value.find(explore::statBlockName(StatBlock::Cache)) != nullptr;
  stats->checkpointStats.enabled =
      value.find(explore::statBlockName(StatBlock::Checkpoint)) != nullptr;
  return error;
}

}  // namespace

void writeTopStats(support::JsonWriter& json, const ExplorationStats& stats) {
  writeStatRows(json, stats, explore::StatBlock::Top);
}

void writeStatBlocks(support::JsonWriter& json, const ExplorationStats& stats) {
  using explore::StatBlock;
  for (const StatBlock block :
       {StatBlock::Cache, StatBlock::Checkpoint, StatBlock::Tso}) {
    if (!explore::statBlockPresent(stats, block)) continue;
    json.key(explore::statBlockName(block)).beginObject();
    writeStatRows(json, stats, block);
    json.endObject();
  }
}

void writeCellJson(support::JsonWriter& json, const CellResult& cell) {
  json.beginObject();
  json.field("program_id", cell.programId);
  json.field("program", cell.program);
  json.field("family", cell.family);
  json.field("explorer", cell.explorer);
  writeTopStats(json, cell.stats);
  json.field("wall_seconds", cell.wallSeconds);
  json.field("events_per_second", cell.eventsPerSecond);
  json.field("executed_events_per_second", cell.executedEventsPerSecond);
  json.key("inequality").beginObject();
  json.field("holds", cell.inequalityHolds());
  json.field("diagnostic", cell.inequalityDiagnostic);
  json.endObject();
  // Provenance, emitted only off the defaults; the reader restores absent
  // fields to them.
  if (cell.failed()) json.field("error", cell.error);
  if (cell.fromCheckpoint) json.field("from_checkpoint", true);
  writeStatBlocks(json, cell.stats);
  if (cell.stats.parallel.workers > 0) {
    // How the cell's intra-scenario sharding distributed work. All *count*
    // fields above are byte-identical to a sequential run; this block
    // carries only the parallel-only diagnostics.
    const explore::ParallelStats& par = cell.stats.parallel;
    json.key("parallel").beginObject();
    json.field("workers", static_cast<std::int64_t>(par.workers));
    json.field("frontier_jobs", par.frontierJobs);
    json.field("fell_back_sequential", par.fellBackSequential);
    json.key("by_worker").beginArray();
    for (const explore::WorkerShare& share : par.byWorker) {
      json.beginObject();
      json.field("schedules_visited", share.schedulesVisited);
      json.field("tasks_stolen", share.tasksStolen);
      json.endObject();
    }
    json.endArray();
    json.endObject();
  }
  json.endObject();
}

bool parseCellJson(const support::JsonValue& value, CellResult* cell,
                   std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!value.isObject()) return fail("cell is not an object");
  for (const char* key : {"program_id", "program", "family", "explorer"}) {
    if (!value.has(key)) {
      return fail(std::string("cell is missing '") + key + "'");
    }
  }

  *cell = CellResult{};
  cell->programId = static_cast<int>(value.intAt("program_id"));
  cell->program = value.stringAt("program");
  cell->family = value.stringAt("family");
  cell->explorer = value.stringAt("explorer");
  if (cell->program.empty() || cell->explorer.empty()) {
    return fail("cell has an empty program or explorer name");
  }
  if (const std::string bad = readStats(value, &cell->stats); !bad.empty()) {
    return fail("cell (" + cell->program + ", " + cell->explorer + "): " + bad);
  }
  cell->wallSeconds = value.doubleAt("wall_seconds");
  cell->eventsPerSecond = value.doubleAt("events_per_second");
  cell->executedEventsPerSecond = value.doubleAt("executed_events_per_second");
  if (const support::JsonValue* inequality = value.find("inequality")) {
    cell->inequalityDiagnostic = inequality->stringAt("diagnostic");
  }
  cell->error = value.stringAt("error");
  cell->fromCheckpoint = value.boolAt("from_checkpoint");
  if (const support::JsonValue* parallel = value.find("parallel")) {
    cell->stats.parallel.workers = static_cast<int>(parallel->intAt("workers"));
    cell->stats.parallel.frontierJobs = parallel->uintAt("frontier_jobs");
    cell->stats.parallel.fellBackSequential =
        parallel->boolAt("fell_back_sequential");
    if (const support::JsonValue* byWorker = parallel->find("by_worker")) {
      for (const support::JsonValue& share : byWorker->items()) {
        explore::WorkerShare ws;
        ws.schedulesVisited = share.uintAt("schedules_visited");
        ws.tasksStolen = share.uintAt("tasks_stolen");
        cell->stats.parallel.byWorker.push_back(ws);
      }
    }
  }
  return true;
}

std::string writeReportJson(const CampaignResult& result,
                            const MergeProvenance* provenance) {
  const CampaignConfig& config = result.config;
  support::JsonWriter json;
  json.beginObject();
  json.field("schema", kSuiteReportSchemaName);
  json.field("version", kSuiteReportSchemaVersion);

  json.key("config").beginObject();
  json.field("limit", config.scheduleLimit);
  json.field("max_events", static_cast<std::uint64_t>(config.maxEventsPerSchedule));
  json.field("seed", config.seed);
  json.field("jobs", result.jobs);
  json.field("workers", static_cast<std::int64_t>(config.workers));
  json.field("incremental", config.incremental);
  json.field("snapshot_budget", config.snapshotBudgetBytes);
  json.field("memory_model", config.memoryModel);
  if (config.shardCount > 1) {
    json.key("shard").beginObject();
    json.field("index", static_cast<std::int64_t>(config.shardIndex));
    json.field("count", static_cast<std::int64_t>(config.shardCount));
    json.endObject();
  }
  json.key("explorers").beginArray();
  for (const ExplorerTotals& totals : result.perExplorer) {
    json.value(totals.explorer);
  }
  json.endArray();
  json.field("program_count", static_cast<std::uint64_t>(result.programs.size()));
  json.endObject();

  if (provenance != nullptr && !provenance->sources.empty()) {
    json.key("merge").beginObject();
    json.key("sources").beginArray();
    for (const MergeSource& source : provenance->sources) {
      json.beginObject();
      json.field("label", source.label);
      json.field("shard_index", static_cast<std::int64_t>(source.shardIndex));
      json.field("shard_count", static_cast<std::int64_t>(source.shardCount));
      json.field("cells", source.cells);
      json.endObject();
    }
    json.endArray();
    json.endObject();
  }

  json.key("totals").beginObject();
  json.field("cells", static_cast<std::uint64_t>(result.cells.size()));
  writeTopStats(json, result.totals);
  json.field("wall_seconds", result.wallSeconds);
  json.field("cpu_seconds", result.cpuSeconds);
  json.field("events_per_second", result.eventsPerSecond);
  json.field("executed_events_per_second", result.executedEventsPerSecond);
  json.field("inequality_violations",
             static_cast<std::int64_t>(result.inequalityViolations));
  // Failure and durability tallies, off-default only, as per cell.
  if (result.cellsFailed > 0) {
    json.field("cells_failed", static_cast<std::int64_t>(result.cellsFailed));
  }
  if (result.cellsFromCheckpoint > 0) {
    json.field("cells_from_checkpoint",
               static_cast<std::uint64_t>(result.cellsFromCheckpoint));
  }
  writeStatBlocks(json, result.totals);
  json.key("per_explorer").beginArray();
  for (const ExplorerTotals& totals : result.perExplorer) {
    writeExplorerTotals(json, totals);
  }
  json.endArray();
  json.endObject();

  json.key("programs").beginArray();
  for (const ProgramSummary& program : result.programs) {
    writeProgram(json, program);
  }
  json.endArray();

  json.key("cells").beginArray();
  for (const CellResult& cell : result.cells) {
    writeCellJson(json, cell);
  }
  json.endArray();

  json.endObject();
  return json.str() + "\n";
}

bool writeFile(const std::string& path, const std::string& document) {
  if (path == "-") {
    std::fputs(document.c_str(), stdout);
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "lazyhb: cannot write '%s'\n", path.c_str());
    return false;
  }
  bool ok =
      std::fwrite(document.data(), 1, document.size(), file) == document.size();
  // fclose flushes the stdio buffer; a full disk surfaces here, not in fwrite.
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::fprintf(stderr, "lazyhb: short write to '%s'\n", path.c_str());
  }
  return ok;
}

std::string readFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("lazyhb: cannot read '" + path +
                             "': " + std::strerror(errno));
  }
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) throw std::runtime_error("lazyhb: read error on '" + path + "'");
  return content;
}

}  // namespace lazyhb::campaign
