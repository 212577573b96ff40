#include "cli/cli.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/merge.hpp"
#include "campaign/report.hpp"
#include "explore/explorer.hpp"
#include "lazyhb/lazyhb.hpp"
#include "memory/memory_model.hpp"
#include "programs/registry.hpp"
#include "support/json_writer.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/worker_pool.hpp"

namespace lazyhb::cli {
namespace {

// merge and diff share these: 1 when the count contract is broken (a
// conflicting duplicate, or a missing or extra cell; for merge also a §3
// violation or a theorem conflict), 2 when an input is not a readable v12
// report or cannot be combined with the others, 3 when the output cannot
// be written.
constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;  ///< correct arguments, but a file could not be written

void printTopLevelUsage() {
  std::printf(
      "lazyhb — systematic concurrency testing with the lazy happens-before "
      "relation\n"
      "\n"
      "Usage: lazyhb <command> [options]\n"
      "\n"
      "Commands:\n"
      "  list      print the registered program corpus\n"
      "  explore   run one program under one explorer and report stats\n"
      "  compare   run one program under all six explorers, one row each\n"
      "  bench     run the (program x explorer) campaign matrix in parallel\n"
      "            and emit a machine-readable JSON report (checkpointable\n"
      "            with --checkpoint/--resume, divisible with --shard i/N)\n"
      "  merge     merge shard/resume bench reports into one report with\n"
      "            recomputed totals\n"
      "  diff      hold a bench report to a baseline's counts, cell by cell\n"
      "  replay    re-execute a recorded schedule and render its trace\n"
      "\n"
      "Run `lazyhb <command> --help` for the command's options.\n"
      "Explorer modes: %s\n",
      campaign::explorerNamesHelp().c_str());
}

/// Look up --program, printing candidates on failure.
const programs::ProgramSpec* resolveProgram(const std::string& name) {
  if (name.empty()) {
    std::fprintf(stderr, "lazyhb: --program is required (try `lazyhb list`)\n");
    return nullptr;
  }
  const programs::ProgramSpec* spec = programs::byName(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "lazyhb: unknown program '%s' (try `lazyhb list`)\n",
                 name.c_str());
  }
  return spec;
}

/// Parse the --incremental on|off toggle into *enabled. Prints a usage
/// error and returns false for anything else.
bool parseIncremental(const support::Options& options, bool* enabled) {
  const std::string value = options.getString("incremental");
  if (value == "on") {
    *enabled = true;
    return true;
  }
  if (value == "off") {
    *enabled = false;
    return true;
  }
  std::fprintf(stderr, "lazyhb: --incremental expects 'on' or 'off', got '%s'\n",
               value.c_str());
  return false;
}

// The accepted ranges of the integer flags: a schedule budget or seed fits
// 63 bits, an event cap 32, and a thread count the bound on the threads one
// command may start.
constexpr std::int64_t kMaxCount = INT64_MAX;
constexpr std::int64_t kMaxEvents = UINT32_MAX;
constexpr std::int64_t kMaxThreadCount = support::kMaxWorkerThreads;

void addMaxEventsFlag(support::Options& options) {
  options.addInt("max-events", 65536, "per-schedule event budget", 0, kMaxEvents);
}

/// The --snapshot-budget byte count: -1 (the flag default) keeps the engine
/// default (LAZYHB_SNAPSHOT_BUDGET or 256 MiB); 0 means unlimited.
std::uint64_t snapshotBudgetFrom(const support::Options& options) {
  const std::int64_t value = options.getInt("snapshot-budget");
  return value < 0 ? explore::defaultSnapshotBudgetBytes()
                   : static_cast<std::uint64_t>(value);
}

void addMemoryModelFlag(support::Options& options) {
  options.addString("memory-model", "sc",
                    "memory model to explore under: sc | tso (tso buffers "
                    "writes per thread and adds scheduler-visible flush "
                    "transitions; see docs/memory-models.md)");
}

/// Validate --memory-model into *name. Prints a usage error listing the
/// valid set and returns false for anything else.
bool parseMemoryModelFlag(const support::Options& options, std::string* name) {
  const std::string value = options.getString("memory-model");
  if (!memory::parseMemoryModel(value)) {
    std::fprintf(stderr, "lazyhb: unknown memory model '%s' (expected %s)\n",
                 value.c_str(), memory::memoryModelNamesHelp());
    return false;
  }
  *name = value;
  return true;
}

void addSnapshotBudgetFlag(support::Options& options) {
  options.addInt("snapshot-budget", -1,
                 "byte budget for staged rollback snapshots (0: unlimited; "
                 "default: LAZYHB_SNAPSHOT_BUDGET or 256 MiB); over budget, "
                 "the checkpoint furthest from the search frontier is "
                 "evicted — counts stay byte-identical at any budget",
                 -1, kMaxCount);
}

/// Build a Session from the shared explorer flags (strategy is set by the
/// caller). Returns false after printing a usage error.
bool sessionFrom(const support::Options& options, Session* session) {
  bool incremental = true;
  if (!parseIncremental(options, &incremental)) return false;
  std::string memoryModel;
  if (!parseMemoryModelFlag(options, &memoryModel)) return false;
  session->schedules(static_cast<std::uint64_t>(options.getInt("limit")))
      .maxEventsPerSchedule(static_cast<std::uint32_t>(options.getInt("max-events")))
      .seed(static_cast<std::uint64_t>(options.getInt("seed")))
      .memoryModel(memoryModel)
      .detectRaces(options.getFlag("races"))
      .stopOnFirstViolation(options.getFlag("stop-on-violation"))
      .incremental(incremental)
      .workers(static_cast<int>(options.getInt("workers")))
      .snapshotBudget(snapshotBudgetFrom(options));
  return true;
}

void addExplorerFlags(support::Options& options) {
  options.addInt("limit", 10000, "schedule budget (paper: 100000)", 0, kMaxCount);
  addMaxEventsFlag(options);
  options.addInt("seed", 42, "random explorer seed", 0, kMaxCount);
  options.addString("incremental", "on",
                    "incremental prefix replay (checkpoint/rollback): on | off");
  options.addInt("workers", 1,
                 "shard the schedule tree across this many threads "
                 "(dfs/caching-* only; counts stay byte-identical)",
                 1, kMaxThreadCount);
  addMemoryModelFlag(options);
  addSnapshotBudgetFlag(options);
  options.addFlag("races", "run the sync-HB data-race detector");
  options.addFlag("stop-on-violation", "stop at the first violation");
}

void printViolations(std::FILE* out, const TestReport& report) {
  for (const TestViolation& v : report.violations) {
    std::string schedule;
    for (std::size_t i = 0; i < v.schedule.size(); ++i) {
      if (i > 0) schedule += ",";
      schedule += std::to_string(v.schedule[i]);
    }
    std::fprintf(out, "violation [%s] %s\n  schedule: %s\n", v.kind.c_str(),
                 v.message.c_str(), schedule.c_str());
  }
}

void printRaces(std::FILE* out, const TestReport& report) {
  for (const TestRace& race : report.races) {
    std::fprintf(out, "race on %s (events %d and %d)\n", race.object.c_str(),
                 race.firstEvent, race.secondEvent);
  }
}

void addResultRow(support::Table& table, const std::string& label,
                  const TestReport& report) {
  table.beginRow();
  table.cell(label);
  table.cell(report.schedulesExecuted);
  table.cell(report.terminalSchedules);
  table.cell(report.prunedSchedules);
  table.cell(report.violationSchedules);
  table.cell(report.distinctHbrs);
  table.cell(report.distinctLazyHbrs);
  table.cell(report.distinctValueClasses);
  table.cell(report.distinctStates);
  table.cell(std::string(report.complete ? "yes" : report.hitScheduleLimit ? "limit" : "no"));
}

/// "<n> HBR, <n> lazy-HBR and <n> value-class conflict(s)": the classes
/// that reached two or more terminal states, which Theorems 2.1/2.2 and
/// value soundness say never happens.
std::string conflictCounts(const ExplorationStats& stats) {
  return support::withCommas(stats.hbrConflicts) + " HBR, " +
         support::withCommas(stats.lazyHbrConflicts) + " lazy-HBR and " +
         support::withCommas(stats.valueConflicts) + " value-class conflict(s)";
}

bool conflictFree(const ExplorationStats& stats) {
  return stats.hbrConflicts == 0 && stats.lazyHbrConflicts == 0 &&
         stats.valueConflicts == 0;
}

/// The theorems line `bench` and `merge` print after the section-3 one,
/// naming every cell with a conflict. Returns whether there is none.
bool printTheoremLine(std::FILE* out, const campaign::CampaignResult& result) {
  if (conflictFree(result.totals)) {
    std::fprintf(out,
                 "theorems 2.1/2.2 and value soundness (one terminal state per "
                 "HBR, lazy HBR and value class): hold on all %zu cells\n",
                 result.cells.size());
    return true;
  }
  std::fprintf(out, "theorems 2.1/2.2 and value soundness: VIOLATED, %s:\n",
               conflictCounts(result.totals).c_str());
  for (const campaign::CellResult& cell : result.cells) {
    if (!conflictFree(cell.stats)) {
      std::fprintf(out, "  %s x %s: %s\n", cell.program.c_str(),
                   cell.explorer.c_str(), conflictCounts(cell.stats).c_str());
    }
  }
  return false;
}

std::vector<std::string> resultHeaders() {
  return {"explorer", "schedules",     "terminal", "pruned",
          "violations", "hbrs",        "lazy-hbrs", "value-classes",
          "states",   "complete"};
}

// --- list --------------------------------------------------------------------

int cmdList(int argc, char** argv) {
  support::Options options("lazyhb list", "print the registered program corpus");
  options.addString("family", "", "only programs of this family");
  options.addFlag("buggy", "only programs with a known reachable bug");
  options.addFlag("csv", "emit CSV instead of an aligned table");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const std::string family = options.getString("family");
  support::Table table({"id", "name", "family", "bug", "description"});
  for (const programs::ProgramSpec& spec : programs::all()) {
    if (!family.empty() && spec.family != family) continue;
    if (options.getFlag("buggy") && !spec.hasKnownBug) continue;
    table.beginRow();
    table.cell(static_cast<std::int64_t>(spec.id));
    table.cell(spec.name);
    table.cell(spec.family);
    table.cell(std::string(spec.hasKnownBug ? "yes" : ""));
    table.cell(spec.description);
  }
  std::fputs((options.getFlag("csv") ? table.toCsv() : table.toText()).c_str(),
             stdout);
  std::printf("%zu program(s)\n", table.rowCount());
  return kExitOk;
}

// --- explore -----------------------------------------------------------------

int cmdExplore(int argc, char** argv) {
  support::Options options("lazyhb explore",
                           "run one program under one explorer and report stats");
  options.addString("program", "", "program name (see `lazyhb list`)");
  options.addString("explorer", "dfs",
                    "dfs | random | dpor | caching-full | caching-lazy "
                    "(also the extended caching-value)");
  addExplorerFlags(options);
  options.addString("out", "",
                    "write the lazyhb-test-report JSON to this path ('-': "
                    "stdout; empty: no report file)");
  options.addFlag("fail-on-violation", "exit 1 if any violation was found");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const programs::ProgramSpec* spec = resolveProgram(options.getString("program"));
  if (spec == nullptr) return kExitUsage;

  const std::string mode = options.getString("explorer");
  if (!campaign::parseExplorerSpec(mode)) {
    std::fprintf(stderr, "lazyhb: unknown explorer '%s' (expected %s)\n",
                 mode.c_str(), campaign::explorerNamesHelp(true).c_str());
    return kExitUsage;
  }
  Session session;
  if (!sessionFrom(options, &session)) return kExitUsage;
  const TestReport report = session.strategy(mode).run(spec->name);

  // With `--out -` stdout carries the JSON document alone (so it pipes into
  // a parser); the human-readable rendering moves to stderr.
  const std::string out = options.getString("out");
  std::FILE* human = out == "-" ? stderr : stdout;
  std::fprintf(human, "program %s (%s): %s\n", spec->name.c_str(),
               spec->family.c_str(), spec->description.c_str());
  support::Table table(resultHeaders());
  addResultRow(table, mode, report);
  std::fputs(table.toText().c_str(), human);
  std::fprintf(human, "total events: %s (%s elided, %s replayed)\n",
               support::withCommas(report.totalEvents).c_str(),
               support::withCommas(report.eventsElided).c_str(),
               support::withCommas(report.eventsReplayed).c_str());
  std::fprintf(human, "theorems 2.1/2.2 and value soundness: %s\n",
               conflictCounts(report).c_str());
  printViolations(human, report);
  printRaces(human, report);
  if (!out.empty()) {
    if (!campaign::writeFile(out, report.toJson())) return kExitIo;
    if (out != "-") std::printf("report: %s\n", out.c_str());
  }
  if (options.getFlag("fail-on-violation") && report.foundViolation()) {
    return kExitViolation;
  }
  return kExitOk;
}

// --- compare -----------------------------------------------------------------

int cmdCompare(int argc, char** argv) {
  support::Options options(
      "lazyhb compare", "run one program under all six explorers, one row each");
  options.addString("program", "", "program name (see `lazyhb list`)");
  addExplorerFlags(options);
  options.addFlag("csv", "emit CSV instead of an aligned table");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const programs::ProgramSpec* spec = resolveProgram(options.getString("program"));
  if (spec == nullptr) return kExitUsage;

  Session session;
  if (!sessionFrom(options, &session)) return kExitUsage;

  std::printf("program %s (%s): %s\n", spec->name.c_str(), spec->family.c_str(),
              spec->description.c_str());
  support::Table table(resultHeaders());
  std::vector<campaign::ExplorerSpec> modes = campaign::allExplorers();
  modes.push_back(*campaign::parseExplorerSpec("caching-value"));
  for (const campaign::ExplorerSpec& mode : modes) {
    const TestReport report = session.strategy(mode.name).run(spec->name);
    addResultRow(table, mode.name, report);
  }
  std::fputs((options.getFlag("csv") ? table.toCsv() : table.toText()).c_str(),
             stdout);
  return kExitOk;
}

// --- bench -------------------------------------------------------------------

/// Resolve the --programs selector: a comma-separated list where each token
/// is a program name or a family name. Empty selects the whole corpus.
/// Returns false with *badToken set when a token matches nothing.
bool selectPrograms(const std::string& csv,
                    std::vector<const programs::ProgramSpec*>& out,
                    std::string* badToken) {
  if (csv.empty()) return true;  // campaign default: full corpus
  return programs::selectByTokens(support::splitCsv(csv), out, badToken);
}

/// Parse the --shard selector "i/N" (1-based, e.g. "2/3") into the 0-based
/// campaign fields. Returns false after printing a usage error.
bool parseShard(const std::string& text, int* index, int* count) {
  const auto bad = [&] {
    std::fprintf(stderr,
                 "lazyhb: --shard expects 'i/N' with 1 <= i <= N (e.g. 2/3), "
                 "got '%s'\n",
                 text.c_str());
    return false;
  };
  // from_chars over each whole half, as for every integer flag
  // (support::Options): an empty half, a space, a '+' or a suffix fails,
  // and a '-' fails the range test.
  const auto whole = [](std::string_view half, int* value) {
    const char* end = half.data() + half.size();
    const auto [stop, error] = std::from_chars(half.data(), end, *value);
    return error == std::errc{} && stop == end;
  };
  const std::string_view spec = text;
  const std::size_t slash = spec.find('/');
  int i = 0;
  int n = 0;
  if (slash == std::string_view::npos || !whole(spec.substr(0, slash), &i) ||
      !whole(spec.substr(slash + 1), &n) || n < 1 || i < 1 || i > n) {
    return bad();
  }
  *index = i - 1;
  *count = n;
  return true;
}

/// One --progress-json line per event: a machine-readable single-line JSON
/// object on `out`, flushed immediately so a consumer can stream it.
void printProgressJson(std::FILE* out, const ProgressEvent& event) {
  support::JsonWriter json;
  json.beginObject();
  json.field("event", progressKindName(event.kind));
  if (!event.scenario.empty()) json.field("program", event.scenario);
  if (!event.strategy.empty()) json.field("explorer", event.strategy);
  json.field("schedules", event.schedulesExecuted);
  json.field("cells_done", static_cast<std::uint64_t>(event.cellsDone));
  json.field("cells_total", static_cast<std::uint64_t>(event.cellsTotal));
  json.field("wall_seconds", event.wallSeconds);
  if (event.fromCheckpoint) json.field("from_checkpoint", true);
  json.endObject();
  // The writer pretty-prints; progress consumers want one line per event.
  std::string line = json.str();
  std::string flat;
  flat.reserve(line.size());
  for (const char c : line) {
    if (c == '\n') continue;
    flat += c;
  }
  std::fprintf(out, "%s\n", flat.c_str());
  std::fflush(out);
}

void printProgressHuman(std::FILE* out, const ProgressEvent& event) {
  switch (event.kind) {
    case ProgressEvent::Kind::CellFinished:
      std::fprintf(out, "[%zu/%zu] %s x %s: %llu schedules, %.3fs%s\n",
                   event.cellsDone, event.cellsTotal, event.scenario.c_str(),
                   event.strategy.c_str(),
                   static_cast<unsigned long long>(event.schedulesExecuted),
                   event.wallSeconds,
                   event.fromCheckpoint ? " (from checkpoint)" : "");
      break;
    case ProgressEvent::Kind::CellFailed:
      std::fprintf(out, "FAILED %s x %s after %.3fs\n", event.scenario.c_str(),
                   event.strategy.c_str(), event.wallSeconds);
      break;
    default:
      return;  // CellStarted/ScheduleTick/CampaignFinished stay quiet
  }
  std::fflush(out);
}

/// The paper's Figure 2 and Figure 3 summaries, each printed only when the
/// campaign ran the explorers it folds, with the paper's numbers alongside.
void printFigureLines(std::FILE* out,
                      const std::vector<campaign::ProgramSummary>& programs) {
  const campaign::Figure2Summary fig2 = campaign::foldFigure2(programs);
  if (fig2.benchmarks > 0) {
    std::fprintf(out,
                 "figure 2 (dpor): %d/%d programs below the diagonal; %s of "
                 "their %s unique HBRs are redundant (%.0f%%) [paper: 33/79, "
                 "910,007 = 80%%]\n",
                 fig2.belowDiagonal, fig2.benchmarks,
                 support::withCommas(fig2.redundantHbrs).c_str(),
                 support::withCommas(fig2.hbrsBelow).c_str(),
                 fig2.redundantPercent);
  }
  const campaign::Figure3Summary fig3 = campaign::foldFigure3(programs);
  if (fig3.benchmarks > 0) {
    std::fprintf(out,
                 "figure 3 (caching-full vs caching-lazy): %d/%d programs "
                 "differ; lazy caching reached %s (%.0f%%) more terminal lazy "
                 "HBRs on them; regular caching won on %d [paper: 18/79, "
                 "8,969 = 84%%]\n",
                 fig3.differing, fig3.benchmarks,
                 support::withCommas(fig3.extraLazyHbrs).c_str(),
                 fig3.extraPercent, fig3.regularWon);
  }
}

int cmdBench(int argc, char** argv) {
  support::Options options(
      "lazyhb bench",
      "run the (program x explorer) campaign matrix in parallel, check the "
      "section-3 chain and Theorems 2.1/2.2 and value soundness on every "
      "cell, print the paper's Figure 2 (with dpor) and Figure 3 (with "
      "caching-full and caching-lazy) summaries, and emit a machine-readable "
      "JSON report");
  options.addString("explorers", "",
                    "comma-separated explorer modes (default: all of " +
                        campaign::explorerNamesHelp() + ")");
  options.addString("programs", "",
                    "comma-separated program or family names (default: the "
                    "full corpus)");
  options.addInt("jobs", 0,
                 "worker threads (0: one per hardware thread); --jobs x "
                 "--workers may not exceed 256",
                 0, kMaxThreadCount);
  options.addInt("workers", 1,
                 "intra-cell worker threads sharding each scenario's schedule "
                 "tree (dfs/caching-* only; counts stay byte-identical)",
                 1, kMaxThreadCount);
  options.addInt("limit", 10000, "schedule budget per cell (paper: 100000)", 0,
                 kMaxCount);
  addMaxEventsFlag(options);
  options.addInt("seed", 42, "random explorer seed (same in every cell)", 0,
                 kMaxCount);
  options.addString("incremental", "on",
                    "incremental prefix replay (checkpoint/rollback): on | off");
  addMemoryModelFlag(options);
  addSnapshotBudgetFlag(options);
  options.addString("out", "",
                    "write the JSON report to this path ('-': stdout, and "
                    "every other line goes to stderr; empty: no report file)");
  options.addFlag("quick",
                  "CI preset: cap the schedule budget at 200 (an explicit "
                  "--limit wins)");
  options.addFlag("paper",
                  "nightly preset: the paper's 100000-schedule budget (an "
                  "explicit --limit wins)");
  options.addString("shard", "",
                    "run only slice i of N ('i/N', 1-based round-robin over "
                    "the cell matrix); merge slices with `lazyhb merge`");
  options.addString("checkpoint", "",
                    "journal finished cells into this directory; rerunning "
                    "with the same flags resumes from it");
  options.addString("resume", "",
                    "like --checkpoint, but require an existing journal in "
                    "the directory (error when there is nothing to resume)");
  options.addFlag("progress", "print one line per finished cell");
  options.addFlag("progress-json",
                  "stream one machine-readable JSON line per campaign event");
  options.addFlag("csv", "print the per-cell table as CSV");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  std::string bad;
  const auto explorers =
      campaign::parseExplorerList(options.getString("explorers"), &bad);
  if (!explorers) {
    std::fprintf(stderr, "lazyhb: unknown explorer '%s' (expected %s)\n",
                 bad.c_str(), campaign::explorerNamesHelp(true).c_str());
    return kExitUsage;
  }

  campaign::CampaignOptions campaignOptions;
  campaignOptions.explorers = *explorers;
  if (!selectPrograms(options.getString("programs"), campaignOptions.programs,
                      &bad)) {
    std::fprintf(stderr,
                 "lazyhb: '%s' names no program or family (try `lazyhb list`)\n",
                 bad.c_str());
    return kExitUsage;
  }

  const bool quick = options.getFlag("quick");
  const bool paper = options.getFlag("paper");
  if (quick && paper) {
    std::fprintf(stderr, "lazyhb: --quick and --paper are mutually exclusive\n");
    return kExitUsage;
  }
  std::uint64_t limit = static_cast<std::uint64_t>(options.getInt("limit"));
  if (quick && !options.wasSet("limit")) limit = 200;
  if (paper && !options.wasSet("limit")) limit = 100'000;
  campaignOptions.explorer.scheduleLimit = limit;
  if (!parseIncremental(options, &campaignOptions.explorer.incremental)) {
    return kExitUsage;
  }
  campaignOptions.explorer.maxEventsPerSchedule =
      static_cast<std::uint32_t>(options.getInt("max-events"));
  campaignOptions.explorer.workers = static_cast<int>(options.getInt("workers"));
  std::string memoryModel;
  if (!parseMemoryModelFlag(options, &memoryModel)) return kExitUsage;
  campaignOptions.explorer.memoryModel = *memory::parseMemoryModel(memoryModel);
  campaignOptions.explorer.snapshotBudgetBytes = snapshotBudgetFrom(options);
  campaignOptions.seed = static_cast<std::uint64_t>(options.getInt("seed"));
  campaignOptions.jobs = static_cast<int>(options.getInt("jobs"));

  if (!options.getString("shard").empty() &&
      !parseShard(options.getString("shard"), &campaignOptions.shardIndex,
                  &campaignOptions.shardCount)) {
    return kExitUsage;
  }
  const std::string checkpointDir = options.getString("checkpoint");
  const std::string resumeDir = options.getString("resume");
  if (!checkpointDir.empty() && !resumeDir.empty()) {
    std::fprintf(stderr,
                 "lazyhb: --checkpoint and --resume are mutually exclusive "
                 "(--resume implies the journal directory)\n");
    return kExitUsage;
  }
  campaignOptions.checkpointDir = resumeDir.empty() ? checkpointDir : resumeDir;
  campaignOptions.requireExistingJournal = !resumeDir.empty();

  if (options.getFlag("progress") && options.getFlag("progress-json")) {
    std::fprintf(stderr,
                 "lazyhb: --progress and --progress-json are mutually "
                 "exclusive\n");
    return kExitUsage;
  }
  // With `--out -` stdout carries the report document alone (so it pipes
  // into a parser); every other line moves to stderr.
  const std::string out = options.getString("out");
  std::FILE* human = out == "-" ? stderr : stdout;
  if (options.getFlag("progress-json")) {
    campaignOptions.onProgress = [human](const ProgressEvent& event) {
      printProgressJson(human, event);
    };
  } else if (options.getFlag("progress")) {
    campaignOptions.onProgress = [human](const ProgressEvent& event) {
      printProgressHuman(human, event);
    };
  }

  campaign::CampaignResult result;
  try {
    result = campaign::runCampaign(campaignOptions);
  } catch (const std::exception& error) {
    // Journal mismatch / nothing to resume / bad shard spec / more threads
    // than the bound.
    std::fprintf(stderr, "%s\n", error.what());
    return kExitUsage;
  }

  support::Table table({"explorer", "cells", "schedules", "terminal", "pruned",
                        "violations", "hbrs", "lazy-hbrs", "value-classes",
                        "states", "cache-entries", "cache-MB", "wall-s"});
  for (const campaign::ExplorerTotals& t : result.perExplorer) {
    table.beginRow();
    table.cell(t.explorer);
    table.cell(t.cells);
    table.cell(t.stats.schedulesExecuted);
    table.cell(t.stats.terminalSchedules);
    table.cell(t.stats.prunedSchedules);
    table.cell(t.stats.violationSchedules);
    table.cell(t.stats.distinctHbrs);
    table.cell(t.stats.distinctLazyHbrs);
    table.cell(t.stats.distinctValueClasses);
    table.cell(t.stats.distinctStates);
    table.cell(t.stats.cacheStats.entries);
    table.cell(static_cast<double>(t.stats.cacheStats.approxBytes) / (1024.0 * 1024.0));
    table.cell(t.wallSeconds);
  }
  std::fprintf(human,
               "campaign: %zu programs x %zu explorers = %zu cells, %d job(s)\n",
               result.programs.size(), result.perExplorer.size(),
               result.cells.size(), result.jobs);
  if (result.config.shardCount > 1) {
    std::fprintf(human,
                 "shard %d/%d: this report covers only its slice of the "
                 "matrix; merge slices with `lazyhb merge`\n",
                 result.config.shardIndex + 1, result.config.shardCount);
  }
  if (result.cellsFromCheckpoint > 0 || result.cellsFailed > 0) {
    std::fprintf(human, "cells: %zu from checkpoint, %d failed\n",
                 result.cellsFromCheckpoint, result.cellsFailed);
  }
  std::fputs(table.toText().c_str(), human);
  if (options.getFlag("csv")) {
    // One column per statistic of the table, after the cell's identity.
    std::vector<std::string> headers = {"program_id", "program", "family",
                                        "explorer"};
    const ExplorationStats none;
    explore::forEachStat(
        [&](const explore::StatSpec& spec, const auto&) {
          headers.push_back(explore::statPath(spec));
        },
        none);
    headers.push_back("wall_seconds");
    support::Table cells(headers);
    for (const campaign::CellResult& cell : result.cells) {
      cells.beginRow();
      cells.cell(static_cast<std::int64_t>(cell.programId));
      cells.cell(cell.program);
      cells.cell(cell.family);
      cells.cell(cell.explorer);
      explore::forEachStat(
          [&](const explore::StatSpec&, const auto& field) {
            cells.cell(static_cast<std::uint64_t>(field));
          },
          cell.stats);
      cells.cell(cell.wallSeconds, 4);
    }
    std::fputs("\n--- CSV ---\n", human);
    std::fputs(cells.toCsv().c_str(), human);
  }
  const ExplorationStats& totals = result.totals;
  std::fprintf(human,
               "totals: %s schedules, %s events (%s elided, %s replayed), "
               "%.2fs wall (%.2fs cpu), %.1fx parallel speedup\n",
               support::withCommas(totals.schedulesExecuted).c_str(),
               support::withCommas(totals.totalEvents).c_str(),
               support::withCommas(totals.eventsElided).c_str(),
               support::withCommas(totals.eventsReplayed).c_str(),
               result.wallSeconds, result.cpuSeconds,
               result.wallSeconds > 0.0 ? result.cpuSeconds / result.wallSeconds
                                        : 0.0);
  if (result.inequalityViolations == 0) {
    std::fprintf(human,
                 "section-3 inequality (#states <= #valueClasses <= #lazyHBRs "
                 "<= #HBRs <= #schedules): holds on all %zu cells\n",
                 result.cells.size());
  } else {
    std::fprintf(human, "section-3 inequality: VIOLATED on %d cell(s):\n",
                 result.inequalityViolations);
    for (const campaign::CellResult& cell : result.cells) {
      if (!cell.inequalityHolds()) {
        std::fprintf(human, "  %s x %s: %s\n", cell.program.c_str(),
                     cell.explorer.c_str(), cell.inequalityDiagnostic.c_str());
      }
    }
  }
  const bool theoremsHold = printTheoremLine(human, result);
  printFigureLines(human, result.programs);

  if (!out.empty()) {
    if (!campaign::writeFile(out, campaign::writeReportJson(result))) {
      return kExitIo;
    }
    if (out != "-") std::printf("report: %s\n", out.c_str());
  }
  return result.inequalityViolations == 0 && theoremsHold ? kExitOk
                                                          : kExitViolation;
}

// --- merge and diff ----------------------------------------------------------

int cmdMerge(int argc, char** argv) {
  support::Options options(
      "lazyhb merge [report.json ...]",
      "merge shard/resume bench reports into one report: "
      "disjoint cells union, identical duplicates dedupe, totals and the "
      "section-3 check are recomputed from the merged cells; conflicting "
      "duplicate counts are a hard error, and so is a section-3 violation "
      "or a theorem conflict in any cell (exit 1)");
  options.addString("out", "-",
                    "write the merged report to this path ('-': stdout)");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const std::vector<std::string>& paths = options.positional();
  if (paths.empty()) {
    std::fprintf(stderr,
                 "lazyhb: nothing to merge — pass report files as positional "
                 "arguments\n");
    return kExitUsage;
  }

  campaign::MergeOutcome merged;
  try {
    std::vector<std::string> documents;
    for (const std::string& path : paths) {
      documents.push_back(campaign::readFile(path));
    }
    merged = campaign::mergeReports(documents, paths);
  } catch (const campaign::CountConflict& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return kExitViolation;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return kExitUsage;
  }

  const std::string out = options.getString("out");
  if (!campaign::writeFile(
          out, campaign::writeReportJson(merged.result, &merged.provenance))) {
    return kExitIo;
  }
  // With `--out -` stdout carries the merged document alone, and the
  // verdicts move to stderr.
  std::FILE* human = out == "-" ? stderr : stdout;
  std::fprintf(human,
               "merged %zu report(s) -> %s: %zu cell(s), %zu program(s); "
               "section-3 inequality %s\n",
               paths.size(), out.c_str(), merged.result.cells.size(),
               merged.result.programs.size(),
               merged.result.inequalityViolations == 0 ? "holds on all cells"
                                                       : "VIOLATED");
  const bool theoremsHold = printTheoremLine(human, merged.result);
  return merged.result.inequalityViolations == 0 && theoremsHold ? kExitOk
                                                                 : kExitViolation;
}

int cmdDiff(int argc, char** argv) {
  support::Options options(
      "lazyhb diff BASELINE.json CANDIDATE.json",
      "hold a bench report to a baseline: cells match by (program, explorer) "
      "and every contract statistic must be identical; then print the "
      "per-explorer geomean of the candidate/baseline events/s ratios");
  options.addFlag("counts-only",
                  "skip the events/s scoreboard (e.g. reports from different "
                  "hosts)");
  options.addFlag("allow-new-cells",
                  "tolerate cells only the candidate has (a grown corpus); "
                  "cells missing from the candidate stay fatal");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const std::vector<std::string>& paths = options.positional();
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "lazyhb: diff takes two reports: BASELINE.json "
                 "CANDIDATE.json\n");
    return kExitUsage;
  }
  const bool allowNewCells = options.getFlag("allow-new-cells");
  campaign::DiffOutcome diff;
  try {
    diff = campaign::diffReports(campaign::readFile(paths[0]),
                                 campaign::readFile(paths[1]), paths[0],
                                 paths[1], allowNewCells);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return kExitUsage;
  }

  for (const std::string& cell : diff.missing) {
    std::printf("MISSING in candidate: %s\n", cell.c_str());
  }
  for (const std::string& cell : diff.extra) {
    std::printf("%s %s\n",
                allowNewCells ? "NEW in candidate (allowed):" : "EXTRA in candidate:",
                cell.c_str());
  }
  for (const std::string& cell : diff.skipped) {
    std::printf("SKIPPED (not comparable): %s\n", cell.c_str());
  }
  for (const std::string& mismatch : diff.mismatches) {
    std::printf("COUNT MISMATCH %s\n", mismatch.c_str());
  }
  std::printf("counts: %zu cells compared under %s, %zu mismatch(es)",
              diff.compared, diff.memoryModel.c_str(), diff.mismatches.size());
  if (!diff.skipped.empty()) {
    std::printf(", %zu failed cell(s) skipped", diff.skipped.size());
  }
  std::printf("\n");

  if (!options.getFlag("counts-only") && !diff.rates.empty()) {
    support::Table table({"explorer", "--workers", "events/s", "executed events/s",
                          "cells"});
    for (const campaign::RateRow& row : diff.rates) {
      table.beginRow();
      table.cell(row.explorer);
      table.cell(row.workers);
      table.cell(row.eventsPerSecond);
      table.cell(row.executedEventsPerSecond);
      table.cell(static_cast<std::uint64_t>(row.cells));
    }
    std::printf("\ncandidate / baseline throughput, geomean over cells [%s]:\n%s",
                diff.memoryModel.c_str(), table.toText().c_str());
  }
  return diff.contractHolds ? kExitOk : kExitViolation;
}

// --- replay ------------------------------------------------------------------

/// Parse "0,1,1,0" (or "0 1 1 0") into thread indices. Every token must be
/// an integer in full — "1-2" or "1x" is rejected, not truncated.
bool parseSchedule(const std::string& text, std::vector<int>& out) {
  std::string token;
  for (const char c : text + ",") {
    if (c == ',' || c == ' ') {
      if (token.empty()) continue;
      try {
        std::size_t consumed = 0;
        const int value = std::stoi(token, &consumed);
        if (consumed != token.size()) return false;
        out.push_back(value);
      } catch (const std::exception&) {
        return false;
      }
      token.clear();
      continue;
    }
    const bool leadingMinus = (c == '-' && token.empty());
    if (!leadingMinus && (c < '0' || c > '9')) return false;
    token += c;
  }
  return true;
}

int cmdReplay(int argc, char** argv) {
  support::Options options("lazyhb replay",
                           "re-execute a recorded schedule and render its trace");
  options.addString("program", "", "program name (see `lazyhb list`)");
  options.addString("schedule", "",
                    "comma-separated thread picks, e.g. 0,1,1,0 (empty: "
                    "first-enabled everywhere)");
  options.addString("relation", "full", "relation to render: sync | full | lazy");
  addMemoryModelFlag(options);
  addMaxEventsFlag(options);
  options.addFlag("races", "run the sync-HB data-race detector");
  options.addFlag("no-trace", "skip the rendered trace, print fingerprints only");
  if (!options.parse(argc, argv)) return options.parseError() ? kExitUsage : kExitOk;

  const programs::ProgramSpec* spec = resolveProgram(options.getString("program"));
  if (spec == nullptr) return kExitUsage;

  std::vector<int> schedule;
  if (!parseSchedule(options.getString("schedule"), schedule)) {
    std::fprintf(stderr, "lazyhb: --schedule expects comma-separated integers\n");
    return kExitUsage;
  }

  TraceOptions traceOptions;
  traceOptions.renderTrace = !options.getFlag("no-trace");
  traceOptions.detectRaces = options.getFlag("races");
  traceOptions.maxEventsPerSchedule =
      static_cast<std::uint32_t>(options.getInt("max-events"));
  traceOptions.relation = options.getString("relation");
  if (!parseMemoryModelFlag(options, &traceOptions.memoryModel)) {
    return kExitUsage;
  }

  ScheduleTrace result;
  try {
    result = traceSchedule(spec->body, schedule, traceOptions);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "lazyhb: unknown relation '%s'\n",
                 traceOptions.relation.c_str());
    return kExitUsage;
  }

  if (!result.applied) {
    std::fprintf(stderr,
                 "lazyhb: schedule does not apply to '%s' — a pick named a "
                 "thread that was not enabled at that point\n",
                 spec->name.c_str());
    return kExitUsage;
  }
  std::printf("program %s: outcome %s, %zu event(s)\n", spec->name.c_str(),
              result.outcome.c_str(), result.events);
  if (!result.message.empty()) {
    std::printf("violation: %s\n", result.message.c_str());
  }
  std::printf("hbr %s  lazy %s  state %s\n", result.hbrFingerprint.c_str(),
              result.lazyFingerprint.c_str(), result.stateFingerprint.c_str());
  if (traceOptions.renderTrace) {
    std::fputs(result.rendered.c_str(), stdout);
  }
  for (const TestRace& race : result.races) {
    std::printf("race on %s (events %d and %d)\n", race.object.c_str(),
                race.firstEvent, race.secondEvent);
  }
  return result.violated ? kExitViolation : kExitOk;
}

}  // namespace

int run(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0 || std::strcmp(argv[1], "help") == 0) {
    printTopLevelUsage();
    return argc < 2 ? kExitUsage : kExitOk;
  }
  const std::string command = argv[1];
  // Each subcommand re-parses from its own argv[0] == the command name.
  const int subArgc = argc - 1;
  char** subArgv = argv + 1;
  if (command == "list") return cmdList(subArgc, subArgv);
  if (command == "explore") return cmdExplore(subArgc, subArgv);
  if (command == "compare") return cmdCompare(subArgc, subArgv);
  if (command == "bench") return cmdBench(subArgc, subArgv);
  if (command == "merge") return cmdMerge(subArgc, subArgv);
  if (command == "diff") return cmdDiff(subArgc, subArgv);
  if (command == "replay") return cmdReplay(subArgc, subArgv);
  std::fprintf(stderr, "lazyhb: unknown command '%s'\n\n", command.c_str());
  printTopLevelUsage();
  return kExitUsage;
}

}  // namespace lazyhb::cli
