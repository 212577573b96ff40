// Tests for the durability/divisibility layer added with report schema v5:
// the campaign journal (kill a campaign mid-matrix, resume, counts are
// byte-identical), the report merge algebra (associative, commutative,
// conflict-rejecting), the report diff both CI gates run, the report reader
// behind both under hostile input, shard partitioning, failed-cell
// handling, the progress-event chain, and the lazyhb::Suite facade's parity
// with the campaign runner it adapts.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/merge.hpp"
#include "campaign/report.hpp"
#include "lazyhb/lazyhb.hpp"
#include "programs/registry.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::expectSameContractStats;
namespace fs = std::filesystem;

// --- helpers -----------------------------------------------------------------

/// A fresh temp directory, removed at scope exit.
class TempDir {
 public:
  TempDir() {
    std::string templ =
        (fs::temp_directory_path() / "lazyhb-resume-XXXXXX").string();
    path_ = mkdtemp(templ.data());
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The small (4 program × 5 explorer) matrix test_campaign.cpp also uses.
campaign::CampaignOptions smallCampaign(int jobs) {
  campaign::CampaignOptions options;
  options.explorers = *campaign::parseExplorerList("");
  for (const char* name :
       {"disjoint-lock-2", "disjoint-lock-3", "counter-lock-3", "lost-signal"}) {
    const programs::ProgramSpec* spec = programs::byName(name);
    EXPECT_NE(spec, nullptr) << name;
    if (spec != nullptr) options.programs.push_back(spec);
  }
  options.explorer.scheduleLimit = 150;
  options.jobs = jobs;
  return options;
}

/// The cell identity and every statistic the determinism contract pins.
void expectSameCounts(const campaign::CellResult& a,
                      const campaign::CellResult& b) {
  const std::string label = a.program + " x " + a.explorer;
  EXPECT_EQ(a.program, b.program) << label;
  EXPECT_EQ(a.explorer, b.explorer) << label;
  expectSameContractStats(a.stats, b.stats, label);
}

/// Run one shard of the small campaign and render its report.
std::string shardDocument(int index, int count) {
  campaign::CampaignOptions options = smallCampaign(2);
  options.shardIndex = index;
  options.shardCount = count;
  return campaign::writeReportJson(campaign::runCampaign(options));
}

/// A fabricated clean cell for merge-conflict tests (counts satisfy the §3
/// chain so only the *conflict* path is exercised).
campaign::CellResult fabricatedCell(std::uint64_t schedules) {
  campaign::CellResult cell;
  cell.programId = 1;
  cell.program = "fabricated";
  cell.family = "synthetic";
  cell.explorer = "dfs";
  cell.stats.schedulesExecuted = schedules;
  cell.stats.terminalSchedules = schedules;
  cell.stats.distinctHbrs = 4;
  cell.stats.distinctLazyHbrs = 3;
  cell.stats.distinctValueClasses = 3;
  cell.stats.distinctStates = 2;
  cell.stats.totalEvents = 10 * schedules;
  cell.stats.complete = true;
  cell.wallSeconds = 0.5;
  return cell;
}

/// A dfs-only campaign of fabricated cells, configured as a 150-schedule
/// run.
campaign::CampaignResult fabricatedResult(std::vector<campaign::CellResult> cells) {
  campaign::CampaignResult result =
      campaign::foldCells(std::move(cells), {"dfs"});
  result.config.scheduleLimit = 150;
  result.config.maxEventsPerSchedule = 1u << 16;
  return result;
}

/// The cell a campaign records when fabricatedCell's explorer throws: its
/// error and zero counts.
campaign::CellResult failedCell() {
  campaign::CellResult cell = fabricatedCell(0);
  cell.stats = {};
  cell.error = "explorer threw";
  return cell;
}

std::string fabricatedDocument(campaign::CellResult cell,
                               std::uint64_t scheduleLimit = 150) {
  campaign::CampaignResult result = fabricatedResult({std::move(cell)});
  result.config.scheduleLimit = scheduleLimit;
  return campaign::writeReportJson(result);
}

// --- journal -----------------------------------------------------------------

campaign::JournalConfig journalConfigFor(const campaign::CampaignOptions& options) {
  campaign::JournalConfig config;
  config.scheduleLimit = options.explorer.scheduleLimit;
  config.maxEventsPerSchedule = options.explorer.maxEventsPerSchedule;
  config.seed = options.seed;
  config.incremental = options.explorer.incremental;
  config.workers = options.explorer.workers;
  for (const campaign::ExplorerSpec& spec : options.explorers) {
    config.explorers.push_back(spec.name);
  }
  for (const programs::ProgramSpec* spec : options.programs) {
    config.programs.push_back(spec->name);
  }
  return config;
}

/// fabricatedCell(schedules) named for matrix slot `index` of `config`.
campaign::CellResult fabricatedCellAt(const campaign::JournalConfig& config,
                                      std::size_t index, std::uint64_t schedules) {
  campaign::CellResult cell = fabricatedCell(schedules);
  cell.program = config.programs[index / config.explorers.size()];
  cell.explorer = config.explorers[index % config.explorers.size()];
  return cell;
}

TEST(Journal, RecordsAndReloadsCells) {
  const TempDir dir;
  const auto options = smallCampaign(1);
  const auto config = journalConfigFor(options);
  {
    campaign::CampaignJournal journal(dir.path(), config, false);
    EXPECT_EQ(journal.completedCount(), 0u);
    EXPECT_FALSE(journal.completed(3));
    journal.record(3, fabricatedCellAt(config, 3, 42));
  }
  campaign::CampaignJournal reopened(dir.path(), config, true);
  EXPECT_EQ(reopened.completedCount(), 1u);
  ASSERT_TRUE(reopened.completed(3));
  EXPECT_FALSE(reopened.completed(2));
  expectSameCounts(reopened.loaded(3), fabricatedCellAt(config, 3, 42));
}

// A cell file loads only into the slot it was written for: a name that is
// not exactly cell-<i>.json (leading zeros, an index that wraps) is a stray
// file, and a file whose cell belongs to another slot fails the resume.
TEST(Journal, CellsLoadOnlyIntoTheirOwnSlot) {
  const TempDir dir;
  const auto config = journalConfigFor(smallCampaign(1));
  {
    campaign::CampaignJournal journal(dir.path(), config, false);
    journal.record(0, fabricatedCellAt(config, 0, 10));
    journal.record(1, fabricatedCellAt(config, 1, 11));
  }
  const fs::path cell1 = fs::path(dir.path()) / "cell-1.json";
  // 2^64 and 2^64 + 1 wrap to slots 0 and 1 in 64-bit arithmetic.
  for (const char* alias : {"cell-00.json", "cell-01.json", "cell-+1.json",
                            "cell-18446744073709551616.json",
                            "cell-18446744073709551617.json"}) {
    fs::copy_file(cell1, fs::path(dir.path()) / alias);
  }
  fs::remove(cell1);
  {
    const campaign::CampaignJournal reopened(dir.path(), config, true);
    EXPECT_EQ(reopened.completedCount(), 1u);
    ASSERT_TRUE(reopened.completed(0));
    expectSameCounts(reopened.loaded(0), fabricatedCellAt(config, 0, 10));
  }
  // Slot 2's file holding slot 1's cell.
  fs::copy_file(fs::path(dir.path()) / "cell-01.json",
                fs::path(dir.path()) / "cell-2.json");
  EXPECT_THROW(campaign::CampaignJournal(dir.path(), config, true),
               std::runtime_error);
}

TEST(Journal, RejectsConfigMismatch) {
  const TempDir dir;
  const auto options = smallCampaign(1);
  const auto config = journalConfigFor(options);
  { campaign::CampaignJournal journal(dir.path(), config, false); }

  auto differentSeed = config;
  differentSeed.seed = 7;
  EXPECT_THROW(campaign::CampaignJournal(dir.path(), differentSeed, false),
               std::runtime_error);

  auto differentLimit = config;
  differentLimit.scheduleLimit = 99;
  EXPECT_THROW(campaign::CampaignJournal(dir.path(), differentLimit, false),
               std::runtime_error);

  auto differentShard = config;
  differentShard.shardIndex = 1;
  differentShard.shardCount = 2;
  EXPECT_THROW(campaign::CampaignJournal(dir.path(), differentShard, false),
               std::runtime_error);

  // A journal of schema v2, whose cells may hold prefixes cut by a
  // wall-clock timeout, fails the resume like any other configuration
  // drift.
  const std::string manifest = dir.path() + "/manifest.json";
  std::string v2 = campaign::readFile(manifest);
  const std::string version = "\"version\": 3";
  ASSERT_NE(v2.find(version), std::string::npos);
  v2.replace(v2.find(version), version.size(), "\"version\": 2");
  std::ofstream(manifest, std::ios::trunc) << v2;
  try {
    const campaign::CampaignJournal journal(dir.path(), config, true);
    ADD_FAILURE() << "resumed a v2 journal";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("config mismatch"), std::string::npos)
        << error.what();
  }
}

TEST(Journal, RequireExistingRefusesEmptyDirectory) {
  const TempDir dir;
  const auto config = journalConfigFor(smallCampaign(1));
  EXPECT_THROW(campaign::CampaignJournal(dir.path(), config, true),
               std::runtime_error);
}

TEST(Journal, ResumeLoadsCompletedCellsInsteadOfRerunning) {
  const TempDir dir;
  const auto direct = campaign::runCampaign(smallCampaign(2));

  auto first = smallCampaign(2);
  first.checkpointDir = dir.path();
  const auto initial = campaign::runCampaign(first);
  EXPECT_EQ(initial.cellsFromCheckpoint, 0u);

  auto second = smallCampaign(2);
  second.checkpointDir = dir.path();
  second.requireExistingJournal = true;
  const auto resumed = campaign::runCampaign(second);
  EXPECT_EQ(resumed.cellsFromCheckpoint, resumed.cells.size());

  ASSERT_EQ(resumed.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < direct.cells.size(); ++i) {
    expectSameCounts(direct.cells[i], resumed.cells[i]);
    EXPECT_TRUE(resumed.cells[i].fromCheckpoint);
  }
  EXPECT_EQ(resumed.totals.schedulesExecuted, direct.totals.schedulesExecuted);
  EXPECT_EQ(resumed.inequalityViolations, 0);
}

// The headline durability property: SIGKILL a campaign child mid-matrix,
// resume from its journal, and the completed campaign's counts are
// byte-identical to an uninterrupted run's.
TEST(Journal, KillAndResumeMatchesUninterruptedRun) {
  const TempDir dir;
  const auto direct = campaign::runCampaign(smallCampaign(2));

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the journaled campaign until killed (or completion —
    // either way the parent's resume below must produce identical counts).
    auto options = smallCampaign(1);
    options.checkpointDir = dir.path();
    try {
      (void)campaign::runCampaign(options);
    } catch (...) {
    }
    _exit(0);
  }

  // Parent: wait until at least two cells are journaled, then kill the
  // child without warning. The per-cell files are written atomically, so
  // whatever the kill interrupts, the journal holds only complete cells.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::size_t journaled = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    journaled = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("cell-", 0) == 0 && name.find(".tmp") == std::string::npos) {
        ++journaled;
      }
    }
    if (journaled >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(journaled, 2u) << "campaign child journaled no cells in 60s";
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  auto resumeOptions = smallCampaign(2);
  resumeOptions.checkpointDir = dir.path();
  resumeOptions.requireExistingJournal = true;
  const auto resumed = campaign::runCampaign(resumeOptions);

  EXPECT_GE(resumed.cellsFromCheckpoint, 2u);
  ASSERT_EQ(resumed.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < direct.cells.size(); ++i) {
    expectSameCounts(direct.cells[i], resumed.cells[i]);
  }
  EXPECT_EQ(resumed.totals.schedulesExecuted, direct.totals.schedulesExecuted);
  EXPECT_EQ(resumed.totals.totalEvents, direct.totals.totalEvents);
  EXPECT_EQ(resumed.inequalityViolations, 0);
}

// --- sharding ----------------------------------------------------------------

TEST(Shard, SlicesPartitionTheMatrixAndPreserveCounts) {
  const auto full = campaign::runCampaign(smallCampaign(2));
  constexpr int kShards = 3;

  std::set<std::pair<std::string, std::string>> seen;
  std::size_t totalCells = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    campaign::CampaignOptions options = smallCampaign(2);
    options.shardIndex = shard;
    options.shardCount = kShards;
    const auto slice = campaign::runCampaign(options);
    EXPECT_EQ(slice.config.shardIndex, shard);
    EXPECT_EQ(slice.config.shardCount, kShards);
    // Per-explorer rows stay column-compatible with the full campaign.
    ASSERT_EQ(slice.perExplorer.size(), full.perExplorer.size());
    totalCells += slice.cells.size();
    for (const campaign::CellResult& cell : slice.cells) {
      EXPECT_TRUE(seen.emplace(cell.program, cell.explorer).second)
          << cell.program << " x " << cell.explorer << " in two shards";
      // The shard cell's counts are byte-identical to the full run's.
      bool found = false;
      for (const campaign::CellResult& reference : full.cells) {
        if (reference.program == cell.program &&
            reference.explorer == cell.explorer) {
          expectSameCounts(reference, cell);
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
  }
  EXPECT_EQ(totalCells, full.cells.size());
  EXPECT_EQ(seen.size(), full.cells.size());
}

TEST(Shard, RejectsBadShardSpecs) {
  campaign::CampaignOptions options = smallCampaign(1);
  options.shardIndex = 2;
  options.shardCount = 2;
  EXPECT_THROW((void)campaign::runCampaign(options), std::invalid_argument);
  options.shardIndex = -1;
  options.shardCount = 2;
  EXPECT_THROW((void)campaign::runCampaign(options), std::invalid_argument);
  options.shardIndex = 0;
  options.shardCount = 0;
  EXPECT_THROW((void)campaign::runCampaign(options), std::invalid_argument);
}

// --- merge algebra -----------------------------------------------------------

TEST(Merge, ShardsMergeBackToTheUnshardedCounts) {
  const auto full = campaign::runCampaign(smallCampaign(2));
  const std::vector<std::string> docs = {shardDocument(0, 3), shardDocument(1, 3),
                                         shardDocument(2, 3)};
  const auto merged =
      campaign::mergeReports(docs, {"s0.json", "s1.json", "s2.json"});

  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    expectSameCounts(full.cells[i], merged.result.cells[i]);
  }
  EXPECT_EQ(merged.result.totals.schedulesExecuted, full.totals.schedulesExecuted);
  EXPECT_EQ(merged.result.totals.totalEvents, full.totals.totalEvents);
  EXPECT_EQ(merged.result.inequalityViolations, 0);
  EXPECT_EQ(merged.result.programs.size(), full.programs.size());
  ASSERT_EQ(merged.provenance.sources.size(), 3u);
  // The merged report's config is unsharded; coverage lives in provenance.
  EXPECT_EQ(merged.result.config.shardCount, 1);
}

TEST(Merge, IsCommutativeAndAssociativeByteForByte) {
  const std::string a = shardDocument(0, 3);
  const std::string b = shardDocument(1, 3);
  const std::string c = shardDocument(2, 3);

  const auto render = [](const campaign::MergeOutcome& outcome) {
    return campaign::writeReportJson(outcome.result, &outcome.provenance);
  };

  // Commutativity: any input order produces the same document.
  const std::string abc =
      render(campaign::mergeReports({a, b, c}, {"a", "b", "c"}));
  const std::string cba =
      render(campaign::mergeReports({c, b, a}, {"c", "b", "a"}));
  EXPECT_EQ(abc, cba);

  // Associativity: any grouping produces the same document.
  const std::string ab = render(campaign::mergeReports({a, b}, {"a", "b"}));
  const std::string bc = render(campaign::mergeReports({b, c}, {"b", "c"}));
  const std::string ab_c =
      render(campaign::mergeReports({ab, c}, {"ab.json", "c"}));
  const std::string a_bc =
      render(campaign::mergeReports({a, bc}, {"a", "bc.json"}));
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, abc);
}

TEST(Merge, DeduplicatesIdenticalCellsAndOverlappingShards) {
  const std::string a = shardDocument(0, 2);
  const std::string b = shardDocument(1, 2);
  // Merging a shard with itself and its complement: the duplicate copy of
  // every shard-0 cell deduplicates, leaving the full matrix exactly once.
  const auto merged = campaign::mergeReports({a, a, b}, {"a", "a2", "b"});
  const auto full = campaign::runCampaign(smallCampaign(2));
  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    expectSameCounts(full.cells[i], merged.result.cells[i]);
  }
}

TEST(Merge, RejectsConflictingDuplicateCounts) {
  const std::string doc1 = fabricatedDocument(fabricatedCell(10));
  const std::string doc2 = fabricatedDocument(fabricatedCell(11));
  EXPECT_THROW((void)campaign::mergeReports({doc1, doc2}, {"one", "two"}),
               campaign::CountConflict);
  // Same counts: no conflict, one copy survives.
  const auto merged = campaign::mergeReports({doc1, doc1}, {"one", "copy"});
  EXPECT_EQ(merged.result.cells.size(), 1u);
}

// --- the statistics table across tools ----------------------------------------

/// fabricatedCell with every statistics block live, so each table row can be
/// perturbed on its own.
campaign::CellResult everyBlockCell() {
  campaign::CellResult cell = fabricatedCell(10);
  ExplorationStats& stats = cell.stats;
  stats.distinctValueClasses = 3;
  stats.eventsElided = 40;
  stats.eventsReplayed = 20;
  stats.cacheStats = CacheStats{true, 50, 20, 30, 30, 4096};
  stats.checkpointStats = CheckpointStats{true, 5, 1000, 1, 1};
  stats.flushEvents = 12;
  stats.fenceEvents = 2;
  stats.maxBufferedStores = 3;
  return cell;
}

std::vector<explore::StatSpec> statTable() {
  std::vector<explore::StatSpec> rows;
  const ExplorationStats none;
  explore::forEachStat(
      [&](const explore::StatSpec& spec, const auto&) { rows.push_back(spec); },
      none);
  return rows;
}

/// `cell` with the statistic at `path` changed (a count +1, a flag flipped),
/// and that statistic's "<old> vs <new>" rendering.
std::pair<campaign::CellResult, std::string> perturbed(campaign::CellResult cell,
                                                       const std::string& path) {
  std::string values;
  explore::forEachStat(
      [&](const explore::StatSpec& spec, auto& field) {
        if (explore::statPath(spec) != path) return;
        values = std::to_string(field) + " vs ";
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>, bool>) {
          field = !field;
        } else {
          ++field;
        }
        values += std::to_string(field);
      },
      cell.stats);
  return {std::move(cell), values};
}

// Every consumer agrees on the table's classes: a report pair differing in
// one contract statistic is a merge conflict naming it and both values, and
// differing in one scoreboard statistic merges cleanly.
TEST(StatTable, MergeConflictsExactlyOnContractStatistics) {
  const std::string base = fabricatedDocument(everyBlockCell());
  for (const explore::StatSpec& spec : statTable()) {
    const std::string path = explore::statPath(spec);
    SCOPED_TRACE(path);
    const auto [cell, values] = perturbed(everyBlockCell(), path);
    const std::string other = fabricatedDocument(cell);
    ASSERT_NE(other, base);
    if (spec.klass == explore::StatClass::Scoreboard) {
      EXPECT_NO_THROW((void)campaign::mergeReports({base, other}, {"a", "b"}));
      continue;
    }
    try {
      (void)campaign::mergeReports({base, other}, {"a", "b"});
      ADD_FAILURE() << "merge accepted two clean copies differing in " << path;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(path + " " + values),
                std::string::npos)
          << error.what();
    }
  }
}

// The diff twin of the merge test above: both walk the same contract rows.
TEST(StatTable, BenchDiffFailsExactlyOnContractStatistics) {
  const std::string base = fabricatedDocument(everyBlockCell());
  for (const explore::StatSpec& spec : statTable()) {
    const std::string path = explore::statPath(spec);
    SCOPED_TRACE(path);
    const auto [cell, values] = perturbed(everyBlockCell(), path);
    const campaign::DiffOutcome diff =
        campaign::diffReports(base, fabricatedDocument(cell), "a", "b");
    EXPECT_EQ(diff.compared, 1u);
    if (spec.klass == explore::StatClass::Scoreboard) {
      EXPECT_TRUE(diff.contractHolds);
      EXPECT_TRUE(diff.mismatches.empty());
      continue;
    }
    EXPECT_FALSE(diff.contractHolds);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_NE(diff.mismatches[0].find(path + " " + values), std::string::npos)
        << diff.mismatches[0];
  }
}

// --- diff --------------------------------------------------------------------

/// fabricatedCell as program `name`, so several cells can share a report.
campaign::CellResult programCell(int id, const std::string& name) {
  campaign::CellResult cell = fabricatedCell(10);
  cell.programId = id;
  cell.program = name;
  return cell;
}

TEST(Diff, AMissingCellFails) {
  const std::string both = campaign::writeReportJson(
      fabricatedResult({programCell(1, "p1"), programCell(2, "p2")}));
  const std::string one =
      campaign::writeReportJson(fabricatedResult({programCell(1, "p1")}));
  const auto diff = campaign::diffReports(both, one, "base", "cand",
                                          /*allowNewCells=*/true);
  EXPECT_FALSE(diff.contractHolds);
  EXPECT_EQ(diff.missing, std::vector<std::string>{"p2 x dfs"});
  EXPECT_EQ(diff.compared, 1u);
}

TEST(Diff, AnExtraCellFailsUnlessNewCellsAreAllowed) {
  const std::string one =
      campaign::writeReportJson(fabricatedResult({programCell(1, "p1")}));
  const std::string both = campaign::writeReportJson(
      fabricatedResult({programCell(1, "p1"), programCell(2, "p2")}));
  const auto strict = campaign::diffReports(one, both, "base", "cand");
  EXPECT_FALSE(strict.contractHolds);
  EXPECT_EQ(strict.extra, std::vector<std::string>{"p2 x dfs"});
  const auto allowed = campaign::diffReports(one, both, "base", "cand",
                                             /*allowNewCells=*/true);
  EXPECT_TRUE(allowed.contractHolds);
  EXPECT_EQ(allowed.extra, std::vector<std::string>{"p2 x dfs"});
}

TEST(Diff, SkipsTimedOutAndFailedCopiesInsteadOfComparingThem) {
  const std::string clean = fabricatedDocument(fabricatedCell(10));
  const std::string failed = fabricatedDocument(failedCell());
  for (const auto& [baseline, candidate] :
       {std::pair{clean, failed}, std::pair{failed, clean}}) {
    const auto diff = campaign::diffReports(baseline, candidate, "base", "cand");
    EXPECT_TRUE(diff.contractHolds);
    EXPECT_EQ(diff.compared, 0u);
    EXPECT_TRUE(diff.mismatches.empty());
    ASSERT_EQ(diff.skipped.size(), 1u);
    EXPECT_EQ(diff.skipped[0], "fabricated x dfs [failed]");
  }
}

/// The message diffReports throws for the pair, or "" when it does not.
std::string diffRefusal(const std::string& baseline,
                        const std::string& candidate) {
  try {
    (void)campaign::diffReports(baseline, candidate, "base", "cand");
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Diff, RefusesReportsOfDifferentMemoryModels) {
  campaign::CampaignResult tso = fabricatedResult({fabricatedCell(10)});
  tso.config.memoryModel = "tso";
  EXPECT_NE(diffRefusal(fabricatedDocument(fabricatedCell(10)),
                        campaign::writeReportJson(tso))
                .find("config.memory_model differs"),
            std::string::npos);
}

TEST(Diff, RefusesOtherSchemaVersions) {
  const std::string current = fabricatedDocument(fabricatedCell(10));
  std::string older = current;
  const std::string version = "\"version\": 12";
  older.replace(older.find(version), version.size(), "\"version\": 11");
  EXPECT_NE(diffRefusal(current, older).find("schema version 11"), std::string::npos);
  EXPECT_NE(diffRefusal(older, current).find("schema version 11"), std::string::npos);
  // merge refuses it the same way: the readers accept the current version
  // only, whichever fields changed (v12 dropped totals.tasks_stolen).
  EXPECT_THROW((void)campaign::mergeReports({older}, {"older"}), std::runtime_error);
}

// Counts depend on the budget, the event cap and the seed by design, so a
// pair that differs in one of them has nothing to compare.
TEST(Diff, RefusesADifferentLimitMaxEventsOrSeed) {
  const std::string base = fabricatedDocument(fabricatedCell(10));
  campaign::CampaignResult limit = fabricatedResult({fabricatedCell(10)});
  limit.config.scheduleLimit = 151;
  campaign::CampaignResult maxEvents = fabricatedResult({fabricatedCell(10)});
  maxEvents.config.maxEventsPerSchedule = 77;
  campaign::CampaignResult seed = fabricatedResult({fabricatedCell(10)});
  seed.config.seed = 7;
  for (const auto& [result, field] : {std::pair{limit, "limit"},
                                      std::pair{maxEvents, "max_events"},
                                      std::pair{seed, "seed"}}) {
    EXPECT_NE(diffRefusal(base, campaign::writeReportJson(result))
                  .find(std::string("config.") + field + " differs"),
              std::string::npos)
        << field;
  }
  // The settings that must not change counts may differ freely.
  campaign::CampaignResult settings = fabricatedResult({fabricatedCell(10)});
  settings.jobs = 8;
  settings.config.workers = 4;
  settings.config.incremental = false;
  settings.config.snapshotBudgetBytes = 4096;
  EXPECT_TRUE(campaign::diffReports(base, campaign::writeReportJson(settings),
                                    "base", "cand")
                  .contractHolds);
}

// --- hostile input -----------------------------------------------------------

/// `document` with the first `from` inside its cells array replaced by `to`.
std::string editCells(std::string document, const std::string& from,
                      const std::string& to) {
  const std::size_t at = document.find(from, document.find("\"cells\": ["));
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? document : document.replace(at, from.size(), to);
}

// Every malformed report fails loudly through both readers, whichever side
// of the pair it is on, instead of crashing or reading as zero.
TEST(ReportReader, HostileInputRaisesInsteadOfCrashing) {
  const std::string good = fabricatedDocument(everyBlockCell());
  const std::string cells = good.substr(good.find("\"cells\": ["));
  const struct {
    const char* what;
    std::string document;
    const char* names;  ///< the key the message must name, if any
  } hostile[] = {
      {"1M nested arrays", std::string(1'000'000, '['), "nesting"},
      {"truncated mid-cell",
       good.substr(0, good.size() - cells.size() + cells.find("\"hbrs\"")),
       nullptr},
      {"mistyped count",
       editCells(good, "\"schedules\": 10", "\"schedules\": \"seven\""),
       "'schedules'"},
      {"mistyped block row", editCells(good, "\"hits\": 20", "\"hits\": -20"),
       "'cache.hits'"},
      {"missing statistic", editCells(good, "\"value_classes\": 3,", ""),
       "'value_classes'"},
  };
  for (const auto& input : hostile) {
    SCOPED_TRACE(input.what);
    for (const auto& order : {std::vector<std::string>{good, input.document},
                              std::vector<std::string>{input.document, good}}) {
      try {
        (void)campaign::mergeReports(order, {"x", "y"});
        ADD_FAILURE() << "merge accepted it";
      } catch (const std::runtime_error& error) {
        if (input.names != nullptr) {
          EXPECT_NE(std::string(error.what()).find(input.names), std::string::npos)
              << error.what();
        }
      }
      EXPECT_NE(diffRefusal(order[0], order[1]), "");
    }
  }

  // Mutation sweep: every proper prefix that stops before the closing
  // brace, and the document with each byte replaced by one of {}[]",:
  // (cycling by position). Each input must parse or raise — a crash or a
  // foreign exception fails the test, and the ASan+UBSan leg runs it.
  const auto sweep = [](const std::string& document, const auto& read) {
    const std::size_t closing = document.rfind('}');
    for (std::size_t n = 0; n < closing; ++n) read(document.substr(0, n));
    static constexpr char kStructural[] = "{}[]\",:";
    for (std::size_t i = 0; i < document.size(); ++i) {
      std::string mutated = document;
      mutated[i] = kStructural[i % (sizeof kStructural - 1)];
      read(mutated);
    }
  };
  const auto parseOrRaise = [](const auto& read) {
    try {
      read();
    } catch (const std::runtime_error&) {
    }
  };
  sweep(good, [&](const std::string& input) {
    parseOrRaise([&] { (void)campaign::mergeReports({input}, {"x"}); });
    parseOrRaise([&] { (void)campaign::diffReports(good, input, "x", "y"); });
  });
  support::JsonWriter cell;
  campaign::writeCellJson(cell, everyBlockCell());
  sweep(cell.str() + "\n", [&](const std::string& input) {
    parseOrRaise([&] { (void)campaign::readJournalCell(input, "cell-0.json"); });
  });
}

TEST(ReportReader, RefusesAMergeBlockItsSourcesCannotCover) {
  const std::string direct = shardDocument(0, 2);
  const auto merged = campaign::mergeReports({direct}, {"a"});
  const std::string document =
      campaign::writeReportJson(merged.result, &merged.provenance);
  EXPECT_NO_THROW((void)campaign::diffReports(document, document, "m", "m"));
  std::string undercounted = document;
  const std::size_t at = undercounted.find("\"cells\": ", undercounted.find("\"sources\""));
  undercounted.replace(at, undercounted.find('\n', at) - at, "\"cells\": 1");
  EXPECT_NE(diffRefusal(undercounted, document).find("merge sources contributed 1"),
            std::string::npos);
}

TEST(Journal, AHostileCellFileFailsTheResume) {
  const TempDir dir;
  const auto config = journalConfigFor(smallCampaign(1));
  { campaign::CampaignJournal journal(dir.path(), config, false); }
  std::ofstream(dir.path() + "/cell-0.json") << std::string(1'000'000, '[');
  EXPECT_THROW(campaign::CampaignJournal(dir.path(), config, true),
               std::runtime_error);
}

TEST(Merge, PrefersTheHealthyCopyOfATimedOutCell) {
  const std::string failedDoc = fabricatedDocument(failedCell());
  const std::string cleanDoc = fabricatedDocument(fabricatedCell(10));

  for (const auto& order :
       {std::vector<std::string>{failedDoc, cleanDoc},
        std::vector<std::string>{cleanDoc, failedDoc}}) {
    const auto merged = campaign::mergeReports(order, {"x", "y"});
    ASSERT_EQ(merged.result.cells.size(), 1u);
    EXPECT_FALSE(merged.result.cells[0].failed());
    EXPECT_EQ(merged.result.cells[0].stats.schedulesExecuted, 10u);
    EXPECT_EQ(merged.result.cellsFailed, 0);
  }
}

TEST(Merge, RejectsIncompatibleConfigs) {
  const std::string base = fabricatedDocument(fabricatedCell(10));
  const std::string different =
      fabricatedDocument(fabricatedCell(10), /*scheduleLimit=*/999);
  EXPECT_THROW((void)campaign::mergeReports({base, different}, {"a", "b"}),
               std::runtime_error);
}

// --- Suite facade ------------------------------------------------------------

TEST(Suite, MatchesTheCampaignRunnerCellForCell) {
  const auto direct = campaign::runCampaign(smallCampaign(2));

  const SuiteReport report = Suite()
                                 .add("disjoint-lock-2")
                                 .add("disjoint-lock-3")
                                 .add("counter-lock-3")
                                 .add("lost-signal")
                                 .schedules(150)
                                 .jobs(2)
                                 .run();
  ASSERT_EQ(report.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < direct.cells.size(); ++i) {
    const campaign::CellResult& want = direct.cells[i];
    const SuiteCell& got = report.cells[i];
    EXPECT_EQ(got.scenario, want.program);
    EXPECT_EQ(got.strategy, want.explorer);
    explore::forEachStat(
        [](const explore::StatSpec& stat, const auto& a, const auto& b) {
          if (stat.klass == explore::StatClass::Contract) {
            EXPECT_EQ(a, b) << explore::statPath(stat);
          }
        },
        got, want.stats);
    EXPECT_TRUE(got.inequalityHolds);
  }
  EXPECT_EQ(report.totals.schedulesExecuted, direct.totals.schedulesExecuted);
  EXPECT_TRUE(report.allInequalitiesHold());
  EXPECT_FALSE(report.summary().empty());
}

TEST(Suite, EmitsASchemaV5DocumentMergeableWithShards) {
  const auto runShard = [](int index) {
    return Suite()
        .add("disjoint-lock-2")
        .add("disjoint-lock-3")
        .add("counter-lock-3")
        .add("lost-signal")
        .schedules(150)
        .jobs(2)
        .shard(index, 2)
        .run();
  };
  const SuiteReport s0 = runShard(0);
  const SuiteReport s1 = runShard(1);
  EXPECT_EQ(s0.shardCount, 2);

  std::string error;
  const auto parsed = support::JsonValue::parse(s0.toJson(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->intAt("version"), kSuiteReportSchemaVersion);
  EXPECT_EQ(parsed->find("config")->find("shard")->intAt("count"), 2);

  const auto merged =
      campaign::mergeReports({s0.toJson(), s1.toJson()}, {"s0", "s1"});
  const auto full = campaign::runCampaign(smallCampaign(2));
  ASSERT_EQ(merged.result.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    expectSameCounts(full.cells[i], merged.result.cells[i]);
  }
}

TEST(Suite, EchoesTheSnapshotBudgetItExploredUnder) {
  const SuiteReport report =
      Suite().add("peterson").strategies({"dfs"}).schedules(20).jobs(1).run();
  std::string error;
  const auto parsed = support::JsonValue::parse(report.toJson(), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->find("config")->uintAt("snapshot_budget"),
            explore::defaultSnapshotBudgetBytes());
}

TEST(Suite, ResumesFromItsCheckpointDirectory) {
  const TempDir dir;
  const auto build = [&] {
    return Suite()
        .add("disjoint-lock")  // a family selector
        .strategies({"dfs", "caching-lazy"})
        .schedules(150)
        .checkpointDir(dir.path());
  };
  const SuiteReport first = build().run();
  EXPECT_EQ(first.cellsFromCheckpoint, 0u);
  const SuiteReport second = build().resumeOnly().run();
  EXPECT_EQ(second.cellsFromCheckpoint, second.cells.size());
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(first.cells[i].schedulesExecuted, second.cells[i].schedulesExecuted);
    EXPECT_EQ(first.cells[i].distinctLazyHbrs, second.cells[i].distinctLazyHbrs);
  }
  // resumeOnly against a fresh directory refuses to run.
  const TempDir empty;
  EXPECT_THROW(
      (void)Suite().add("peterson").checkpointDir(empty.path()).resumeOnly().run(),
      std::runtime_error);
}

TEST(Suite, RejectsUnknownNames) {
  EXPECT_THROW((void)Suite().add("no-such-scenario").run(),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Suite().add("peterson").strategies({"no-such-strategy"}).run(),
      std::invalid_argument);
  EXPECT_THROW((void)Suite().add("peterson").shard(3, 2).run(),
               std::invalid_argument);
}

// --- Session progress ticks --------------------------------------------------

TEST(SessionProgress, TicksEveryIntervalOnTheExploringThread) {
  std::vector<std::uint64_t> ticks;
  const TestReport report = Session()
                                .strategy("dfs")
                                .schedules(100)
                                .onProgress([&](const ProgressEvent& event) {
                                  EXPECT_EQ(event.kind,
                                            ProgressEvent::Kind::ScheduleTick);
                                  EXPECT_EQ(event.strategy, "dfs");
                                  ticks.push_back(event.schedulesExecuted);
                                })
                                .progressInterval(10)
                                .run("peterson");
  ASSERT_FALSE(ticks.empty());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], (i + 1) * 10);
  }
  EXPECT_EQ(ticks.size(), report.schedulesExecuted / 10);
}

TEST(SessionProgress, CallbackForcesSequentialButKeepsCounts) {
  const TestReport plain =
      Session().strategy("caching-lazy").schedules(200).run("peterson");
  std::uint64_t ticks = 0;
  const TestReport ticked = Session()
                                .strategy("caching-lazy")
                                .schedules(200)
                                .workers(4)
                                .onProgress([&](const ProgressEvent&) { ++ticks; })
                                .progressInterval(1)
                                .run("peterson");
  EXPECT_EQ(ticked.schedulesExecuted, plain.schedulesExecuted);
  EXPECT_EQ(ticked.distinctLazyHbrs, plain.distinctLazyHbrs);
  EXPECT_EQ(ticked.distinctStates, plain.distinctStates);
  EXPECT_EQ(ticks, ticked.schedulesExecuted);
}

}  // namespace
