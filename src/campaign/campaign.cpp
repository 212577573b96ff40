#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "support/diagnostics.hpp"
#include "support/worker_pool.hpp"

namespace lazyhb::campaign {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Find this program's cell for `explorerName` among its row of cells.
const CellResult* cellFor(const std::vector<const CellResult*>& row,
                          const std::string& explorerName) {
  for (const CellResult* cell : row) {
    if (cell->explorer == explorerName) return cell;
  }
  return nullptr;
}

/// Logical and executed (non-elided) events per second; 0 without time.
double eventsPerSecond(const ExplorationStats& stats, double seconds) {
  return seconds > 0.0 ? static_cast<double>(stats.totalEvents) / seconds : 0.0;
}
double executedEventsPerSecond(const ExplorationStats& stats, double seconds) {
  const std::uint64_t executed = stats.totalEvents - stats.eventsElided;
  return seconds > 0.0 ? static_cast<double>(executed) / seconds : 0.0;
}

/// The configuration echo of a campaign run with `options`.
CampaignConfig configEcho(const CampaignOptions& options) {
  CampaignConfig config;
  config.scheduleLimit = options.explorer.scheduleLimit;
  config.maxEventsPerSchedule = options.explorer.maxEventsPerSchedule;
  config.seed = options.seed;
  config.incremental = options.explorer.incremental;
  config.workers = options.explorer.workers;
  config.snapshotBudgetBytes = options.explorer.snapshotBudgetBytes;
  config.memoryModel = memory::memoryModelName(options.explorer.memoryModel);
  config.shardIndex = options.shardIndex;
  config.shardCount = options.shardCount;
  return config;
}

ProgramSummary summarizeProgram(const std::vector<const CellResult*>& row) {
  ProgramSummary s;
  s.id = row.front()->programId;
  s.program = row.front()->program;
  s.family = row.front()->family;
  for (const CellResult* cell : row) {
    s.inequalityHolds = s.inequalityHolds && cell->inequalityHolds();
  }

  if (const CellResult* dpor = cellFor(row, "dpor")) {
    s.hasDpor = true;
    s.dporHbrs = dpor->stats.distinctHbrs;
    s.dporLazyHbrs = dpor->stats.distinctLazyHbrs;
    s.belowDiagonal = s.dporLazyHbrs < s.dporHbrs;
    if (s.dporHbrs > 0) {
      s.redundantHbrPercent = 100.0 *
                              static_cast<double>(s.dporHbrs - s.dporLazyHbrs) /
                              static_cast<double>(s.dporHbrs);
    }
  }

  const CellResult* cachingFull = cellFor(row, "caching-full");
  const CellResult* cachingLazy = cellFor(row, "caching-lazy");
  if (cachingFull != nullptr && cachingLazy != nullptr) {
    s.hasCachingPair = true;
    s.lazyHbrsByFullCaching = cachingFull->stats.distinctLazyHbrs;
    s.lazyHbrsByLazyCaching = cachingLazy->stats.distinctLazyHbrs;
    s.cachingDiffers = s.lazyHbrsByLazyCaching > s.lazyHbrsByFullCaching;
  }

  const CellResult* dfs = cellFor(row, "dfs");
  if (dfs != nullptr && dfs->stats.complete) {
    s.hasDfsBaseline = true;
    s.dfsSchedules = dfs->stats.schedulesExecuted;
    const auto ratio = [&](const CellResult* cell) {
      return (cell == nullptr || cell->stats.schedulesExecuted == 0)
                 ? 0.0
                 : static_cast<double>(s.dfsSchedules) /
                       static_cast<double>(cell->stats.schedulesExecuted);
    };
    s.dporScheduleRatio = ratio(cellFor(row, "dpor"));
    s.cachingLazyScheduleRatio = ratio(cachingLazy);
  }
  return s;
}

}  // namespace

CampaignResult foldCells(std::vector<CellResult> cells,
                         const std::vector<std::string>& explorerOrder) {
  LAZYHB_CHECK(!explorerOrder.empty());
  CampaignResult result;
  result.cells = std::move(cells);

  result.perExplorer.resize(explorerOrder.size());
  for (std::size_t e = 0; e < explorerOrder.size(); ++e) {
    result.perExplorer[e].explorer = explorerOrder[e];
    result.perExplorer[e].stats = explore::emptyStatFold();
  }
  result.totals = explore::emptyStatFold();
  const auto explorerIndex = [&](const std::string& name) {
    for (std::size_t e = 0; e < explorerOrder.size(); ++e) {
      if (explorerOrder[e] == name) return e;
    }
    LAZYHB_CHECK(false && "cell names an explorer outside the campaign order");
    return std::size_t{0};
  };

  for (const CellResult& cell : result.cells) {
    ExplorerTotals& totals = result.perExplorer[explorerIndex(cell.explorer)];
    ++totals.cells;
    explore::foldStats(totals.stats, cell.stats);
    totals.wallSeconds += cell.wallSeconds;
    if (!cell.inequalityHolds()) ++totals.inequalityViolations;

    explore::foldStats(result.totals, cell.stats);
    result.cpuSeconds += cell.wallSeconds;
    if (!cell.inequalityHolds()) ++result.inequalityViolations;
    if (cell.fromCheckpoint) ++result.cellsFromCheckpoint;
    if (cell.failed()) ++result.cellsFailed;
  }

  for (ExplorerTotals& totals : result.perExplorer) {
    totals.eventsPerSecond = eventsPerSecond(totals.stats, totals.wallSeconds);
    totals.executedEventsPerSecond =
        executedEventsPerSecond(totals.stats, totals.wallSeconds);
  }
  result.eventsPerSecond = eventsPerSecond(result.totals, result.cpuSeconds);
  result.executedEventsPerSecond =
      executedEventsPerSecond(result.totals, result.cpuSeconds);

  // Per-program summaries: each maximal run of cells sharing a program id
  // (the cells arrive program-major) is one row — possibly a partial row
  // for a shard's slice, which summarizeProgram handles by section.
  for (std::size_t i = 0; i < result.cells.size();) {
    std::size_t j = i;
    while (j < result.cells.size() &&
           result.cells[j].programId == result.cells[i].programId) {
      ++j;
    }
    std::vector<const CellResult*> row;
    row.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) row.push_back(&result.cells[k]);
    result.programs.push_back(summarizeProgram(row));
    i = j;
  }
  return result;
}

Aggregator::Aggregator(std::vector<bool> expected,
                       std::vector<std::string> explorerNames)
    : explorerNames_(std::move(explorerNames)),
      cells_(expected.size()),
      expected_(std::move(expected)),
      filled_(expected_.size(), false) {
  LAZYHB_CHECK(!explorerNames_.empty());
}

void Aggregator::submit(std::size_t index, CellResult cell) {
  const std::lock_guard<std::mutex> guard(mutex_);
  LAZYHB_CHECK(index < cells_.size() && expected_[index] && !filled_[index]);
  cells_[index] = std::move(cell);
  filled_[index] = true;
}

CampaignResult Aggregator::finish() {
  const std::lock_guard<std::mutex> guard(mutex_);
  std::vector<CellResult> cells;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!expected_[i]) continue;
    LAZYHB_CHECK(filled_[i]);  // finish() before every submit() is a runner bug
    cells.push_back(std::move(cells_[i]));
  }
  cells_.clear();
  return foldCells(std::move(cells), explorerNames_);
}

CampaignResult runCampaign(const CampaignOptions& options) {
  const auto campaignStart = Clock::now();

  if (options.shardCount < 1 || options.shardIndex < 0 ||
      options.shardIndex >= options.shardCount) {
    throw std::invalid_argument(
        "lazyhb: shard index " + std::to_string(options.shardIndex) +
        " out of range for " + std::to_string(options.shardCount) + " shard(s)");
  }

  std::vector<ExplorerSpec> explorers = options.explorers;
  if (explorers.empty()) explorers = allExplorers();
  std::vector<const programs::ProgramSpec*> corpus = options.programs;
  if (corpus.empty()) {
    for (const programs::ProgramSpec& spec : programs::all()) {
      corpus.push_back(&spec);
    }
  }

  // The campaign runs `jobs` cells at once, and each sharded cell leases a
  // pool of `workers` threads: refuse more threads than the bound in all
  // before any pool exists.
  const int workers = std::max(1, options.explorer.workers);
  int jobs = options.jobs;
  if (jobs <= 0) {
    const int hardware = static_cast<int>(std::thread::hardware_concurrency());
    jobs = std::max(1, std::min(hardware, support::kMaxWorkerThreads / workers));
  }
  if (static_cast<std::int64_t>(jobs) * workers > support::kMaxWorkerThreads) {
    throw std::invalid_argument(
        "lazyhb: " + std::to_string(jobs) + " job(s) x " + std::to_string(workers) +
        " worker(s) per cell exceeds the bound of " +
        std::to_string(support::kMaxWorkerThreads) + " threads");
  }

  std::vector<std::string> explorerNames;
  explorerNames.reserve(explorers.size());
  for (const ExplorerSpec& spec : explorers) explorerNames.push_back(spec.name);

  // The shard's slice: round-robin over program-major cell indices, so
  // every shard gets a balanced mix of programs and explorers.
  const std::size_t totalCells = corpus.size() * explorers.size();
  std::vector<bool> inShard(totalCells, false);
  std::size_t shardCells = 0;
  for (std::size_t index = 0; index < totalCells; ++index) {
    if (static_cast<int>(index % static_cast<std::size_t>(options.shardCount)) ==
        options.shardIndex) {
      inShard[index] = true;
      ++shardCells;
    }
  }

  // Durability: open (or create) the journal before any cell runs — a
  // config mismatch must fail the campaign up front, not after hours.
  std::unique_ptr<CampaignJournal> journal;
  if (!options.checkpointDir.empty()) {
    JournalConfig config;
    static_cast<CampaignConfig&>(config) = configEcho(options);
    config.detectRaces = options.explorer.detectRaces;
    config.stopOnFirstViolation = options.explorer.stopOnFirstViolation;
    config.explorers = explorerNames;
    for (const programs::ProgramSpec* spec : corpus) {
      config.programs.push_back(spec->name);
    }
    journal = std::make_unique<CampaignJournal>(
        options.checkpointDir, config, options.requireExistingJournal);
  }

  Aggregator aggregator(inShard, explorerNames);
  std::mutex progressMutex;
  std::size_t cellsDone = 0;

  // Serialize every callback (the contract in lazyhb/progress.hpp); the
  // done-count increments under the same lock so consumers see it monotone.
  const auto emitEvent = [&](ProgressEvent event) {
    if (!options.onProgress) return;
    const std::lock_guard<std::mutex> guard(progressMutex);
    event.cellsDone = cellsDone;
    event.cellsTotal = shardCells;
    options.onProgress(event);
  };
  const auto emitFinished = [&](const CellResult& cell) {
    if (!options.onProgress) return;
    const std::lock_guard<std::mutex> guard(progressMutex);
    ProgressEvent event;
    event.kind = ProgressEvent::Kind::CellFinished;
    event.scenario = cell.program;
    event.strategy = cell.explorer;
    event.schedulesExecuted = cell.stats.schedulesExecuted;
    event.scheduleLimit = options.explorer.scheduleLimit;
    event.wallSeconds = cell.wallSeconds;
    event.fromCheckpoint = cell.fromCheckpoint;
    event.cellsDone = ++cellsDone;
    event.cellsTotal = shardCells;
    options.onProgress(event);
  };
  // Count even when no callback is installed: CampaignFinished reads it.
  const auto markDone = [&] {
    const std::lock_guard<std::mutex> guard(progressMutex);
    ++cellsDone;
  };

  std::vector<support::WorkerPool::Task> tasks;
  tasks.reserve(shardCells);
  for (std::size_t p = 0; p < corpus.size(); ++p) {
    for (std::size_t e = 0; e < explorers.size(); ++e) {
      const std::size_t index = p * explorers.size() + e;
      if (!inShard[index]) continue;
      const programs::ProgramSpec* program = corpus[p];
      const ExplorerSpec spec = explorers[e];

      // Resume: a journaled cell is loaded, not re-run.
      if (journal != nullptr && journal->completed(index)) {
        CellResult cell = journal->loaded(index);
        cell.fromCheckpoint = true;
        if (options.onProgress) {
          emitFinished(cell);
        } else {
          markDone();
        }
        aggregator.submit(index, std::move(cell));
        continue;
      }

      tasks.push_back([&, program, spec, index] {
        CellResult cell;
        cell.programId = program->id;
        cell.program = program->name;
        cell.family = program->family;
        cell.explorer = spec.name;

        // Per-cell options: the checkpointable contract is a property of
        // the program, not of the campaign.
        explore::ExplorerOptions cellOptions = options.explorer;
        cellOptions.checkpointable = program->checkpointable;

        {
          ProgressEvent event;
          event.kind = ProgressEvent::Kind::CellStarted;
          event.scenario = cell.program;
          event.strategy = cell.explorer;
          event.scheduleLimit = options.explorer.scheduleLimit;
          emitEvent(std::move(event));
        }

        // A cell whose explorer throws is recorded with its error and zero
        // counts, and the campaign continues past it.
        const auto cellStart = Clock::now();
        try {
          auto explorer = spec.create(cellOptions, options.seed);
          cell.stats = explorer->explore(program->body);
        } catch (const std::exception& e) {
          cell.error = e.what();
        } catch (...) {
          cell.error = "unknown exception";
        }
        cell.wallSeconds = secondsSince(cellStart);
        cell.eventsPerSecond = eventsPerSecond(cell.stats, cell.wallSeconds);
        cell.executedEventsPerSecond =
            executedEventsPerSecond(cell.stats, cell.wallSeconds);
        if (!cell.failed()) {
          cell.inequalityDiagnostic = checkCountingChain(
              cell.program, cell.stats, options.explorer.scheduleLimit);
        } else {
          ProgressEvent event;
          event.kind = ProgressEvent::Kind::CellFailed;
          event.scenario = cell.program;
          event.strategy = cell.explorer;
          event.scheduleLimit = options.explorer.scheduleLimit;
          event.wallSeconds = cell.wallSeconds;
          emitEvent(std::move(event));
        }

        // Journal before announcing: once a consumer sees CellFinished the
        // cell must survive a kill.
        if (journal != nullptr) journal->record(index, cell);
        if (options.onProgress) {
          emitFinished(cell);
        } else {
          markDone();
        }
        aggregator.submit(index, std::move(cell));
      });
    }
  }

  support::WorkerPool pool(jobs);
  pool.run(std::move(tasks));

  CampaignResult result = aggregator.finish();
  result.wallSeconds = secondsSince(campaignStart);
  result.jobs = pool.workerCount();
  result.config = configEcho(options);

  if (options.onProgress) {
    ProgressEvent event;
    event.kind = ProgressEvent::Kind::CampaignFinished;
    event.schedulesExecuted = result.totals.schedulesExecuted;
    event.scheduleLimit = options.explorer.scheduleLimit;
    event.wallSeconds = result.wallSeconds;
    emitEvent(std::move(event));
  }
  return result;
}

std::string checkCountingChain(const std::string& program,
                               const ExplorationStats& stats,
                               std::uint64_t scheduleLimit) {
  const auto fail = [&](const char* link) {
    return program + ": counting chain violated (" + link + ")";
  };
  if (stats.distinctStates > stats.distinctValueClasses) {
    return fail("#states > #valueClasses");
  }
  if (stats.distinctValueClasses > stats.distinctLazyHbrs) {
    return fail("#valueClasses > #lazyHBRs");
  }
  if (stats.distinctLazyHbrs > stats.distinctHbrs) return fail("#lazyHBRs > #HBRs");
  if (stats.distinctHbrs > stats.schedulesExecuted) return fail("#HBRs > #schedules");
  if (stats.schedulesExecuted > scheduleLimit) return fail("#schedules > limit");
  return std::string();
}

Figure2Summary foldFigure2(const std::vector<ProgramSummary>& programs) {
  Figure2Summary s;
  for (const ProgramSummary& program : programs) {
    if (!program.hasDpor) continue;
    ++s.benchmarks;
    if (program.belowDiagonal) {
      ++s.belowDiagonal;
      s.hbrsBelow += program.dporHbrs;
      s.lazyHbrsBelow += program.dporLazyHbrs;
    }
  }
  s.redundantHbrs = s.hbrsBelow - s.lazyHbrsBelow;
  if (s.hbrsBelow > 0) {
    s.redundantPercent = 100.0 * static_cast<double>(s.redundantHbrs) /
                         static_cast<double>(s.hbrsBelow);
  }
  return s;
}

Figure3Summary foldFigure3(const std::vector<ProgramSummary>& programs) {
  Figure3Summary s;
  for (const ProgramSummary& program : programs) {
    if (!program.hasCachingPair) continue;
    ++s.benchmarks;
    if (program.cachingDiffers) {
      ++s.differing;
      s.extraLazyHbrs += program.lazyHbrsByLazyCaching - program.lazyHbrsByFullCaching;
      s.regularOnDiffering += program.lazyHbrsByFullCaching;
    } else if (program.lazyHbrsByFullCaching > program.lazyHbrsByLazyCaching) {
      ++s.regularWon;
    }
  }
  if (s.regularOnDiffering > 0) {
    s.extraPercent = 100.0 * static_cast<double>(s.extraLazyHbrs) /
                     static_cast<double>(s.regularOnDiffering);
  }
  return s;
}

}  // namespace lazyhb::campaign
