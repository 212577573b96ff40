// Tests for the campaign layer: the shared ExplorerSpec factory, the JSON
// writer, the worker pool, determinism of the parallel campaign
// (identical per-cell counts whatever --jobs is), aggregation, and the
// versioned report — including the HbrCache footprint stat it surfaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/explorer_spec.hpp"
#include "campaign/report.hpp"
#include "core/hbr_cache.hpp"
#include "programs/registry.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/worker_pool.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lazyhb;
using lazyhb::testing::expectSameContractStats;

// --- ExplorerSpec factory ----------------------------------------------------

TEST(ExplorerSpec, ParsesEveryCanonicalName) {
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    const auto parsed = campaign::parseExplorerSpec(spec.name);
    ASSERT_TRUE(parsed.has_value()) << spec.name;
    EXPECT_EQ(parsed->search, spec.search);
    EXPECT_EQ(parsed->cacheKey, spec.cacheKey);
    EXPECT_EQ(parsed->name, spec.name);
  }
  EXPECT_EQ(campaign::allExplorers().size(), 5u);
}

TEST(ExplorerSpec, RejectsUnknownNames) {
  EXPECT_FALSE(campaign::parseExplorerSpec("").has_value());
  EXPECT_FALSE(campaign::parseExplorerSpec("bfs").has_value());
  EXPECT_FALSE(campaign::parseExplorerSpec("caching").has_value());
  EXPECT_FALSE(campaign::parseExplorerSpec("DFS").has_value());  // case matters
  EXPECT_FALSE(campaign::parseExplorerSpec("dfs ").has_value());
}

TEST(ExplorerSpec, ParseListSplitsAndValidates) {
  const auto all = campaign::parseExplorerList("");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->size(), 5u);

  const auto two = campaign::parseExplorerList("dpor, caching-lazy");
  ASSERT_TRUE(two.has_value());
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0].name, "dpor");
  EXPECT_EQ((*two)[1].name, "caching-lazy");

  std::string bad;
  EXPECT_FALSE(campaign::parseExplorerList("dpor,warp,dfs", &bad).has_value());
  EXPECT_EQ(bad, "warp");
}

TEST(ExplorerSpec, CreatedExplorersAreFresh) {
  explore::ExplorerOptions options;
  options.scheduleLimit = 50;
  const programs::ProgramSpec* program = programs::byName("disjoint-lock-2");
  ASSERT_NE(program, nullptr);
  for (const campaign::ExplorerSpec& spec : campaign::allExplorers()) {
    auto first = spec.create(options, 7);
    auto second = spec.create(options, 7);
    ASSERT_NE(first, nullptr);
    // Each instance is single-use; both must run without tripping the
    // explore-once check, and identical configs give identical counts.
    const auto a = first->explore(program->body);
    const auto b = second->explore(program->body);
    EXPECT_EQ(a.schedulesExecuted, b.schedulesExecuted) << spec.name;
    EXPECT_EQ(a.distinctLazyHbrs, b.distinctLazyHbrs) << spec.name;
  }
}

// --- JSON writer -------------------------------------------------------------

/// Minimal unescaper for round-trip checks (handles exactly what jsonEscape
/// emits: the shorthand escapes and \u00xx).
std::string jsonUnescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const int code = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unexpected escape \\" << s[i];
    }
  }
  return out;
}

TEST(JsonWriter, EscapingRoundTrips) {
  const std::string nasty =
      "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\x07 nul-adjacent:\x1f";
  const std::string escaped = support::jsonEscape(nasty);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_NE(escaped.find("\\u0007"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_EQ(jsonUnescape(escaped), nasty);
}

TEST(JsonWriter, NestedStructure) {
  support::JsonWriter json;
  json.beginObject();
  json.field("name", std::string("a\"b"));
  json.field("count", std::uint64_t{18446744073709551615ull});
  json.field("signed", std::int64_t{-3});
  json.field("ratio", 0.5);
  json.field("flag", true);
  json.key("list").beginArray();
  json.value(std::uint64_t{1});
  json.beginObject().field("inner", std::string("x")).endObject();
  json.endArray();
  json.key("empty").beginObject().endObject();
  json.endObject();

  const std::string doc = json.str();
  EXPECT_EQ(doc,
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"count\": 18446744073709551615,\n"
            "  \"signed\": -3,\n"
            "  \"ratio\": 0.5,\n"
            "  \"flag\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    {\n"
            "      \"inner\": \"x\"\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  support::JsonWriter json;
  json.beginArray();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.endArray();
  EXPECT_EQ(json.str(), "[\n  null,\n  null\n]");
}

// --- worker pool -------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  support::WorkerPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4);
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  std::vector<support::WorkerPool::Task> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&ran, i] { ran[i].fetch_add(1); });
  }
  pool.run(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(WorkerPool, ReusableAcrossBatchesAndClampsWorkers) {
  support::WorkerPool pool(0);  // clamps to 1
  EXPECT_EQ(pool.workerCount(), 1);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<support::WorkerPool::Task> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 30);
  pool.run({});  // empty batch is a no-op
  EXPECT_EQ(counter.load(), 30);
}

TEST(WorkerPool, BackToBackBatchesWithManyWorkers) {
  // Regression: run() queues the next batch while straggler workers from
  // the previous batch may still be waking up and checking the queue —
  // every push must take the queue mutex.
  support::WorkerPool pool(8);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<support::WorkerPool::Task> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 50 * 16);
}

TEST(WorkerPool, HungryOnlyWhenAWorkerParksOnAnEmptyFrontier) {
  // Two workers, two tasks: while both run a task they took, the empty
  // queue means nothing — nobody is idle, so nobody should split work off.
  // Once one task ends and its worker parks, the survivor sees hunger; a
  // submitted task feeds the parked worker at once.
  support::WorkerPool pool(2);
  std::atomic<int> running{0};
  std::atomic<bool> releaseSecond{false};
  std::atomic<bool> hungryWhileBothRun{true};
  std::atomic<bool> becameHungry{false};
  std::atomic<bool> hungryAfterSubmit{true};
  std::atomic<bool> checked{false};
  auto waitForBoth = [&running] {
    running.fetch_add(1);
    while (running.load() < 2) std::this_thread::yield();
  };
  std::vector<support::WorkerPool::Task> tasks;
  tasks.push_back([&] {
    waitForBoth();
    hungryWhileBothRun = pool.hungry();
    releaseSecond = true;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pool.hungry() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    becameHungry = pool.hungry();
    // The fed worker stays busy until we have looked, so it cannot park
    // again first.
    pool.submit([&checked] {
      while (!checked.load()) std::this_thread::yield();
    });
    hungryAfterSubmit = pool.hungry();
    checked = true;
  });
  tasks.push_back([&] {
    waitForBoth();
    while (!releaseSecond.load()) std::this_thread::yield();
  });
  pool.run(std::move(tasks));
  EXPECT_FALSE(hungryWhileBothRun.load());
  EXPECT_TRUE(becameHungry.load());
  EXPECT_FALSE(hungryAfterSubmit.load());
}

// --- campaign runner ---------------------------------------------------------

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

TEST(Campaign, MatrixShapeAndOrderIsProgramMajor) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  ASSERT_EQ(result.programs.size(), 4u);
  ASSERT_EQ(result.perExplorer.size(), 5u);
  ASSERT_EQ(result.cells.size(), 20u);
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t e = 0; e < 5; ++e) {
      const campaign::CellResult& cell = result.cells[p * 5 + e];
      EXPECT_EQ(cell.program, result.programs[p].program);
      EXPECT_EQ(cell.explorer, result.perExplorer[e].explorer);
    }
  }
}

TEST(Campaign, PerCellCountsIdenticalAcrossJobCounts) {
  const auto serial = campaign::runCampaign(smallCampaign(1));
  const auto parallel = campaign::runCampaign(smallCampaign(8));
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const campaign::CellResult& a = serial.cells[i];
    const campaign::CellResult& b = parallel.cells[i];
    const std::string label = a.program + " x " + a.explorer;
    EXPECT_EQ(a.program, b.program) << label;
    EXPECT_EQ(a.explorer, b.explorer) << label;
    expectSameContractStats(a.stats, b.stats, label);
    EXPECT_EQ(a.inequalityDiagnostic, b.inequalityDiagnostic) << label;
  }
  EXPECT_EQ(serial.totals.schedulesExecuted, parallel.totals.schedulesExecuted);
  EXPECT_EQ(serial.totals.totalEvents, parallel.totals.totalEvents);
}

/// One cell, `explorer` on disjoint-lock-2, at `jobs` and `workers`.
campaign::CampaignOptions oneCell(const char* explorer, int jobs, int workers) {
  campaign::CampaignOptions options;
  options.explorers = *campaign::parseExplorerList(explorer);
  options.programs.push_back(programs::byName("disjoint-lock-2"));
  options.explorer.scheduleLimit = 10;
  options.explorer.workers = workers;
  options.jobs = jobs;
  return options;
}

TEST(Campaign, RefusesMoreThreadsThanTheBoundBeforeAnyPoolExists) {
  // jobs x workers one past the bound, either factor past it alone, and
  // auto jobs with workers past it: each is refused, and no pool is built.
  constexpr int kBound = support::kMaxWorkerThreads;
  const std::uint64_t pools = support::WorkerPool::poolsBuilt();
  for (const auto& [jobs, workers] :
       {std::pair{17, 16}, std::pair{kBound + 1, 1}, std::pair{1, kBound + 1},
        std::pair{0, kBound + 1}}) {
    EXPECT_THROW((void)campaign::runCampaign(oneCell("dfs", jobs, workers)),
                 std::invalid_argument)
        << jobs << " x " << workers;
  }
  EXPECT_EQ(support::WorkerPool::poolsBuilt(), pools);
}

TEST(Campaign, AutoJobsStayWithinTheThreadBound) {
  // --jobs 0 resolves to min(hardware threads, bound / workers). A random
  // cell never shards, so its workers start no crew.
  const int workers = support::kMaxWorkerThreads / 2;
  const auto result = campaign::runCampaign(oneCell("random", 0, workers));
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(result.jobs, std::max(1, std::min(hardware, 2)));
  EXPECT_EQ(result.cells.size(), 1u);
}

TEST(Campaign, InequalityHoldsAndTotalsAddUp) {
  const auto result = campaign::runCampaign(smallCampaign(3));
  EXPECT_EQ(result.inequalityViolations, 0);
  std::uint64_t schedules = 0;
  for (const campaign::CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.inequalityHolds())
        << cell.program << " x " << cell.explorer << ": "
        << cell.inequalityDiagnostic;
    schedules += cell.stats.schedulesExecuted;
  }
  EXPECT_EQ(result.totals.schedulesExecuted, schedules);
  std::uint64_t perExplorerSchedules = 0;
  for (const campaign::ExplorerTotals& totals : result.perExplorer) {
    EXPECT_EQ(totals.cells, 4u);
    perExplorerSchedules += totals.stats.schedulesExecuted;
  }
  EXPECT_EQ(perExplorerSchedules, schedules);
}

TEST(Campaign, ProgramSummariesCarryFigureViews) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  for (const campaign::ProgramSummary& program : result.programs) {
    EXPECT_TRUE(program.inequalityHolds) << program.program;
    ASSERT_TRUE(program.hasDpor) << program.program;
    EXPECT_LE(program.dporLazyHbrs, program.dporHbrs) << program.program;
    ASSERT_TRUE(program.hasCachingPair) << program.program;
    // Within the same budget lazy caching reaches at least as many terminal
    // lazy HBRs (the Figure 3 direction).
    EXPECT_GE(program.lazyHbrsByLazyCaching, program.lazyHbrsByFullCaching)
        << program.program;
  }
  // disjoint-lock programs are the paper's motivating case: strictly below
  // the diagonal under DPOR.
  EXPECT_TRUE(result.programs[0].belowDiagonal);
  EXPECT_GT(result.programs[0].redundantHbrPercent, 0.0);
}

TEST(Campaign, CacheStatsSurfaceFootprint) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  for (const campaign::CellResult& cell : result.cells) {
    const CacheStats& cache = cell.stats.cacheStats;
    if (cell.explorer == "caching-full" || cell.explorer == "caching-lazy") {
      EXPECT_TRUE(cache.enabled) << cell.program;
      EXPECT_GT(cache.entries, 0u) << cell.program;
      EXPECT_GT(cache.approxBytes, 0u) << cell.program;
      EXPECT_EQ(cache.insertions, cache.entries) << cell.program;
    } else {
      EXPECT_FALSE(cache.enabled) << cell.program << " x " << cell.explorer;
      EXPECT_EQ(cache.approxBytes, 0u);
    }
  }
}

TEST(Campaign, ProgressCallbackSeesEveryCell) {
  auto options = smallCampaign(4);
  std::vector<std::size_t> doneValues;
  std::size_t observedTotal = 0;
  std::size_t started = 0;
  std::size_t finishedCampaigns = 0;
  options.onProgress = [&](const ProgressEvent& event) {
    switch (event.kind) {
      case ProgressEvent::Kind::CellStarted:
        ++started;
        break;
      case ProgressEvent::Kind::CellFinished:
        doneValues.push_back(event.cellsDone);
        observedTotal = event.cellsTotal;
        EXPECT_FALSE(event.scenario.empty());
        EXPECT_FALSE(event.strategy.empty());
        break;
      case ProgressEvent::Kind::CampaignFinished:
        ++finishedCampaigns;
        break;
      default:
        break;
    }
  };
  const auto result = campaign::runCampaign(options);
  EXPECT_EQ(doneValues.size(), result.cells.size());
  EXPECT_EQ(started, result.cells.size());
  EXPECT_EQ(observedTotal, result.cells.size());
  EXPECT_EQ(finishedCampaigns, 1u);
  // The serialized callback counts monotonically 1..N.
  for (std::size_t i = 0; i < doneValues.size(); ++i) {
    EXPECT_EQ(doneValues[i], i + 1);
  }
}

// --- report ------------------------------------------------------------------

TEST(Report, VersionedAndStructurallySound) {
  const auto result = campaign::runCampaign(smallCampaign(2));
  const std::string json = campaign::writeReportJson(result);

  EXPECT_NE(json.find("\"schema\": \"lazyhb-bench-report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 12"), std::string::npos);
  // v12: totals carries no campaign-wide tasks_stolen.
  std::string parseError;
  const auto parsed = support::JsonValue::parse(json, &parseError);
  ASSERT_NE(parsed, nullptr) << parseError;
  const support::JsonValue* totals = parsed->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_FALSE(totals->has("tasks_stolen"));
  // config.workers, config.snapshot_budget and config.memory_model are
  // required (the report readers refuse a report without them), and every
  // cell carries its value-class count.
  EXPECT_NE(json.find("\"value_classes\""), std::string::npos);
  // v10: the three theorem-conflict counts, 0 on a sound engine.
  EXPECT_NE(json.find("\"hbr_conflicts\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"lazy_hbr_conflicts\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"value_conflicts\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"memory_model\": \"sc\""), std::string::npos);
  // An SC campaign buffers nothing, so no cell emits the optional v8
  // per-cell tso block.
  EXPECT_EQ(json.find("\"tso\""), std::string::npos);
  // A clean unsharded run emits none of the v5 optional fields.
  EXPECT_EQ(json.find("\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_budget\""), std::string::npos);
  // The campaign ran incrementally, so every cell carries its v6
  // checkpoint block.
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_staged\""), std::string::npos);
  EXPECT_NE(json.find("\"inequality_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"explorer\": \"caching-lazy\""), std::string::npos);
  EXPECT_NE(json.find("\"approx_bytes\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // Structural sanity without a parser: balanced braces/brackets outside
  // strings (the writer never emits braces inside these cells' strings).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Report, HbrCacheFootprintGrowsWithInsertions) {
  core::HbrCache cache;
  const std::size_t empty = cache.approxMemoryBytes();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.insert(support::hash128(i));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_GT(cache.approxMemoryBytes(), empty);
  EXPECT_GE(cache.approxMemoryBytes(), 1000 * sizeof(support::Hash128));
  cache.clear();
  EXPECT_LT(cache.approxMemoryBytes(), 1000 * sizeof(support::Hash128));
}

}  // namespace
