// Empirical check of the paper's two theorems — and of the value-class
// soundness property behind the caching-value explorer — over the corpus:
//
//   Theorem 2.1: equal HBR         => equal terminal state.
//   Theorem 2.2: equal lazy HBR    => equal terminal state (the contribution).
//   Value:       equal value class => equal terminal state (the
//                observation-centric coarsening; see core/equivalence.hpp).
//
// Every terminal schedule explored by DPOR *and* by a random-walk explorer
// (for linearization diversity beyond what DFS order produces) feeds three
// EquivalenceChecker instances; a conflict — two schedules agreeing on the
// relation fingerprint but disagreeing on the state — would falsify the
// theorem (or expose a fingerprint collision). Also reports the compression
// each relation achieves: classes per state.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign/explorer_spec.hpp"
#include "campaign/work_stealing_pool.hpp"
#include "core/equivalence.hpp"
#include "programs/registry.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace lazyhb;

namespace {

struct Row {
  std::string name;
  int id = 0;
  std::uint64_t terminalSchedules = 0;
  core::EquivalenceChecker::Stats thm21;
  core::EquivalenceChecker::Stats thm22;
  core::EquivalenceChecker::Stats thmValue;
};

Row checkBenchmark(const programs::ProgramSpec& spec, std::uint64_t limit,
                   std::uint32_t maxEvents) {
  Row row;
  row.name = spec.name;
  row.id = spec.id;
  auto accumulate = [&](const explore::ExplorationResult& result) {
    row.terminalSchedules += result.terminalSchedules;
    row.thm21.schedules += result.theorem21.schedules;
    row.thm21.classes += result.theorem21.classes;
    row.thm21.states += result.theorem21.states;
    row.thm21.conflicts += result.theorem21.conflicts;
    row.thm22.schedules += result.theorem22.schedules;
    row.thm22.classes += result.theorem22.classes;
    row.thm22.states += result.theorem22.states;
    row.thm22.conflicts += result.theorem22.conflicts;
    row.thmValue.schedules += result.theoremValue.schedules;
    row.thmValue.classes += result.theoremValue.classes;
    row.thmValue.states += result.theoremValue.states;
    row.thmValue.conflicts += result.theoremValue.conflicts;
  };
  {
    explore::ExplorerOptions options;
    options.scheduleLimit = limit;
    options.maxEventsPerSchedule = maxEvents;
    options.checkTheorems = true;
    const auto explorer = campaign::parseExplorerSpec("dpor")->create(options, 42);
    accumulate(explorer->explore(spec.body));
  }
  {
    explore::ExplorerOptions options;
    options.scheduleLimit = limit / 2;
    options.maxEventsPerSchedule = maxEvents;
    options.checkTheorems = true;
    const auto explorer = campaign::parseExplorerSpec("random")->create(
        options, 0x5eedULL + static_cast<std::uint64_t>(spec.id));
    accumulate(explorer->explore(spec.body));
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options(
      "tab_theorem_check",
      "empirical verification of Theorems 2.1/2.2 and value soundness");
  options.addInt("limit", 10000, "schedule budget per benchmark (paper: 100000)");
  options.addInt("jobs", 4, "worker threads (benchmarks explored in parallel)");
  options.addInt("max-events", 65536, "per-schedule event budget");
  options.addFlag("csv", "also print machine-readable CSV");
  options.addString("only", "", "run a single benchmark by name");
  if (!options.parse(argc, argv)) return options.parseError() ? 1 : 0;

  std::vector<const programs::ProgramSpec*> corpus;
  const std::string only = options.getString("only");
  for (const auto& spec : programs::all()) {
    if (only.empty() || spec.name == only) corpus.push_back(&spec);
  }
  const auto limit = static_cast<std::uint64_t>(options.getInt("limit"));
  const auto maxEvents = static_cast<std::uint32_t>(options.getInt("max-events"));

  std::printf("Theorem + value-soundness check: DPOR + random walks, "
              "%llu-schedule budget\n\n",
              static_cast<unsigned long long>(limit));

  // Benchmarks are independent: explore them across a work-stealing pool,
  // each result landing in its corpus slot.
  std::vector<Row> rows(corpus.size());
  std::vector<campaign::WorkStealingPool::Task> tasks;
  tasks.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    tasks.push_back([&, i] { rows[i] = checkBenchmark(*corpus[i], limit, maxEvents); });
  }
  campaign::WorkStealingPool(static_cast<int>(options.getInt("jobs")))
      .run(std::move(tasks));

  support::Table table({"id", "benchmark", "terminal-scheds", "HBR-classes",
                        "lazy-classes", "value-classes", "states",
                        "2.1-conflicts", "2.2-conflicts", "value-conflicts"});
  std::uint64_t conflicts = 0;
  std::uint64_t totalTerminal = 0;
  std::uint64_t chainViolations = 0;
  for (const auto& row : rows) {
    conflicts += row.thm21.conflicts + row.thm22.conflicts + row.thmValue.conflicts;
    totalTerminal += row.terminalSchedules;
    // The class counts must respect the extended chain on every benchmark:
    // a value class unions one or more lazy classes, never the reverse.
    if (row.thmValue.states > row.thmValue.classes ||
        row.thmValue.classes > row.thm22.classes ||
        row.thm22.classes > row.thm21.classes) {
      ++chainViolations;
    }
    table.beginRow();
    table.cell(static_cast<std::int64_t>(row.id));
    table.cell(row.name);
    table.cell(row.terminalSchedules);
    table.cell(row.thm21.classes);
    table.cell(row.thm22.classes);
    table.cell(row.thmValue.classes);
    table.cell(row.thm22.states);
    table.cell(row.thm21.conflicts);
    table.cell(row.thm22.conflicts);
    table.cell(row.thmValue.conflicts);
  }
  std::fputs(table.toText().c_str(), stdout);
  if (options.getFlag("csv")) {
    std::fputs("\n--- CSV ---\n", stdout);
    std::fputs(table.toCsv().c_str(), stdout);
  }

  std::printf("\n%s terminal schedules checked; %llu theorem conflicts"
              " (must be 0: equal-(lazy)HBR and equal-value-class schedules"
              " always reached equal states); %llu chain violations"
              " (must be 0: #states <= #valueClasses <= #lazyHBRs <= #HBRs)\n",
              support::withCommas(totalTerminal).c_str(),
              static_cast<unsigned long long>(conflicts),
              static_cast<unsigned long long>(chainViolations));
  return conflicts == 0 && chainViolations == 0 ? 0 : 1;
}
