// Side-by-side comparison of every exploration strategy on one benchmark
// from the corpus (default: disjoint-lock-3, the paper's motivating shape).
//
//   $ ./build/examples/compare_reduction --benchmark indexer-coarse-3
//
// Useful for building intuition about what each reduction pays for: naive
// enumeration visits every schedule, DPOR with sleep sets skips schedules
// that only reorder independent events (though it can still run several
// per HBR class), HBR caching prunes schedule prefixes with previously-seen
// HBRs, and lazy HBR caching prunes prefixes with previously-seen *lazy*
// HBRs — the coarsest sound equivalence of the four. All four runs go
// through lazyhb::Session.

#include <cstdio>

#include "lazyhb/lazyhb.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace lazyhb;

int main(int argc, char** argv) {
  support::Options options("compare_reduction",
                           "compare exploration strategies on one benchmark");
  options.addString("benchmark", "disjoint-lock-3", "benchmark name (see README)");
  options.addInt("limit", 100000, "schedule budget");
  if (!options.parse(argc, argv)) return options.parseError() ? 1 : 0;

  const std::string benchmark = options.getString("benchmark");
  std::string description;
  bool known = false;
  for (const ScenarioInfo& info : scenarios()) {
    if (info.name == benchmark) {
      known = true;
      description = info.description;
    }
  }
  if (!known) {
    std::fprintf(stderr, "unknown benchmark '%s'; available:\n", benchmark.c_str());
    for (const ScenarioInfo& info : scenarios()) {
      std::fprintf(stderr, "  %-24s %s\n", info.name.c_str(),
                   info.description.c_str());
    }
    return 1;
  }

  const Session session =
      Session().schedules(static_cast<std::uint64_t>(options.getInt("limit")));

  std::printf("benchmark: %s — %s\n\n", benchmark.c_str(), description.c_str());

  support::Table table({"strategy", "schedules", "#HBRs", "#lazyHBRs", "#states",
                        "complete", "violations"});
  const struct {
    const char* label;
    const char* strategy;
  } rows[] = {
      {"naive DFS", "dfs"},
      {"DPOR + sleep sets", "dpor"},
      {"HBR caching", "caching-full"},
      {"lazy HBR caching", "caching-lazy"},
  };
  for (const auto& row : rows) {
    const TestReport report = Session(session).strategy(row.strategy).run(benchmark);
    table.beginRow();
    table.cell(std::string(row.label));
    table.cell(report.schedulesExecuted);
    table.cell(report.distinctHbrs);
    table.cell(report.distinctLazyHbrs);
    table.cell(report.distinctStates);
    table.cell(std::string(report.complete ? "yes" : "no"));
    table.cell(report.violationSchedules);
  }

  std::fputs(table.toText().c_str(), stdout);
  std::printf("\nAll strategies must agree on #states (and on #lazyHBRs when"
              " complete); schedules is the cost each paid.\n");
  return 0;
}
