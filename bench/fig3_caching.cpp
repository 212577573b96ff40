// Reproduction of Figure 3: "The number of lazy happens-before relations
// explored within 100,000 schedules of regular vs. lazy HBR caching."
//
// For every benchmark two explorations run under the same schedule budget:
// HBR caching (prefix cache keyed on regular-HBR fingerprints, Musuvathi &
// Qadeer) and lazy HBR caching (keyed on lazy-HBR fingerprints, the paper's
// contribution). We count the distinct terminal lazy HBRs each reached.
// Lazy caching prunes redundant prefixes earlier, so within a fixed budget
// it reaches at least as many — and on contended benchmarks strictly more —
// terminal lazy HBRs. The paper reports 18 benchmarks where the techniques
// differ, with lazy caching exploring 8,969 (84%) more terminal lazy HBRs
// across them.
//
// Note on plotting conventions: the paper's prose counts the differing
// benchmarks as "below the diagonal"; with x = regular caching and
// y = lazy caching those points satisfy y > x. We report them as
// "differing" to avoid the ambiguity.
//
// The measurement runs on the campaign layer — both caching cells of every
// benchmark are independent campaign tasks, so the two explorations of one
// benchmark can even run on different workers. The table is computed from
// the same aggregator as `lazyhb bench` and --out dumps the same versioned
// BENCH_*.json report.

#include <cstdio>

#include "bench_common.hpp"
#include "core/redundancy.hpp"

using namespace lazyhb;

int main(int argc, char** argv) {
  auto options = bench::corpusOptions(
      "fig3_caching",
      "Figure 3: lazy HBRs explored by regular vs. lazy HBR caching");
  options.addString("out", "", "also write the campaign JSON report here");
  if (!options.parse(argc, argv)) return options.parseError() ? 1 : 0;

  auto campaignOptions = bench::campaignOptions(
      options, {*campaign::parseExplorerSpec("caching-full"),
                *campaign::parseExplorerSpec("caching-lazy")});
  std::printf("Figure 3 reproduction: HBR caching vs lazy HBR caching,"
              " %llu-schedule budget, %zu benchmarks\n\n",
              static_cast<unsigned long long>(
                  campaignOptions.explorer.scheduleLimit),
              campaignOptions.programs.size());

  const campaign::CampaignResult result = campaign::runCampaign(campaignOptions);
  const std::vector<core::CachingCounts> rows = campaign::fig3Counts(result);

  support::Table table({"id", "benchmark", "lazyHBRs(HBR-caching)",
                        "lazyHBRs(lazy-caching)", "sched(reg)", "sched(lazy)",
                        "hit-limit", "differs"});
  for (const core::CachingCounts& row : rows) {
    table.beginRow();
    table.cell(static_cast<std::int64_t>(row.id));
    table.cell(row.name);
    table.cell(row.lazyHbrsByRegularCaching);
    table.cell(row.lazyHbrsByLazyCaching);
    table.cell(row.schedulesRegular);
    table.cell(row.schedulesLazy);
    table.cell(std::string(row.hitScheduleLimit ? "yes" : "no"));
    table.cell(std::string(
        row.lazyHbrsByLazyCaching > row.lazyHbrsByRegularCaching ? "LAZY+" : "-"));
  }
  bench::emit(table, options.getFlag("csv"));

  const core::Fig3Summary summary = core::summarizeFig3(rows);
  std::printf("\nSummary (ours):  %d/%d benchmarks differ;"
              " lazy HBR caching explored %s (%.0f%%) more terminal lazy HBRs"
              " across them; regular caching never won on %d\n",
              summary.differing, summary.benchmarks,
              support::withCommas(summary.extraLazyHbrs).c_str(),
              summary.extraPercent, summary.regularWon);
  std::printf("Paper (Fig. 3):  18/79 benchmarks differ; lazy HBR caching"
              " explored 8,969 (84%%) more terminal lazy HBRs across them\n");
  std::printf("Campaign: %.2fs wall (%.2fs cpu), %d job(s)\n",
              result.wallSeconds, result.cpuSeconds, result.jobs);
  if (!bench::maybeWriteReport(options, result)) return 1;
  return result.inequalityViolations == 0 ? 0 : 1;
}
