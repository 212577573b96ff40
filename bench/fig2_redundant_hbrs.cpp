// Reproduction of Figure 2: "The number of regular vs. lazy happens-before
// relations explored within 100,000 schedules of DPOR."
//
// For every benchmark, DPOR (regular HBR, sleep sets on — the technique the
// paper runs) explores up to --limit schedules; we count the distinct
// terminal HBRs (x) and distinct terminal lazy HBRs (y). A benchmark below
// the diagonal (y < x) explored HBR classes that the lazy HBR proves
// redundant. The paper reports 33 of 79 benchmarks below the diagonal, with
// 910,007 (80%) of the unique HBRs on those benchmarks redundant; we expect
// the same *shape* (a large below-diagonal subset with a high redundancy
// percentage), not the same absolute numbers (different corpus, budget and
// substrate).
//
// The measurement runs on the campaign layer, so the table is computed from
// the same aggregator as `lazyhb bench` and --out dumps the same versioned
// BENCH_*.json report.

#include <cstdio>

#include "bench_common.hpp"
#include "core/redundancy.hpp"

using namespace lazyhb;

int main(int argc, char** argv) {
  auto options = bench::corpusOptions(
      "fig2_redundant_hbrs",
      "Figure 2: #HBRs vs #lazy HBRs explored by DPOR per benchmark");
  options.addString("out", "", "also write the campaign JSON report here");
  if (!options.parse(argc, argv)) return options.parseError() ? 1 : 0;

  auto campaignOptions =
      bench::campaignOptions(options, {*campaign::parseExplorerSpec("dpor")});
  std::printf(
      "Figure 2 reproduction: DPOR with a %llu-schedule budget, %zu benchmarks\n\n",
      static_cast<unsigned long long>(campaignOptions.explorer.scheduleLimit),
      campaignOptions.programs.size());

  const campaign::CampaignResult result = campaign::runCampaign(campaignOptions);
  const std::vector<core::BenchmarkCounts> counts = campaign::fig2Counts(result);

  support::Table table({"id", "benchmark", "schedules", "#HBRs", "#lazyHBRs",
                        "hit-limit", "below-diagonal"});
  for (const core::BenchmarkCounts& row : counts) {
    table.beginRow();
    table.cell(static_cast<std::int64_t>(row.id));
    table.cell(row.name);
    table.cell(row.schedules);
    table.cell(row.hbrs);
    table.cell(row.lazyHbrs);
    table.cell(std::string(row.hitScheduleLimit ? "yes" : "no"));
    table.cell(std::string(row.lazyHbrs < row.hbrs ? "BELOW" : "-"));
  }
  bench::emit(table, options.getFlag("csv"));

  const core::Fig2Summary summary = core::summarizeFig2(counts);
  std::printf("\nSummary (ours):  %d/%d benchmarks below the diagonal;"
              " %s of %s unique HBRs on them are redundant (%.0f%%)\n",
              summary.belowDiagonal, summary.benchmarks,
              support::withCommas(summary.redundantHbrs).c_str(),
              support::withCommas(summary.hbrsBelow).c_str(),
              summary.redundantPercent);
  std::printf("Paper (Fig. 2):  33/79 benchmarks below the diagonal;"
              " 910,007 of the unique HBRs on them are redundant (80%%)\n");
  std::printf("Campaign: %.2fs wall (%.2fs cpu), %d job(s)\n",
              result.wallSeconds, result.cpuSeconds, result.jobs);
  if (!bench::maybeWriteReport(options, result)) return 1;
  return result.inequalityViolations == 0 ? 0 : 1;
}
