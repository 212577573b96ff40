// Shared driver for the figure/table reproduction benches: runs an explorer
// over the benchmark corpus (optionally in parallel — explorations of
// distinct benchmarks are independent), and prints aligned tables plus
// optional CSV for external plotting.
//
// Benches whose measurement is a plain (programs × explorers) matrix go
// through the campaign layer (campaignOptions/maybeWriteReport below), so
// their tables come from the same aggregator as `lazyhb bench` and they can
// dump the same versioned BENCH_*.json via --out. Benches with bespoke
// per-benchmark procedures keep using runCorpus.

#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/work_stealing_pool.hpp"
#include "explore/explorer.hpp"
#include "programs/registry.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace lazyhb::bench {

/// Options shared by every corpus bench.
inline support::Options corpusOptions(const char* name, const char* description) {
  support::Options options(name, description);
  options.addInt("limit", 10000, "schedule budget per benchmark (paper: 100000)");
  options.addInt("jobs", 4, "worker threads (benchmarks explored in parallel)");
  options.addInt("max-events", 65536, "per-schedule event budget");
  options.addFlag("csv", "also print machine-readable CSV");
  options.addString("only", "", "run a single benchmark by name");
  return options;
}

/// The subset of the corpus selected by --only (default: everything).
inline std::vector<const programs::ProgramSpec*> selectCorpus(
    const support::Options& options) {
  std::vector<const programs::ProgramSpec*> selected;
  const std::string only = options.getString("only");
  for (const auto& spec : programs::all()) {
    if (only.empty() || spec.name == only) selected.push_back(&spec);
  }
  return selected;
}

/// Run `explore(spec)` for every selected benchmark across a work-stealing
/// pool; results land in a vector parallel to the selection.
template <typename Result>
std::vector<Result> runCorpus(
    const std::vector<const programs::ProgramSpec*>& corpus, int jobs,
    const std::function<Result(const programs::ProgramSpec&)>& explore) {
  std::vector<Result> results(corpus.size());
  std::vector<campaign::WorkStealingPool::Task> tasks;
  tasks.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    tasks.push_back([&, i] { results[i] = explore(*corpus[i]); });
  }
  campaign::WorkStealingPool(jobs).run(std::move(tasks));
  return results;
}

/// Build campaign options from the shared corpus flags for a matrix bench
/// running `explorers` over the --only selection.
inline campaign::CampaignOptions campaignOptions(
    const support::Options& options,
    std::vector<campaign::ExplorerSpec> explorers) {
  campaign::CampaignOptions co;
  co.explorers = std::move(explorers);
  co.programs = selectCorpus(options);
  co.explorer.scheduleLimit = static_cast<std::uint64_t>(options.getInt("limit"));
  co.explorer.maxEventsPerSchedule =
      static_cast<std::uint32_t>(options.getInt("max-events"));
  co.jobs = static_cast<int>(options.getInt("jobs"));
  return co;
}

/// Honour a bench's --out flag: write the campaign's versioned JSON report
/// (its config block echoes what the campaign ran with). Returns false when
/// --out was given but the file could not be written — callers must fail
/// their exit status, or a pipeline depending on the BENCH_*.json artifact
/// sees success with no report.
[[nodiscard]] inline bool maybeWriteReport(
    const support::Options& options, const campaign::CampaignResult& result) {
  const std::string out = options.getString("out");
  if (out.empty()) return true;
  if (!campaign::writeFile(out, campaign::writeReportJson(result))) return false;
  if (out != "-") std::printf("report: %s\n", out.c_str());
  return true;
}

inline void emit(const support::Table& table, bool csv) {
  std::fputs(table.toText().c_str(), stdout);
  if (csv) {
    std::fputs("\n--- CSV ---\n", stdout);
    std::fputs(table.toCsv().c_str(), stdout);
  }
}

}  // namespace lazyhb::bench
