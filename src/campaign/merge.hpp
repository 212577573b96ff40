// lazyhb/campaign/merge.hpp
//
// Reading campaign reports back: `lazyhb merge` and `lazyhb diff`. Both
// parse their inputs with one reader (schema v12 only; every statistic must
// be present with its table type) and compare cells with one function over
// the StatClass::Contract rows of explore/explorer.hpp's statistics table.
//
// Merging is the gather half of the shard/merge
// workflow (`lazyhb bench --shard i/N` on N hosts, `lazyhb merge` once).
// The merge is associative and commutative over reports with compatible
// configurations, so shards can be merged in any grouping and order and
// produce the same count set — the property tests/test_resume.cpp checks.
//
// Cell semantics:
//   * disjoint cells — union.
//   * duplicate cells with identical contract statistics — deduplicated
//     (one copy kept, chosen by a deterministic, order-independent
//     preference); scoreboard statistics may differ.
//   * duplicate cells where one copy failed — the healthy copy wins (a
//     rerun shard overlaps one whose explorer threw).
//   * duplicate CLEAN cells with different contract statistics — a hard
//     error naming each differing statistic and both values: two complete
//     runs of one configuration can never disagree under the determinism
//     contract, so differing counts mean the inputs lie about their
//     configuration (or a bug worth hearing about).
//
// Aggregates are never merged numerically: the merged cell set is re-folded
// through campaign::foldCells — the same fold a direct run uses — and every
// cell's §3 chain is re-checked, so a merged report cannot carry totals or
// inequality verdicts its own cells do not support.
//
// Diffing holds a candidate report to a baseline's counts, cell by cell,
// matched by (program, explorer): the CI gate every change must pass.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"

namespace lazyhb::campaign {

/// A merged campaign: the re-folded result (its config is the inputs'
/// common configuration, unsharded) and the provenance block for the output
/// report.
struct MergeOutcome {
  CampaignResult result;
  MergeProvenance provenance;
};

/// Two clean copies of one cell disagree on a contract statistic: the count
/// contract is broken, not the input.
class CountConflict : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Merge parsed-from-disk report documents. `labels[i]` names documents[i]
/// in provenance and error messages (the CLI passes filenames). Throws
/// CountConflict on conflicting duplicate cells, and std::runtime_error on
/// malformed input, schema/version mismatch or incompatible configurations.
[[nodiscard]] MergeOutcome mergeReports(const std::vector<std::string>& documents,
                                        const std::vector<std::string>& labels);

/// One row of the diff scoreboard: the geomean, over the compared cells of
/// one explorer at one worker count, of the candidate/baseline ratio of
/// each per-cell throughput.
struct RateRow {
  std::string explorer;  ///< "overall" for the last row
  std::string workers;   ///< "4", or "1->4" when the reports differ
  std::size_t cells = 0;
  double eventsPerSecond = 0.0;
  double executedEventsPerSecond = 0.0;
};

/// A candidate report held to a baseline. Cells are named
/// "<program> x <explorer>".
struct DiffOutcome {
  std::string memoryModel;
  std::size_t compared = 0;             ///< clean cells present in both
  std::vector<std::string> missing;     ///< cells only the baseline has
  std::vector<std::string> extra;       ///< cells only the candidate has
  std::vector<std::string> skipped;     ///< "<cell> [failed]"
  std::vector<std::string> mismatches;  ///< "<cell>: <path> <a> vs <b>, ..."
  std::vector<RateRow> rates;           ///< per (explorer, workers), then overall
  /// No mismatch, no missing cell, and no extra one unless allowed.
  bool contractHolds = false;
};

/// Compare two report documents. A failed copy makes its cell incomparable
/// (skipped). Throws std::runtime_error on malformed input,
/// schema/version mismatch, or reports whose memory_model, limit,
/// max_events or seed differ — those change counts by design.
[[nodiscard]] DiffOutcome diffReports(const std::string& baseline,
                                      const std::string& candidate,
                                      const std::string& baselineLabel,
                                      const std::string& candidateLabel,
                                      bool allowNewCells = false);

}  // namespace lazyhb::campaign
