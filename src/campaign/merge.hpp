// lazyhb/campaign/merge.hpp
//
// Merging campaign reports: the gather half of the shard/merge
// workflow (`lazyhb bench --shard i/N` on N hosts, `lazyhb merge` once).
// The merge is associative and commutative over reports with compatible
// configurations, so shards can be merged in any grouping and order and
// produce the same count set — the property tests/test_resume.cpp checks.
//
// Cell semantics:
//   * disjoint cells — union.
//   * duplicate cells with identical contract statistics (the
//     StatClass::Contract rows of explore/explorer.hpp's statistics table)
//     — deduplicated (one copy kept, chosen by a deterministic,
//     order-independent preference); scoreboard statistics may differ.
//   * duplicate cells where one copy timed out or failed — the healthy /
//     deeper copy wins (a resumed shard overlaps a partial one).
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

#pragma once

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

/// Merge parsed-from-disk report documents. `labels[i]` names documents[i]
/// in provenance and error messages (the CLI passes filenames). Throws
/// std::runtime_error on malformed input, schema/version mismatch,
/// incompatible configurations, or conflicting duplicate cells.
[[nodiscard]] MergeOutcome mergeReports(const std::vector<std::string>& documents,
                                        const std::vector<std::string>& labels);

}  // namespace lazyhb::campaign
