// lazyhb/campaign/report.hpp
//
// The versioned, machine-readable campaign report (BENCH_*.json). The
// schema is documented in docs/bench-report-schema.md; bump
// kSuiteReportSchemaVersion on any field change a consumer could observe.
// Writing goes through support::JsonWriter, reading through
// support::JsonValue — no third-party JSON dependency.
//
// The statistics codec and the per-cell block serializers are exposed
// because several producers must agree byte-for-byte: the report writer,
// the campaign journal (campaign/checkpoint.hpp stores one cell block per
// file), the report reader behind merge and diff (campaign/merge.hpp
// re-reads cell blocks from inputs) and the single-run test report
// (TestReport::toJson). Every statistic is read and written through the
// table in explore/explorer.hpp.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "lazyhb/suite.hpp"

namespace lazyhb::support {
class JsonWriter;
struct JsonValue;
}  // namespace lazyhb::support

namespace lazyhb::campaign {

/// Write the statistics the table places at the top level as fields of the
/// open JSON object.
void writeTopStats(support::JsonWriter& json, const ExplorationStats& stats);

/// Write every optional statistics block present in `stats` (cache,
/// checkpoint, tso) as a nested object of the open JSON object.
void writeStatBlocks(support::JsonWriter& json, const ExplorationStats& stats);

/// Where a merged report's cells came from: one entry per (transitively)
/// merged input. Emitted as the top-level "merge" block; absent from
/// directly-run reports.
struct MergeSource {
  std::string label;        ///< input filename (or caller-supplied label)
  int shardIndex = 0;       ///< the input's config.shard, 0/1 when unsharded
  int shardCount = 1;
  std::uint64_t cells = 0;  ///< cells the input contributed
};

struct MergeProvenance {
  std::vector<MergeSource> sources;
};

/// Serialize one matrix cell as the schema's cell object. The exact
/// encoding shared by the report's "cells" array and the campaign journal's
/// per-cell files.
void writeCellJson(support::JsonWriter& json, const CellResult& cell);

/// Parse a cell object written by writeCellJson back into a CellResult.
/// Returns false (and sets *error) on a malformed or incomplete block:
/// every top-level statistic of the table must be present, and so must
/// every row of an optional block that is present, each as an unsigned
/// integer (a bool for `complete` and `hit_schedule_limit`).
/// Fields the report does not carry (violation reproducers, race reports)
/// come back at their defaults — the journal and the report reader only
/// ever need the report-visible projection.
[[nodiscard]] bool parseCellJson(const support::JsonValue& value,
                                 CellResult* cell, std::string* error);

/// Serialize the campaign into the versioned report JSON (a full document,
/// newline-terminated); the config block echoes result.config.
/// `provenance`, when non-null and non-empty, becomes the top-level "merge"
/// block.
[[nodiscard]] std::string writeReportJson(
    const CampaignResult& result, const MergeProvenance* provenance = nullptr);

/// Write `document` to `path` ("-" means stdout). Returns false (with a
/// message on stderr) when the file cannot be written.
bool writeFile(const std::string& path, const std::string& document);

/// The whole content of `path`. Throws std::runtime_error naming the path
/// when it cannot be read.
[[nodiscard]] std::string readFile(const std::string& path);

}  // namespace lazyhb::campaign
