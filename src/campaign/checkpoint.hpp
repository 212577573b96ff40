// lazyhb/campaign/checkpoint.hpp
//
// The on-disk campaign journal: crash-durable progress for long campaigns.
// A journal directory holds
//
//   manifest.json   — the campaign's count-relevant configuration, written
//                     once at creation; a resume against a directory whose
//                     manifest differs throws (silently mixing counts from
//                     two configurations would poison the determinism
//                     contract).
//   cell-<i>.json   — one file per completed matrix cell, the same cell
//                     object the report's "cells" array carries (written by
//                     campaign::writeCellJson), where <i> is the cell's
//                     program-major matrix index. Written atomically
//                     (tmp + fsync + rename), so a cell file either exists
//                     complete or not at all — a SIGKILL mid-campaign loses
//                     at most the cells in flight.
//
// Resume is therefore trivial: completed cells are the cell files present;
// pending cells are the rest. runCampaign loads the former and re-runs only
// the latter. See docs/campaign-service.md for the workflow.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace lazyhb::campaign {

/// Everything that can change a cell's counts (plus the shard slice, so two
/// shards never share a journal directory by accident): the campaign's
/// config echo plus the journal-only fields. Field-for-field equality with
/// the on-disk manifest gates a resume.
struct JournalConfig : CampaignConfig {
  bool detectRaces = false;
  bool stopOnFirstViolation = false;
  /// Explorer / program name lists in matrix order — cell indices are only
  /// meaningful relative to these.
  std::vector<std::string> explorers;
  std::vector<std::string> programs;
};

/// Decode one journal cell file's content: the cell object writeCellJson
/// wrote. Throws std::runtime_error naming `name` when it is malformed.
[[nodiscard]] CellResult readJournalCell(const std::string& document,
                                         const std::string& name);

/// One campaign's journal directory. Construction opens an existing journal
/// (verifying its manifest and loading every completed cell) or creates a
/// fresh one. record() is thread-safe; completed()/loaded() are read-only
/// after construction and need no locking from runCampaign's threads.
class CampaignJournal {
 public:
  /// Throws std::runtime_error when the directory cannot be created, when
  /// an existing manifest does not match `config`, when a cell file is
  /// unreadable or holds another slot's (program, explorer), or when
  /// `requireExisting` and there is no manifest (the CLI's --resume against
  /// an empty directory). Only the exact names record() writes are cell
  /// files; any other name is a stray file and is ignored.
  CampaignJournal(std::string directory, const JournalConfig& config,
                  bool requireExisting);

  /// True when the journal already holds the cell at matrix slot `index`.
  [[nodiscard]] bool completed(std::size_t index) const {
    return loaded_.count(index) != 0;
  }
  /// The journaled cell at `index`; completed(index) must hold.
  [[nodiscard]] const CellResult& loaded(std::size_t index) const {
    return loaded_.at(index);
  }
  [[nodiscard]] std::size_t completedCount() const noexcept {
    return loaded_.size();
  }

  /// Persist a finished cell atomically. Thread-safe; throws
  /// std::runtime_error when the write fails (a campaign that cannot
  /// journal must not pretend it is durable).
  void record(std::size_t index, const CellResult& cell);

 private:
  std::string directory_;
  std::map<std::size_t, CellResult> loaded_;
  std::mutex writeMutex_;
};

}  // namespace lazyhb::campaign
