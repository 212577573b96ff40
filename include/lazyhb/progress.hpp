// lazyhb/progress.hpp — the public progress-event surface.
//
// One event type flows through every layer that reports progress: a
// sequential exploration emits ScheduleTick (Session::onProgress), the
// campaign runner emits per cell CellStarted, CellFailed when the cell's
// explorer threw, and always CellFinished, then one final
// CampaignFinished (Suite::onProgress, `lazyhb bench --progress` /
// --progress-json). Consumers switch on `kind` and read the fields that
// apply; unused fields are zero/empty.
//
// Callback contract (see docs/embedding.md):
//   * thread — ScheduleTick fires synchronously on the exploring thread;
//     campaign events fire on worker threads but are serialized by the
//     campaign runner (never two callbacks concurrently).
//   * frequency — ScheduleTick every Session::progressInterval schedules
//     (default 1024); campaign events once per lifecycle transition.
//   * reentrancy — the callback must not call back into the emitting
//     Session/Suite, and should return quickly (it blocks the exploration).
//   * parallelism — a Session-level ScheduleTick callback forces the
//     exploration sequential (ticks from racing shard workers would
//     interleave nondeterministically); campaign-level events are
//     unaffected by --jobs/--workers.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace lazyhb {

struct ProgressEvent {
  enum class Kind : std::uint8_t {
    ScheduleTick,      ///< a sequential exploration passed a tick boundary
    CellStarted,       ///< a campaign cell began executing
    CellFinished,      ///< a campaign cell completed (possibly from a journal)
    CellFailed,        ///< a cell's explorer threw; CellFinished follows
    CampaignFinished,  ///< the whole matrix is done
  };

  Kind kind = Kind::ScheduleTick;
  std::string scenario;  ///< program under test (empty for CampaignFinished)
  std::string strategy;  ///< explorer mode (empty for CampaignFinished)
  std::uint64_t schedulesExecuted = 0;
  std::uint64_t scheduleLimit = 0;
  std::size_t cellsDone = 0;   ///< finished cells, campaign events only
  std::size_t cellsTotal = 0;  ///< cells this run will execute (the shard's)
  double wallSeconds = 0.0;    ///< elapsed wall time of the emitting scope
  bool fromCheckpoint = false; ///< CellFinished satisfied from a journal
};

using ProgressCallback = std::function<void(const ProgressEvent&)>;

/// The canonical spelling of an event kind ("schedule_tick",
/// "cell_started", ...) — the `event` field of --progress-json lines.
[[nodiscard]] inline const char* progressKindName(ProgressEvent::Kind kind) noexcept {
  switch (kind) {
    case ProgressEvent::Kind::ScheduleTick: return "schedule_tick";
    case ProgressEvent::Kind::CellStarted: return "cell_started";
    case ProgressEvent::Kind::CellFinished: return "cell_finished";
    case ProgressEvent::Kind::CellFailed: return "cell_failed";
    case ProgressEvent::Kind::CampaignFinished: return "campaign_finished";
  }
  return "unknown";
}

}  // namespace lazyhb
