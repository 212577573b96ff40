// lazyhb/support/undo_log.hpp
//
// The undo log behind every rollback in the engine: the runtime's object
// table and store buffers and the trace recorder's object cursors each keep
// one. A mutable record is logged at most once per *epoch*: the first time
// it is touched after a mark(), its pre-image is appended; later touches in
// the same epoch coalesce into that entry. A capture therefore costs only
// the records touched since the previous one, and rolling back to a mark
// replays the entries above it newest-first.
//
// The log is an arena: entries past size() are dead but keep their storage
// (the vectors inside a pre-image keep their capacity), so a steady-state
// stage/rollback cycle allocates nothing. Epoch stamps live in the logged
// records themselves; epochs are never reused, so a stale stamp simply reads
// as "not logged in this epoch" and records never need their stamps reset.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/diagnostics.hpp"

namespace lazyhb::support {

template <typename Entry>
class UndoLog {
 public:
  /// Live entries: one per record first touched in an epoch since logging
  /// started.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Start a new epoch (logging is on from the first mark until clear())
  /// and return the current length: the mark a snapshot stores.
  std::size_t mark() noexcept {
    epoch_ = ++lastEpoch_;
    return size_;
  }

  /// First-touch gate for a record stamped `stamp`: true (and the record
  /// stamped) when its pre-image must be appended now — its first touch in
  /// this epoch while logging is on.
  [[nodiscard]] bool firstTouch(std::uint64_t& stamp) noexcept {
    if (epoch_ == 0 || stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }

  /// The slot to fill with the pre-image firstTouch asked for.
  [[nodiscard]] Entry& append() {
    if (size_ == entries_.size()) entries_.emplace_back();
    return entries_[size_++];
  }

  /// Hand the entries above `mark` to `undo` newest-first, drop them, and
  /// start a new epoch: writes after the rollback must log again, so the
  /// same mark can be rolled back to once more.
  template <typename Undo>
  void rollBack(std::size_t mark, Undo&& undo) {
    LAZYHB_CHECK(mark <= size_);
    while (size_ > mark) undo(entries_[--size_]);
    epoch_ = ++lastEpoch_;
  }

  /// Drop every entry and stop logging until the next mark().
  void clear() noexcept {
    size_ = 0;
    epoch_ = 0;
  }

 private:
  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  std::uint64_t epoch_ = 0;  ///< 0: not logging
  std::uint64_t lastEpoch_ = 0;
};

}  // namespace lazyhb::support
