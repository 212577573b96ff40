// lazyhb/trace/clock_arena.hpp
//
// A flat arena of vector-clock rows: one contiguous uint32 matrix with a
// fixed row width (the execution's thread capacity), rows appended in event
// order. This replaces one heap-allocated VectorClock per event per relation
// in the recorder's hot loop with a bump append into pooled storage —
// joining and copying become branch-free loops over raw spans the compiler
// can vectorise, and the rows of consecutive events are cache-adjacent.
//
// Width handling: the stride persists across reset() (cross-execution
// reuse), so after the first execution of a program the arena never
// re-strides again; resetWidth() returns it to the initial width for the
// next exploration. When an execution spawns a thread index beyond the
// current stride, widen() re-strides every existing row in place,
// zero-padding the new components (a missing component is zero by the
// clock convention, so widening never changes a clock's value).

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/diagnostics.hpp"
#include "trace/vector_clock.hpp"

namespace lazyhb::trace {

/// Pointwise maximum of two equal-width raw clock spans, dst <- max(dst, src).
inline void joinClockSpans(std::uint32_t* dst, const std::uint32_t* src,
                           std::uint32_t width) noexcept {
  for (std::uint32_t i = 0; i < width; ++i) {
    dst[i] = dst[i] < src[i] ? src[i] : dst[i];
  }
}

class ClockArena {
 public:
  /// The row width a new arena starts with.
  static constexpr std::uint32_t kInitialStride = 8;

  explicit ClockArena(std::uint32_t stride = kInitialStride) : stride_(stride) {}

  /// Drop all rows, keeping the stride and the allocation (steady-state
  /// executions perform no allocation here).
  void reset() noexcept { rowCount_ = 0; }

  /// Drop all rows and return to the initial width, keeping the
  /// allocation: what a new exploration starts from, so that one program's
  /// wide rows do not outlive it.
  void resetWidth() noexcept {
    rowCount_ = 0;
    stride_ = kInitialStride;
  }

  /// Drop every row past the first `rows` — the arena-side half of the
  /// recorder's restore(snapshot). Rows are append-only, so rolling a
  /// prefix back is pure truncation: the retained rows are untouched and
  /// the storage stays allocated for the re-extension that follows.
  void truncate(std::size_t rows) noexcept {
    LAZYHB_ASSERT(rows <= rowCount_);
    rowCount_ = rows;
  }

  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rowCount_; }

  /// Append one uninitialised row and return its storage; the caller must
  /// fill all `stride()` components. Pointers from row()/appendRow() are
  /// invalidated by the next appendRow() or widen().
  [[nodiscard]] std::uint32_t* appendRow() {
    const std::size_t need = (rowCount_ + 1) * stride_;
    if (need > data_.size()) {
      data_.resize(std::max<std::size_t>(need, data_.size() * 2));
    }
    return data_.data() + (rowCount_++) * stride_;
  }

  [[nodiscard]] const std::uint32_t* row(std::size_t index) const noexcept {
    return data_.data() + index * stride_;
  }

  [[nodiscard]] ClockView view(std::size_t index) const noexcept {
    LAZYHB_ASSERT(index < rowCount_);
    return ClockView{row(index), stride_};
  }

  /// Grow the row width to at least `minStride`, re-striding every existing
  /// row and zero-padding the new components. Rare: only runs when an
  /// execution spawns more threads than any execution before it.
  void widen(std::uint32_t minStride) {
    if (minStride <= stride_) return;
    const std::uint32_t oldStride = stride_;
    const std::uint32_t newStride = minStride;
    data_.resize(std::max<std::size_t>(rowCount_ * newStride, data_.size()));
    // Back to front: each row moves to a higher address, so walking from the
    // last row keeps sources intact until they are consumed.
    for (std::size_t i = rowCount_; i-- > 0;) {
      std::uint32_t* dst = data_.data() + i * newStride;
      const std::uint32_t* src = data_.data() + i * oldStride;
      std::memmove(dst, src, oldStride * sizeof(std::uint32_t));
      std::memset(dst + oldStride, 0,
                  (newStride - oldStride) * sizeof(std::uint32_t));
    }
    stride_ = newStride;
  }

 private:
  std::vector<std::uint32_t> data_;
  std::size_t rowCount_ = 0;
  std::uint32_t stride_;
};

}  // namespace lazyhb::trace
