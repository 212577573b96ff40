// lazyhb/trace/vector_clock.hpp
//
// Vector clocks over execution-local thread indices.
//
// A clock maps thread index -> number of that thread's events known to have
// happened before (and including) the owning point. Clocks are compared and
// joined pointwise; a missing component is zero. Clocks are never compared
// across executions (fingerprints are the cross-execution currency).
//
// Two representations:
//   ClockView   — a non-owning span over a row of the recorder's ClockArena
//                 (trace/clock_arena.hpp). This is what the hot path and the
//                 recorder's accessors deal in: two registers, no ownership.
//   VectorClock — an owning, growable clock for the test layers and
//                 anywhere a clock must outlive the arena it came from.
//                 Convertible from a ClockView.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/diagnostics.hpp"

namespace lazyhb::trace {

/// Non-owning read view of one clock row. Components beyond `width` are zero
/// by convention, so views of different widths interoperate. A
/// default-constructed view is the zero clock.
class ClockView {
 public:
  constexpr ClockView() = default;
  constexpr ClockView(const std::uint32_t* data, std::uint32_t width) noexcept
      : data_(data), width_(width) {}

  /// Component for thread `tid` (zero if beyond the row's width).
  [[nodiscard]] constexpr std::uint32_t get(int tid) const noexcept {
    const auto i = static_cast<std::uint32_t>(tid);
    return i < width_ ? data_[i] : 0;
  }

  [[nodiscard]] constexpr std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] constexpr const std::uint32_t* data() const noexcept { return data_; }

  /// True iff this clock is pointwise <= other.
  [[nodiscard]] bool leq(ClockView other) const noexcept {
    const std::uint32_t shared = std::min(width_, other.width_);
    for (std::uint32_t i = 0; i < shared; ++i) {
      if (data_[i] > other.data_[i]) return false;
    }
    for (std::uint32_t i = shared; i < width_; ++i) {
      if (data_[i] != 0) return false;
    }
    return true;
  }

 private:
  const std::uint32_t* data_ = nullptr;
  std::uint32_t width_ = 0;
};

[[nodiscard]] inline bool operator==(ClockView a, ClockView b) noexcept {
  const std::uint32_t n = std::max(a.width(), b.width());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (a.get(static_cast<int>(i)) != b.get(static_cast<int>(i))) return false;
  }
  return true;
}

class VectorClock {
 public:
  VectorClock() = default;

  /// Materialise an owning copy of an arena row.
  explicit VectorClock(ClockView view)
      : components_(view.data(), view.data() + view.width()) {}

  /// Component for thread `tid` (zero if beyond current width).
  [[nodiscard]] std::uint32_t get(int tid) const noexcept {
    const auto i = static_cast<std::size_t>(tid);
    return i < components_.size() ? components_[i] : 0;
  }

  void set(int tid, std::uint32_t value) {
    const auto i = static_cast<std::size_t>(tid);
    if (i >= components_.size()) components_.resize(i + 1, 0);
    components_[i] = value;
  }

  /// Pointwise maximum with another clock.
  void joinWith(const VectorClock& other) {
    if (other.components_.size() > components_.size()) {
      components_.resize(other.components_.size(), 0);
    }
    for (std::size_t i = 0; i < other.components_.size(); ++i) {
      components_[i] = std::max(components_[i], other.components_[i]);
    }
  }

  /// True iff this clock is pointwise <= other (this happened-before-or-
  /// equals other's point of view).
  [[nodiscard]] bool leq(const VectorClock& other) const noexcept {
    return view().leq(other.view());
  }

  void clear() noexcept { components_.clear(); }

  [[nodiscard]] std::size_t width() const noexcept { return components_.size(); }

  [[nodiscard]] ClockView view() const noexcept {
    return ClockView{components_.data(),
                     static_cast<std::uint32_t>(components_.size())};
  }

  friend bool operator==(const VectorClock&, const VectorClock&);

 private:
  std::vector<std::uint32_t> components_;
};

[[nodiscard]] bool operator==(const VectorClock& a, const VectorClock& b);

}  // namespace lazyhb::trace
