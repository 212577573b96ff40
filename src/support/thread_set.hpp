// lazyhb/support/thread_set.hpp
//
// A compact set of thread indices backed by a single 64-bit word.
//
// The execution engine caps a test program at 64 logical threads, which lets
// enabled sets, sleep sets and backtrack sets be single registers: set
// algebra is one instruction, iteration is a ctz loop, and snapshots taken at
// every scheduling point are free. Per the HPC guidance (compact data
// structures, no allocation on hot paths) this type is used everywhere a set
// of threads appears.

#pragma once

#include <bit>
#include <cstdint>

#include "support/diagnostics.hpp"

namespace lazyhb::support {

/// Maximum number of logical threads in one controlled execution.
inline constexpr int kMaxThreads = 64;

/// Value-type set of thread indices in [0, kMaxThreads).
class ThreadSet {
 public:
  constexpr ThreadSet() = default;

  /// Singleton set {tid}.
  [[nodiscard]] static constexpr ThreadSet single(int tid) noexcept {
    return ThreadSet(bitFor(tid));
  }

  /// The set {0, 1, ..., n-1}.
  [[nodiscard]] static constexpr ThreadSet firstN(int n) noexcept {
    LAZYHB_CHECK(n >= 0 && n <= kMaxThreads);
    return ThreadSet(n == kMaxThreads ? ~0ULL : ((1ULL << n) - 1));
  }

  constexpr void insert(int tid) noexcept { bits_ |= bitFor(tid); }
  constexpr void erase(int tid) noexcept { bits_ &= ~bitFor(tid); }
  constexpr void clear() noexcept { bits_ = 0; }

  [[nodiscard]] constexpr bool contains(int tid) const noexcept {
    return (bits_ & bitFor(tid)) != 0;
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return bits_ == 0; }
  /// A branch-free bit count: std::popcount compiles to a libgcc call
  /// where the target has no popcnt instruction (the x86-64 baseline).
  [[nodiscard]] constexpr int size() const noexcept {
    std::uint64_t x = bits_ - ((bits_ >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
  }

  /// Smallest element; set must be non-empty.
  [[nodiscard]] constexpr int first() const noexcept {
    LAZYHB_CHECK(!empty());
    return std::countr_zero(bits_);
  }

  /// Smallest element strictly greater than tid, or -1 if none.
  [[nodiscard]] constexpr int next(int tid) const noexcept {
    const std::uint64_t rest = bits_ & ~((bitFor(tid) << 1) - 1);
    return rest == 0 ? -1 : std::countr_zero(rest);
  }

  [[nodiscard]] constexpr ThreadSet unionWith(ThreadSet o) const noexcept {
    return ThreadSet(bits_ | o.bits_);
  }
  [[nodiscard]] constexpr ThreadSet intersect(ThreadSet o) const noexcept {
    return ThreadSet(bits_ & o.bits_);
  }
  [[nodiscard]] constexpr ThreadSet minus(ThreadSet o) const noexcept {
    return ThreadSet(bits_ & ~o.bits_);
  }

  [[nodiscard]] constexpr std::uint64_t raw() const noexcept { return bits_; }

  friend constexpr bool operator==(ThreadSet, ThreadSet) = default;

  /// Minimal forward iteration support: `for (int tid : set) ...`.
  class Iterator {
   public:
    constexpr explicit Iterator(std::uint64_t bits) noexcept : bits_(bits) {}
    constexpr int operator*() const noexcept { return std::countr_zero(bits_); }
    constexpr Iterator& operator++() noexcept {
      bits_ &= bits_ - 1;  // clear lowest set bit
      return *this;
    }
    friend constexpr bool operator==(Iterator, Iterator) = default;

   private:
    std::uint64_t bits_;
  };

  [[nodiscard]] constexpr Iterator begin() const noexcept { return Iterator(bits_); }
  [[nodiscard]] constexpr Iterator end() const noexcept { return Iterator(0); }

 private:
  constexpr explicit ThreadSet(std::uint64_t bits) noexcept : bits_(bits) {}

  [[nodiscard]] static constexpr std::uint64_t bitFor(int tid) noexcept {
    LAZYHB_CHECK(tid >= 0 && tid < kMaxThreads);
    return 1ULL << static_cast<unsigned>(tid);
  }

  std::uint64_t bits_ = 0;
};

}  // namespace lazyhb::support
