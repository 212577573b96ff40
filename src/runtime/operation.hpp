// lazyhb/runtime/operation.hpp
//
// The vocabulary of *visible operations*: the events a controlled execution
// is made of. Every inter-thread interaction in a program under test is one
// of these operations; each is a scheduling point, and each committed
// operation becomes one event in the trace.
//
// Event identity must be schedule-invariant: the same logical operation must
// carry the same label in every schedule that executes it, or partial-order
// fingerprints would be meaningless. Threads and objects are therefore named
// by stable 64-bit UIDs derived from (creator uid, per-creator sequence
// number) rather than by runtime indices, which depend on scheduling order.

#pragma once

#include <cstdint>
#include <string>

#include "support/hash.hpp"

namespace lazyhb::runtime {

/// Kinds of visible operations.
enum class OpKind : std::uint8_t {
  Read,       ///< Shared<T>::load
  Write,      ///< Shared<T>::store
  Rmw,        ///< Shared<T>::fetchAdd / compareExchange (read-modify-write)
  Lock,       ///< Mutex::lock acquisition (blocks while held)
  Unlock,     ///< Mutex::unlock
  TryLock,    ///< Mutex::tryLock (never blocks; result is part of the label)
  Wait,       ///< CondVar::wait release step (atomically unlocks and parks)
  Reacquire,  ///< CondVar::wait re-acquisition step after being signalled
  Signal,     ///< CondVar::signal (wakes at most one waiter, FIFO)
  Broadcast,  ///< CondVar::broadcast (wakes all waiters)
  SemAcquire, ///< Semaphore::acquire (blocks while the count is zero)
  SemRelease, ///< Semaphore::release
  Spawn,      ///< thread creation
  Join,       ///< thread join (blocks until the target finishes)
  Yield,      ///< pure scheduling point, no object
  Flush,      ///< TSO: the oldest buffered store of one thread lands in
              ///< memory. Committed by a flush *pick* (memory/), never
              ///< published by a fiber; its EventRecord carries the flush
              ///< agent's identity, not the buffer owner's.
  Fence,      ///< lazyhb::fence(): store-buffer drain point. Under TSO it is
              ///< enabled only when the caller's buffer is empty; under SC
              ///< it is a Yield-like no-op event, so fenced programs run
              ///< under both models.
};

[[nodiscard]] const char* opKindName(OpKind kind) noexcept;

/// True for operations that modify their primary object. Reads are the only
/// non-modifying variable accesses; every mutex/condvar/semaphore operation
/// is treated as a modification of its object (the classic HBR treats lock
/// and unlock as writes to the mutex).
[[nodiscard]] constexpr bool isModification(OpKind kind) noexcept {
  return kind != OpKind::Read;
}

/// True for the operations whose same-mutex conflict edges the *lazy* HBR
/// discards: blocking lock, unlock, and the condvar wait steps (which are an
/// unlock and a lock in disguise). TryLock is deliberately excluded — its
/// result observes the mutex state, so erasing its edges would break
/// Theorem 2.2 (see docs/architecture.md §2–3).
[[nodiscard]] constexpr bool isLazyErasableMutexOp(OpKind kind) noexcept {
  return kind == OpKind::Lock || kind == OpKind::Unlock ||
         kind == OpKind::Wait || kind == OpKind::Reacquire;
}

/// Kinds of registered shared objects.
enum class ObjectKind : std::uint8_t {
  Var,
  Mutex,
  CondVar,
  Semaphore,
  Thread,  ///< threads double as objects so spawn/join events have a target
};

[[nodiscard]] const char* objectKindName(ObjectKind kind) noexcept;

/// Schedule-invariant identifier for a thread or object.
using Uid = std::uint64_t;

/// UID of the root thread (thread index 0, which runs the test body).
inline constexpr Uid kRootThreadUid = 0x526f6f7454687230ULL;  // "RootThr0"

/// Derive a child UID from its creator's UID and a per-creator sequence
/// number. mix64 is bijective per (creator, seq) pair modulo collisions,
/// which at 64 bits are not a practical concern for < 2^20 objects.
[[nodiscard]] constexpr Uid deriveUid(Uid creator, std::uint32_t seq,
                                      ObjectKind kind) noexcept {
  return support::mix64(creator ^ support::mix64(
      (static_cast<std::uint64_t>(seq) << 8) | static_cast<std::uint64_t>(kind)));
}

/// A committed visible operation: one entry in the execution's event log.
/// This is the runtime's output vocabulary; the trace module turns streams
/// of EventRecords into happens-before structures.
struct EventRecord {
  int threadIndex = -1;          ///< runtime thread index (execution-local)
  std::uint32_t indexInThread = 0;  ///< 0-based per-thread event counter
  OpKind kind = OpKind::Yield;
  /// TryLock: 1 on success. Write: 1 when the store entered a TSO store
  /// buffer instead of memory (part of the label — whether a given static
  /// store buffers is a function of the Shared<T>'s engine residency, not
  /// of scheduling, so labels stay schedule-invariant; under SC every
  /// write has aux 0 and labels are byte-identical to before). Otherwise 0.
  std::uint64_t aux = 0;

  Uid threadUid = 0;             ///< schedule-invariant thread identity
  Uid objectUid = 0;             ///< primary object (0 for Yield)
  std::int32_t objectIndex = -1; ///< execution-local object index (-1 none)

  /// For Wait/Reacquire: the mutex involved alongside the condvar.
  Uid mutexUid = 0;
  std::int32_t mutexIndex = -1;

  /// Global index (into the schedule) of special predecessor events, or -1:
  std::int32_t signalPredecessor = -1;  ///< Signal/Broadcast that woke us (Reacquire)
  std::int32_t spawnPredecessor = -1;   ///< parent's Spawn event (first event of a thread)
  std::int32_t joinPredecessor = -1;    ///< joined thread's last event (Join)

  /// Var accesses: the variable's value hash at commit time — the value a
  /// Read observed (under TSO: forwarded from the reader's own store buffer
  /// when a matching entry exists, memory otherwise), the post-state a
  /// Write/Rmw committed (for a TSO-buffered Write: the value enqueued, not
  /// yet in memory), the value a Flush landed in memory. 0 for non-Var
  /// events. Deliberately NOT part of labelHash(): labels name *which*
  /// operation ran, values are what it saw — the Value relation mixes them
  /// separately.
  std::uint64_t valueHash = 0;

  /// Schedule-invariant label hash: identifies *which* operation this is
  /// independently of where in the schedule it ran. Four multiply-folds:
  /// thread x (per-thread index, kind), object x (mutex, aux), then the two
  /// words into 128 bits. `mutexUid ^ aux` is unambiguous because the only
  /// events with a mutex (Wait, Reacquire) all have aux 0.
  [[nodiscard]] support::Hash128 labelHash() const noexcept {
    const std::uint64_t op =
        (static_cast<std::uint64_t>(indexInThread) << 8) | static_cast<std::uint64_t>(kind);
    return support::hash128(support::foldPair(threadUid, op),
                            support::foldPair(objectUid, mutexUid ^ aux));
  }

  bool operator==(const EventRecord&) const = default;
};

/// How one controlled execution ended.
enum class Outcome : std::uint8_t {
  Terminal,          ///< every thread ran to completion
  Deadlock,          ///< unfinished threads remain but none is enabled
  AssertionFailure,  ///< a checkAlways() in the program under test failed
  UsageError,        ///< program misused the API (e.g. unlock of a free mutex)
  EventLimit,        ///< exceeded Config::maxEventsPerSchedule
  Abandoned,         ///< the scheduler pruned this execution midway
};

[[nodiscard]] const char* outcomeName(Outcome outcome) noexcept;

/// True for outcomes that should be reported as property violations.
[[nodiscard]] constexpr bool isViolation(Outcome outcome) noexcept {
  return outcome == Outcome::Deadlock || outcome == Outcome::AssertionFailure ||
         outcome == Outcome::UsageError;
}

}  // namespace lazyhb::runtime
