// lazyhb/runtime/fiber.hpp
//
// Stackful cooperative fibers.
//
// Each logical thread of a program under test runs on a fiber; the scheduler
// runs on the host context. On x86-64 and aarch64 the switch is a
// hand-rolled swap of the callee-saved register file (~10 ns, no kernel
// involvement); elsewhere it falls back to POSIX ucontext, whose swapcontext
// carries a rt_sigprocmask syscall per switch (~25% of campaign wall time
// when it is the switch primitive — see docs/performance.md). Either way the
// whole engine stays on one OS thread, so there is no data race in the
// engine itself.
//
// Fast-fiber builds additionally support *snapshotting*: while a fiber is
// suspended (or finished), the used portion of its stack plus its saved
// stack pointer fully determine its continuation, and because restore
// copies the bytes back into the very same stack buffer, every pointer into
// the stack stays valid. This is what lets a resumable Execution fork
// itself at a scheduling point and later roll back (execution.hpp). Not
// available under AddressSanitizer (fake-stack bookkeeping cannot be
// rewound) or with the ucontext fallback.
//
// Stacks are pooled and reused across the millions of short executions an
// exploration performs (Per.14: minimise allocations). A fresh stack is not
// zero-filled: a fiber reads only stack bytes it wrote, and a pooled stack
// hands the next fiber the previous one's bytes anyway. A finished fiber can
// be re-armed with a new entry on the stack it already owns, so an
// Execution restarted in place creates no fiber at all (execution.hpp).
//
// Teardown of unfinished fibers is *forward-running*, not unwinding: the
// execution wakes each fiber and grants every subsequent visible operation
// immediately as a no-op, so the fiber runs to the natural end of its entry
// function with all destructors executing in ordinary (non-exceptional)
// contexts. Unwinding via an exception would std::terminate whenever the
// suspension point sits inside a destructor (e.g. a lock guard publishing
// its unlock), which is the common case. AbandonExecution exists for the
// one legitimate throw site: failed assertions in straight-line user code.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

// The fast switch swaps exactly the registers the psABI makes callee-saved:
// on x86-64 the six GP registers, on aarch64 x19-x28 + fp/lr and the low
// halves of v8-v15. The FP control words are deliberately not saved (the
// engine is single-OS-threaded and never changes them between switches).
// Any other target uses ucontext.
#if defined(__x86_64__) && !defined(_WIN32) && !defined(LAZYHB_FORCE_UCONTEXT)
#define LAZYHB_FAST_FIBER 1
#elif defined(__aarch64__) && defined(__ELF__) && !defined(LAZYHB_FORCE_UCONTEXT)
#define LAZYHB_FAST_FIBER 1
#else
#include <ucontext.h>
#endif

// Snapshot/restore relies on raw stack bytes round-tripping through memcpy;
// ASan's fake stacks and ucontext's opaque machine contexts both break that.
#ifndef __has_feature
#define LAZYHB_HAS_FEATURE(x) 0
#else
#define LAZYHB_HAS_FEATURE(x) __has_feature(x)
#endif
#if defined(LAZYHB_FAST_FIBER) && !defined(__SANITIZE_ADDRESS__) && \
    !LAZYHB_HAS_FEATURE(address_sanitizer)
#define LAZYHB_FIBER_SNAPSHOT 1
#endif

namespace lazyhb::runtime {

/// Thrown by checkAlways() failures (and as a last resort when teardown fuel
/// runs out) to abort the fiber's entry function. The fiber trampoline
/// catches it. User code must let it propagate.
struct AbandonExecution {};

/// A reusable fixed-size fiber stack.
class StackPool {
 public:
  explicit StackPool(std::size_t stackBytes = 128 * 1024) : stackBytes_(stackBytes) {}

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  [[nodiscard]] std::size_t stackBytes() const noexcept { return stackBytes_; }

  /// Get a stack (reusing a previously released one when available).
  [[nodiscard]] std::unique_ptr<char[]> acquire();

  /// Return a stack to the pool.
  void release(std::unique_ptr<char[]> stack);

  [[nodiscard]] std::size_t pooledCount() const noexcept { return free_.size(); }

 private:
  std::size_t stackBytes_;
  std::vector<std::unique_ptr<char[]>> free_;
};

/// Saved continuation of a suspended fiber: the used stack bytes plus the
/// saved stack pointer. Only meaningful for the fiber it was taken from
/// (restore writes the bytes back into the same stack buffer). The byte
/// buffer is pooled by reuse: repeated snapshotTo calls into one image
/// perform no allocation once its capacity covers the deepest stack seen.
struct FiberImage {
  std::vector<char> bytes;
  void* fiberSp = nullptr;
  bool started = false;
  bool finished = false;
};

/// One stackful coroutine. resume() switches into the fiber until it calls
/// yieldToHost() or its entry function returns; finished() reports the
/// latter.
class Fiber {
 public:
  /// True when this build can snapshot/restore suspended fibers (fast-fiber
  /// switch and no AddressSanitizer).
  static constexpr bool kSnapshotSupported =
#if defined(LAZYHB_FIBER_SNAPSHOT)
      true;
#else
      false;
#endif

  Fiber(StackPool& pool, std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the host context into the fiber. Precondition: !finished().
  void resume();

  /// Switch from inside the fiber back to the host. Must be called on the
  /// currently running fiber.
  void yieldToHost();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Capture the fiber's continuation. Must be called from the host while
  /// the fiber is suspended (or finished). Requires kSnapshotSupported.
  void snapshotTo(FiberImage& image) const;

  /// Restore a continuation previously captured from *this* fiber. The
  /// fiber's current state (suspended or finished) is discarded.
  void restoreFrom(const FiberImage& image);

  /// Re-arm a finished (or never-started) fiber to run `entry` from the top
  /// of the stack it already owns, as if newly constructed on that stack.
  void rearm(std::function<void()> entry);

  /// Drop the entry function of a finished (or never-started) fiber,
  /// releasing whatever its closure owns. The stack stays, for rearm().
  void disarm() noexcept { entry_ = nullptr; }

  /// Discard a suspended fiber without running it to completion: the stack
  /// is dropped as raw bytes. Only legitimate during an Execution rollback,
  /// where everything the stack owns is engine-managed or covered by the
  /// checkpointable-program contract (no owning pointers into the heap).
  void abandonForRollback() noexcept { finished_ = true; }

 private:
  void run();
  /// Fabricate the context whose first resume() enters run() at the top of
  /// the stack (constructor and rearm()).
  void armEntry();

  StackPool& pool_;
  std::unique_ptr<char[]> stack_;
  std::function<void()> entry_;
#if defined(LAZYHB_FAST_FIBER)
  friend void fiberEntryThunkTarget(void* self);
  void* fiberSp_ = nullptr;  ///< fiber's saved stack pointer while suspended
  void* hostSp_ = nullptr;   ///< host's saved stack pointer while the fiber runs
#else
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t fiberContext_{};
  ucontext_t hostContext_{};
#endif
  bool started_ = false;
  bool finished_ = false;
  // Sanitizer fiber-switch bookkeeping (unused in plain builds).
  void* hostFakeStack_ = nullptr;
  void* fiberFakeStack_ = nullptr;
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackSize_ = 0;
};

}  // namespace lazyhb::runtime
