#include "runtime/fiber.hpp"

#include <cstdint>
#include <cstring>
#include <utility>

#include "support/diagnostics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace lazyhb::runtime {

std::unique_ptr<char[]> StackPool::acquire() {
  if (!free_.empty()) {
    auto stack = std::move(free_.back());
    free_.pop_back();
    return stack;
  }
  // Not zero-filled: the switch frame is fabricated and a fiber reads only
  // bytes it wrote (see fiber.hpp).
  return std::make_unique_for_overwrite<char[]>(stackBytes_);
}

void StackPool::release(std::unique_ptr<char[]> stack) {
  free_.push_back(std::move(stack));
}

// --- sanitizer fiber-switch protocol ----------------------------------------
// Every switch A->B must bracket as: A calls startSwitch(&A.fakeSave,
// B.stack); B, immediately after gaining control, calls
// finishSwitch(B.fakeSave, &A.stack-out). The first entry into a fiber and
// the final exit (dying fiber passes a null save slot) are special-cased.

#if defined(__SANITIZE_ADDRESS__)
#define LAZYHB_ASAN_START(saveSlot, bottom, size) \
  __sanitizer_start_switch_fiber((saveSlot), (bottom), (size))
#define LAZYHB_ASAN_FINISH(save, bottomOut, sizeOut) \
  __sanitizer_finish_switch_fiber((save), (bottomOut), (sizeOut))
#else
#define LAZYHB_ASAN_START(saveSlot, bottom, size) ((void)0)
#define LAZYHB_ASAN_FINISH(save, bottomOut, sizeOut) ((void)0)
#endif

#if defined(LAZYHB_FAST_FIBER)

// --- fast switch ------------------------------------------------------------
// A switch saves the psABI callee-saved register file onto the running
// stack, publishes the resulting stack pointer through *saveSp, adopts
// restoreSp and restores the target's register file. The FP environment
// (mxcsr/x87 control words, FPCR) is deliberately not saved: all fibers
// share one OS thread and the engine never alters it between switches.
//
// A brand-new fiber's stack is fabricated so the first switch "returns"
// into fiberEntryThunk with the Fiber* parked in a callee-saved register
// (%r12 on x86-64, x19 on aarch64).

extern "C" {
void lazyhbFiberSwitch(void** saveSp, void* restoreSp);
void lazyhbFiberEntryThunk();
void lazyhbFiberEntry(void* self);
}

#if defined(__x86_64__)

// x86-64 SysV: six callee-saved GP registers. Frame layout, low to high,
// matching the pop sequence: r15 r14 r13 r12 rbx rbp <thunk address>. The
// frame base is 16-byte aligned, so after the seven 8-byte pops the thunk
// starts with %rsp aligned and the ABI call alignment holds.
asm(R"(
.text
.p2align 4
.globl lazyhbFiberSwitch
.type lazyhbFiberSwitch, @function
lazyhbFiberSwitch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size lazyhbFiberSwitch, .-lazyhbFiberSwitch

.p2align 4
.globl lazyhbFiberEntryThunk
.type lazyhbFiberEntryThunk, @function
lazyhbFiberEntryThunk:
  movq %r12, %rdi
  callq lazyhbFiberEntry
  ud2
.size lazyhbFiberEntryThunk, .-lazyhbFiberEntryThunk
)");

#elif defined(__aarch64__)

// AAPCS64: callee-saved x19-x28, the frame pair x29/x30, and the low 64
// bits of v8-v15 (d8-d15) — 20 eight-byte slots, a 160-byte frame that
// keeps sp 16-byte aligned throughout. `ret` branches to the restored x30,
// which for a fabricated entry frame is the thunk; the thunk moves the
// parked Fiber* from x19 into the argument register and calls the C++
// entry. swapcontext on this path would additionally make the
// rt_sigprocmask syscall per switch — the very tax this switch removes.
asm(R"(
.text
.p2align 4
.globl lazyhbFiberSwitch
.type lazyhbFiberSwitch, @function
lazyhbFiberSwitch:
  stp x29, x30, [sp, #-160]!
  stp x19, x20, [sp, #16]
  stp x21, x22, [sp, #32]
  stp x23, x24, [sp, #48]
  stp x25, x26, [sp, #64]
  stp x27, x28, [sp, #80]
  stp d8,  d9,  [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mov x2, sp
  str x2, [x0]
  mov sp, x1
  ldp x19, x20, [sp, #16]
  ldp x21, x22, [sp, #32]
  ldp x23, x24, [sp, #48]
  ldp x25, x26, [sp, #64]
  ldp x27, x28, [sp, #80]
  ldp d8,  d9,  [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  ldp x29, x30, [sp], #160
  ret
.size lazyhbFiberSwitch, .-lazyhbFiberSwitch

.p2align 4
.globl lazyhbFiberEntryThunk
.type lazyhbFiberEntryThunk, @function
lazyhbFiberEntryThunk:
  mov x0, x19
  bl lazyhbFiberEntry
  brk #0
.size lazyhbFiberEntryThunk, .-lazyhbFiberEntryThunk
)");

#endif  // architecture

void fiberEntryThunkTarget(void* self) { static_cast<Fiber*>(self)->run(); }

extern "C" void lazyhbFiberEntry(void* self) {
  fiberEntryThunkTarget(self);
  LAZYHB_UNREACHABLE("fiber entry fell through");
}

Fiber::Fiber(StackPool& pool, std::function<void()> entry)
    : pool_(pool), stack_(pool.acquire()), entry_(std::move(entry)) {
  armEntry();
}

void Fiber::armEntry() {
  const auto top = reinterpret_cast<std::uintptr_t>(stack_.get()) + pool_.stackBytes();
  auto* base = reinterpret_cast<std::uint64_t*>(top & ~std::uintptr_t{15});
#if defined(__x86_64__)
  auto* frame = base;
  *--frame = reinterpret_cast<std::uint64_t>(&lazyhbFiberEntryThunk);
  *--frame = 0;                                        // rbp
  *--frame = 0;                                        // rbx
  *--frame = reinterpret_cast<std::uint64_t>(this);    // r12
  *--frame = 0;                                        // r13
  *--frame = 0;                                        // r14
  *--frame = 0;                                        // r15
  fiberSp_ = frame;
#elif defined(__aarch64__)
  auto* frame = base - 20;  // 160-byte switch frame, 16-byte aligned
  for (int i = 0; i < 20; ++i) frame[i] = 0;
  frame[1] = reinterpret_cast<std::uint64_t>(&lazyhbFiberEntryThunk);  // x30
  frame[2] = reinterpret_cast<std::uint64_t>(this);                    // x19
  fiberSp_ = frame;
#endif
}

void Fiber::run() {
  // First entry: complete the switch started by resume() and capture the
  // host stack bounds for the return switches.
  LAZYHB_ASAN_FINISH(nullptr, &hostStackBottom_, &hostStackSize_);
  try {
    entry_();
  } catch (const AbandonExecution&) {
    // Normal teardown path for pruned executions: user destructors have run.
  }
  finished_ = true;
  // Dying fiber: null save slot tells the sanitizer to destroy its fake
  // stack rather than expect a return.
  LAZYHB_ASAN_START(nullptr, hostStackBottom_, hostStackSize_);
  lazyhbFiberSwitch(&fiberSp_, hostSp_);
  LAZYHB_UNREACHABLE("resumed a finished fiber");
}

void Fiber::resume() {
  LAZYHB_CHECK(!finished_);
  started_ = true;
  LAZYHB_ASAN_START(&hostFakeStack_, stack_.get(), pool_.stackBytes());
  lazyhbFiberSwitch(&hostSp_, fiberSp_);
  LAZYHB_ASAN_FINISH(hostFakeStack_, nullptr, nullptr);
}

void Fiber::yieldToHost() {
  LAZYHB_ASAN_START(&fiberFakeStack_, hostStackBottom_, hostStackSize_);
  lazyhbFiberSwitch(&fiberSp_, hostSp_);
  LAZYHB_ASAN_FINISH(fiberFakeStack_, nullptr, nullptr);
}

#else  // !LAZYHB_FAST_FIBER: POSIX ucontext fallback

Fiber::Fiber(StackPool& pool, std::function<void()> entry)
    : pool_(pool), stack_(pool.acquire()), entry_(std::move(entry)) {
  armEntry();
}

void Fiber::armEntry() {
  LAZYHB_CHECK(getcontext(&fiberContext_) == 0);
  fiberContext_.uc_stack.ss_sp = stack_.get();
  fiberContext_.uc_stack.ss_size = pool_.stackBytes();
  fiberContext_.uc_link = nullptr;  // entry never falls off: run() swaps back
  // makecontext only passes ints; split the pointer into two 32-bit halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&fiberContext_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  self->run();
  // Unreachable: run() performs the final swap back to the host.
  LAZYHB_UNREACHABLE("fiber trampoline fell through");
}

void Fiber::run() {
  // First entry: complete the switch started by resume() and capture the
  // host stack bounds for the return switches.
  LAZYHB_ASAN_FINISH(nullptr, &hostStackBottom_, &hostStackSize_);
  try {
    entry_();
  } catch (const AbandonExecution&) {
    // Normal teardown path for pruned executions: user destructors have run.
  }
  finished_ = true;
  // Dying fiber: null save slot tells the sanitizer to destroy its fake
  // stack rather than expect a return.
  LAZYHB_ASAN_START(nullptr, hostStackBottom_, hostStackSize_);
  LAZYHB_CHECK(swapcontext(&fiberContext_, &hostContext_) == 0);
  LAZYHB_UNREACHABLE("resumed a finished fiber");
}

void Fiber::resume() {
  LAZYHB_CHECK(!finished_);
  started_ = true;
  LAZYHB_ASAN_START(&hostFakeStack_, stack_.get(), pool_.stackBytes());
  LAZYHB_CHECK(swapcontext(&hostContext_, &fiberContext_) == 0);
  LAZYHB_ASAN_FINISH(hostFakeStack_, nullptr, nullptr);
}

void Fiber::yieldToHost() {
  LAZYHB_ASAN_START(&fiberFakeStack_, hostStackBottom_, hostStackSize_);
  LAZYHB_CHECK(swapcontext(&fiberContext_, &hostContext_) == 0);
  LAZYHB_ASAN_FINISH(fiberFakeStack_, nullptr, nullptr);
}

#endif  // LAZYHB_FAST_FIBER

void Fiber::rearm(std::function<void()> entry) {
  // The sanitizer bookkeeping needs no reset: every switch writes its slot
  // before the matching switch back reads it.
  LAZYHB_CHECK(finished_ || !started_);
  entry_ = std::move(entry);
  started_ = false;
  finished_ = false;
  armEntry();
}

Fiber::~Fiber() {
  // An unfinished fiber being destroyed would leak whatever RAII state its
  // stack holds; the engine always abandons fibers before destruction.
  LAZYHB_CHECK(finished_ || !started_);
  pool_.release(std::move(stack_));
}

#if defined(LAZYHB_FIBER_SNAPSHOT)

void Fiber::snapshotTo(FiberImage& image) const {
  // The continuation of a suspended fiber is exactly the bytes between its
  // saved stack pointer and the stack top (the switch frame at fiberSp_
  // holds the callee-saved registers; everything above it is live frames).
  const char* top = stack_.get() + pool_.stackBytes();
  const char* sp = static_cast<const char*>(fiberSp_);
  LAZYHB_CHECK(sp > stack_.get() && sp <= top);
  const auto used = static_cast<std::size_t>(top - sp);
  image.bytes.resize(used);
  std::memcpy(image.bytes.data(), sp, used);
  image.fiberSp = const_cast<char*>(sp);
  image.started = started_;
  image.finished = finished_;
}

void Fiber::restoreFrom(const FiberImage& image) {
  char* top = stack_.get() + pool_.stackBytes();
  char* sp = static_cast<char*>(image.fiberSp);
  LAZYHB_CHECK(sp > stack_.get() && sp <= top &&
               static_cast<std::size_t>(top - sp) == image.bytes.size());
  std::memcpy(sp, image.bytes.data(), image.bytes.size());
  fiberSp_ = sp;
  started_ = image.started;
  finished_ = image.finished;
}

#else  // !LAZYHB_FIBER_SNAPSHOT

void Fiber::snapshotTo(FiberImage&) const {
  LAZYHB_UNREACHABLE("fiber snapshots are unsupported in this build");
}

void Fiber::restoreFrom(const FiberImage&) {
  LAZYHB_UNREACHABLE("fiber snapshots are unsupported in this build");
}

#endif  // LAZYHB_FIBER_SNAPSHOT

#undef LAZYHB_ASAN_START
#undef LAZYHB_ASAN_FINISH

}  // namespace lazyhb::runtime
