// A stackful fiber on ucontext, for the simulator (sim/harness.hpp): each
// simulated process runs its script on its own Fiber, and the scheduler —
// the thread's original context — resumes exactly one fiber per step.
//
// A fiber that is never resumed again (a crash-stopped process, or the
// rest of a schedule the replay search abandons) is simply dropped. Its
// frames are never unwound, so code running on a fiber must own no heap
// memory in its frames: everything it allocates must belong to an object
// that outlives the fiber. start() re-arms the same stack, so a search
// that replays thousands of schedules allocates its stacks once.
//
// The switches are annotated for AddressSanitizer (so it tracks which
// stack is live) and ThreadSanitizer (so it sees one logical thread per
// fiber instead of a corrupted shadow stack).
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

#if defined(__SANITIZE_ADDRESS__)
#define MWLLSC_SIM_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define MWLLSC_SIM_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MWLLSC_SIM_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define MWLLSC_SIM_TSAN 1
#endif
#endif

#if defined(MWLLSC_SIM_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MWLLSC_SIM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace mwllsc::sim {

class Fiber {
 public:
  using Fn = void (*)(void* arg);

  static constexpr std::size_t kStackBytes = std::size_t{256} << 10;

  Fiber() : stack_(new char[kStackBytes]) {}
  ~Fiber() { drop_tsan_fiber(); }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Arms the fiber to run fn(arg) from the top of its stack at the next
  /// resume(). Whatever the stack held before is abandoned.
  void start(Fn fn, void* arg) {
    fn_ = fn;
    arg_ = arg;
#if defined(MWLLSC_SIM_ASAN)
    // An abandoned run may have left its frames' redzones poisoned.
    __asan_unpoison_memory_region(stack_.get(), kStackBytes);
#endif
#if defined(MWLLSC_SIM_TSAN)
    // A run that reached its end left TSan's shadow call stack balanced,
    // so its context is reused; an abandoned run's is not (creating one
    // costs far more than a whole simulated schedule).
    if (!finished_) {
      drop_tsan_fiber();
      tsan_fiber_ = __tsan_create_fiber(0);
    }
#endif
    finished_ = false;
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = kStackBytes;
    ctx_.uc_link = nullptr;  // entry() never returns; it switches out
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
  }

  /// Scheduler side: runs the fiber until it yields or its function ends.
  void resume() {
#if defined(MWLLSC_SIM_ASAN)
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack_.get(), kStackBytes);
#endif
#if defined(MWLLSC_SIM_TSAN)
    caller_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
    swapcontext(&caller_, &ctx_);
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  }

  /// Fiber side: hands control back to the scheduler; returns when the
  /// scheduler resumes this fiber.
  void yield() {
#if defined(MWLLSC_SIM_ASAN)
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, caller_bottom_, caller_size_);
#endif
#if defined(MWLLSC_SIM_TSAN)
    __tsan_switch_to_fiber(caller_tsan_, 0);
#endif
    swapcontext(&ctx_, &caller_);
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_finish_switch_fiber(fake, &caller_bottom_, &caller_size_);
#endif
  }

  bool finished() const { return finished_; }

 private:
  // Uninstrumented for TSan: it never returns, so an instrumented entry
  // would leave one shadow frame behind per run.
  __attribute__((no_sanitize("thread"))) static void entry(unsigned hi,
                                                            unsigned lo) {
    auto* self = reinterpret_cast<Fiber*>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_finish_switch_fiber(nullptr, &self->caller_bottom_,
                                    &self->caller_size_);
#endif
    self->fn_(self->arg_);
    self->finished_ = true;
    // Leave for good: this stack is dead until the next start().
#if defined(MWLLSC_SIM_ASAN)
    __sanitizer_start_switch_fiber(nullptr, self->caller_bottom_,
                                   self->caller_size_);
#endif
#if defined(MWLLSC_SIM_TSAN)
    __tsan_switch_to_fiber(self->caller_tsan_, 0);
#endif
    setcontext(&self->caller_);
    std::abort();  // setcontext only returns on failure
  }

  void drop_tsan_fiber() {
#if defined(MWLLSC_SIM_TSAN)
    if (tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
#endif
  }

  std::unique_ptr<char[]> stack_;
  ucontext_t ctx_{};
  ucontext_t caller_{};
  Fn fn_ = nullptr;
  void* arg_ = nullptr;
  bool finished_ = false;
#if defined(MWLLSC_SIM_ASAN)
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
#endif
#if defined(MWLLSC_SIM_TSAN)
  void* tsan_fiber_ = nullptr;
  void* caller_tsan_ = nullptr;
#endif
};

}  // namespace mwllsc::sim
