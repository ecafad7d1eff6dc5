// Clang thread-safety analysis shim. The annotated Mutex/MutexLock pair
// below lets the blocking baseline say which fields its lock guards
// (MWLLSC_GUARDED_BY), and clang's -Wthread-safety (enabled on the
// mwllsc_warnings target whenever the compiler is clang) then proves the
// lock discipline at compile time. On GCC every macro expands to nothing
// and Mutex degenerates to a plain std::mutex wrapper, so builds stay
// byte-for-byte identical in behavior. TicketLock, the FIFO lock of the
// managed object's degraded path, carries the same annotations.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MWLLSC_TSA(x) __attribute__((x))
#endif
#endif
#ifndef MWLLSC_TSA
#define MWLLSC_TSA(x)  // no-op outside clang
#endif

#define MWLLSC_CAPABILITY(name) MWLLSC_TSA(capability(name))
#define MWLLSC_SCOPED_CAPABILITY MWLLSC_TSA(scoped_lockable)
#define MWLLSC_GUARDED_BY(m) MWLLSC_TSA(guarded_by(m))
#define MWLLSC_PT_GUARDED_BY(m) MWLLSC_TSA(pt_guarded_by(m))
#define MWLLSC_ACQUIRE(...) MWLLSC_TSA(acquire_capability(__VA_ARGS__))
#define MWLLSC_RELEASE(...) MWLLSC_TSA(release_capability(__VA_ARGS__))
#define MWLLSC_REQUIRES(...) MWLLSC_TSA(requires_capability(__VA_ARGS__))
#define MWLLSC_EXCLUDES(...) MWLLSC_TSA(locks_excluded(__VA_ARGS__))
#define MWLLSC_NO_TSA MWLLSC_TSA(no_thread_safety_analysis)

namespace mwllsc::util {

/// std::mutex carrying the capability attribute, so fields can be
/// declared MWLLSC_GUARDED_BY(mu_) and misuses fail the clang build.
class MWLLSC_CAPABILITY("mutex") Mutex {
 public:
  void lock() MWLLSC_ACQUIRE() { mu_.lock(); }
  void unlock() MWLLSC_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// FIFO ticket lock (Mellor-Crummey & Scott, "Algorithms for Scalable
/// Synchronization on Shared-Memory Multiprocessors", TOCS 1991). lock()
/// takes a ticket with one fetch_add and waits until `serving_` reaches
/// it, so holders are served in arrival order: a waiter with k-1 tickets
/// ahead of it waits out those k-1 critical sections and no more. A
/// std::mutex makes no such promise; its unlocker can relock before a
/// sleeping waiter wakes, any number of times.
///
/// A waiter polls with a CPU pause kSpinPolls times, then yields the CPU
/// between polls, so an oversubscribed machine still runs the holder and
/// the tickets ahead of the waiter. The spin is short on purpose: when the
/// next ticket's owner is preempted, the waiters behind it spin on CPU
/// time that owner needs. On a 4-vCPU VM, bench_membership's `exhausted`
/// row (16 threads, 8 slots) pinned to one CPU ran 11.7 M ops/s with 4096
/// polls, 23.7 M with 64 and 24.0 M under a std::mutex; on all four CPUs
/// it ran 3.7 M with 4096 polls, 3.3 M with 64 and 2.9 M under the mutex.
/// perfbench session_churn's op_p99 read the same at 64 and 4096 polls.
///
/// Tickets are 32-bit and compared with ==, never <, so the counters'
/// wrap is harmless while fewer than 2^32 threads queue at once. Each
/// counter has its own cache line: arriving waiters' fetch_adds leave the
/// line the waiters poll alone.
///
/// The lock has no owner. Whichever thread holds the critical section may
/// unlock it, even one that did not lock it (a managed Session moved to
/// another thread between LL and SC does that); a std::mutex forbids it.
class MWLLSC_CAPABILITY("mutex") TicketLock {
 public:
  void lock() MWLLSC_ACQUIRE() {
    const std::uint32_t ticket =
        next_.v.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t polls = 0;
    // Acquire pairs with the previous holder's release in unlock().
    while (serving_.v.load(std::memory_order_acquire) != ticket) {
      if (polls < kSpinPolls) {
        ++polls;
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  void unlock() MWLLSC_RELEASE() {
    // Only the holder writes serving_, so its relaxed read is exact.
    serving_.v.store(serving_.v.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
  }

  /// Threads holding or waiting for the lock: two relaxed loads, no
  /// write. A gauge, not a decision input: it races with lock and unlock,
  /// and reads 0 if it sees a newer `serving_` than `next_`.
  std::uint32_t queued() const {
    const std::uint32_t served = serving_.v.load(std::memory_order_relaxed);
    const std::uint32_t d =
        next_.v.load(std::memory_order_relaxed) - served;
    return d <= (std::uint32_t{1} << 31) ? d : 0;
  }

 private:
  static constexpr std::uint32_t kSpinPolls = 64;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
  }

  struct alignas(64) Counter {
    std::atomic<std::uint32_t> v{0};
  };
  Counter next_;     ///< the next ticket to hand out
  Counter serving_;  ///< the ticket that holds the lock
};

/// Scoped lock over Mutex or TicketLock, visible to the thread-safety
/// analysis (a raw std::lock_guard would not release the capability in
/// the analyzer's eyes).
template <class Lockable>
class MWLLSC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Lockable& m) MWLLSC_ACQUIRE(m) : mu_(m) { mu_.lock(); }
  ~MutexLock() MWLLSC_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Lockable& mu_;
};

}  // namespace mwllsc::util
