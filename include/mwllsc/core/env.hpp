// The step seam of the protocol classes (core::MwLLSC, baseline::AmLLSC,
// baseline::RetryLLSC). Each takes a compile-time Env and calls
// Env::at(point, pid) right before every shared-memory access its
// operations make: the engine link, re-check, VL and SC on X, each buffer
// word, and each announce or ring load and CAS. One call is one step of the
// paper's step count.
//
// Production code uses NoEnv, whose at() is empty and inlines away, so the
// seam costs nothing. HookEnv forwards each step to a settable function:
// the simulator (sim/harness.hpp) installs one that yields the calling
// fiber to its scheduler, which is how it runs the shipped classes one
// shared access at a time, and tests install one that injects
// interference at a named point.
#pragma once

#include <cstdint>

namespace mwllsc::core {

struct NoEnv {
  static void at(const char* /*point*/, std::uint32_t /*pid*/) {}
};

/// Forwards every step to `hook` while one is installed. The hook is
/// global to the program, so install it only around single-threaded use.
struct HookEnv {
  using Hook = void (*)(void* ctx, const char* point, std::uint32_t pid);
  static inline Hook hook = nullptr;
  static inline void* ctx = nullptr;

  static void at(const char* point, std::uint32_t pid) {
    if (hook) hook(ctx, point, pid);
  }
  static void install(Hook h, void* c) {
    hook = h;
    ctx = c;
  }
};

}  // namespace mwllsc::core
