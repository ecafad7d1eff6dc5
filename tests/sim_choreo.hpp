// Step-by-step choreography helpers for directed simulator tests on the
// shipped core::MwLLSC (test_sim, test_sim_crash): drive one process to a
// named shared access, force an LL into its announced round, drain the
// rest. Every step still runs the full checker (I1, I2, 3W+6, oracle).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "sim/harness.hpp"
#include "test_check.hpp"

namespace mwllsc::sim::choreo {

using Wl = SimWorkload<SimJp>;

// Steps p until `cond` holds, with a hard step budget. Returns false if
// the budget ran out (callers CHECK it).
template <class Cond>
bool step_until(Wl& wl, std::uint32_t p, Cond cond,
                std::uint32_t budget = 5000) {
  while (budget--) {
    if (cond()) return true;
    if (wl.proc_done(p)) return false;
    wl.step(p);
    if (!wl.ok()) return false;
  }
  return false;
}

inline bool parked_at(const Wl& wl, std::uint32_t p, const char* point) {
  return wl.parked_at(p) && std::strcmp(wl.parked_at(p), point) == 0;
}

inline void report(const Wl& wl) {
  if (!wl.ok()) std::fprintf(stderr, "checker: %s\n", wl.error().c_str());
}

// An LL announces only once its announce-free first attempt saw drift > P.
// Runs `victim` to the brink of that re-check, lands P+1 = 3 commits from
// `other` (N = 2), then lets the victim re-check and fall back: its next
// access is the announce.
inline bool force_fallback(Wl& wl, std::uint32_t victim, std::uint32_t other) {
  if (!step_until(wl, victim, [&] { return wl.at_validation(victim); })) {
    return false;
  }
  const std::uint64_t v0 = wl.version();
  if (!step_until(wl, other, [&] { return wl.version() - v0 >= 3; })) {
    return false;
  }
  wl.step(victim);
  return wl.ok() && parked_at(wl, victim, "ll:announce");
}

// Runs every runnable process round-robin to completion.
inline void drain(Wl& wl) {
  std::uint32_t guard = 200000;
  while (!wl.done() && wl.ok() && guard--) {
    for (std::uint32_t p = 0; p < wl.n(); ++p) {
      if (!wl.proc_done(p)) {
        wl.step(p);
        break;
      }
    }
  }
  CHECK(wl.done());
}

}  // namespace mwllsc::sim::choreo
