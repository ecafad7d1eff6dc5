// The deterministic simulator as a ctest gate:
//   (a) bounded-exhaustive verification — every N=2, W=2 schedule with at
//       most 2 preemptions passes I1, I2 and the sequential-spec oracle
//       (the CHESS-style small-configuration check);
//   (b) the wait-freedom separation — the anti-adversarial scheduler
//       starves the retry strawman's victim LL without bound, while jp's
//       worst LL stays under the implementation's 3W+6 bound (inside the
//       paper's 4W+12; am stays under its O(N·W) bound), flat in however
//       long the adversary runs — and the adversary does reach it: the
//       victim's first attempt falls back and its announced round is
//       rescued, exactly 3W+6 steps.
// The JpInvariantChecker additionally enforces, on every run here, that
// no LL exceeds 3W+6 steps and that the defensive retry arm never fires.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "sim/sim_am.hpp"
#include "sim/sim_jp.hpp"
#include "sim/sim_retry.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;

namespace {

std::vector<std::uint64_t> init(std::uint32_t w) {
  return std::vector<std::uint64_t>(w, 1);
}

// (a) Exhaustive small-configuration check. Two processes, two words, two
// LL..SC rounds each (with VLs mixed in), every schedule with <=2
// preemptions: the search must complete untruncated with every invariant
// green, and must actually have explored a nontrivial schedule space.
void exhaustive_small_config() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 2;
  cfg.vl_percent = 50;
  cfg.seed = 3;
  SimWorkload<SimJpSystem> wl(SimJpSystem(2, 2, init(2)), cfg);
  JpInvariantChecker chk(wl.system());
  const EnumerateResult r = enumerate_preemption_bounded(wl, chk, 2, 2000000);
  if (!r.ok) std::fprintf(stderr, "CHESS search failed: %s\n", r.error.c_str());
  CHECK(r.ok);
  CHECK(!r.truncated);
  CHECK(r.schedules_explored > 100);
  CHECK(r.total_steps > r.schedules_explored);
  // The implemented bound, exhaustively: no schedule in the search produced
  // an LL over 3W+6 steps (the checker would also have failed the search).
  CHECK(r.max_ll_steps > 0);
  CHECK(r.max_ll_steps <= SimJpSystem::ll_impl_bound(2));
}

// Random schedules with the full oracle, as a wider (non-exhaustive) net.
void random_oracle_sweep() {
  for (std::uint64_t s = 1; s <= 5; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 200;
    cfg.vl_percent = 20;
    cfg.seed = s;
    SimWorkload<SimJpSystem> wl(SimJpSystem(3, 3, init(3)), cfg);
    JpInvariantChecker chk(wl.system());
    const RunResult r = run_random(wl, chk, s * 101);
    if (!r.ok) std::fprintf(stderr, "random run failed: %s\n", r.error.c_str());
    CHECK(r.ok);
    CHECK(r.max_ll_steps <= SimJpSystem::ll_impl_bound(3));
    CHECK_EQ(wl.system().ll_retries_total(), 0u);
  }
}

struct AdvOut {
  std::uint32_t max_ll;         // worst completed LL, steps
  std::uint32_t steps_in_flight;  // the victim's stuck op at cutoff
  std::uint64_t helps_given;
};

std::uint64_t helps_of(const SimJpSystem& s) { return s.helps_given_total(); }
std::uint64_t helps_of(const SimAmSystem& s) { return s.helps_given_total(); }
std::uint64_t helps_of(const SimRetrySystem&) { return 0; }

template <class System>
AdvOut adversarial(std::uint32_t n, std::uint32_t w,
                   std::uint64_t max_steps) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 1000000;  // effectively unbounded within max_steps
  cfg.vl_percent = 0;
  SimWorkload<System> wl(System(n, w, init(w)), cfg);
  auto chk = make_checker(wl.system());
  const RunResult r = run_adversarial_anti(wl, chk, /*victim=*/0, w + 8,
                                           max_steps);
  if (!r.ok) {
    std::fprintf(stderr, "adversarial run failed: %s\n", r.error.c_str());
  }
  CHECK(r.ok);
  return {wl.max_ll_steps(), wl.system().steps_in_flight(0),
          helps_of(wl.system())};
}

// (b) The separation Theorem 1 is about, made observable.
void adversary_separation() {
  const std::uint32_t n = 3, w = 4;
  const std::uint32_t bound = SimJpSystem::ll_step_bound(n, w);
  const std::uint32_t impl = SimJpSystem::ll_impl_bound(w);

  // jp's bound is 3W+6 inside the paper's 4W+12 — independent of N.
  const AdvOut jp_short = adversarial<SimJpSystem>(n, w, 30000);
  const AdvOut jp_long = adversarial<SimJpSystem>(n, w, 90000);
  // Wait-free: bounded, flat in the adversary's run length, and the
  // rescue actually went through the help path after a fallback.
  CHECK(jp_short.max_ll <= impl);
  CHECK(jp_long.max_ll <= impl);
  CHECK_EQ(jp_long.max_ll, impl);
  CHECK(jp_long.steps_in_flight <= impl);
  CHECK(jp_long.helps_given > 0);

  const AdvOut am_long = adversarial<SimAmSystem>(n, w, 90000);
  CHECK(am_long.max_ll <= SimAmSystem::ll_step_bound(n, w));
  CHECK(am_long.helps_given > 0);

  // Lock-free only: the victim's LL never completes, and its in-flight
  // step count keeps growing with the adversary's patience — already far
  // beyond anything the wait-free bound permits.
  const AdvOut rt_short = adversarial<SimRetrySystem>(n, w, 30000);
  const AdvOut rt_long = adversarial<SimRetrySystem>(n, w, 90000);
  CHECK(rt_short.steps_in_flight > bound);
  CHECK(rt_long.steps_in_flight > rt_short.steps_in_flight);
}

}  // namespace

int main() {
  exhaustive_small_config();
  random_oracle_sweep();
  adversary_separation();
  std::printf("test_sim: OK\n");
  return 0;
}
