// The deterministic simulator as a ctest gate, run on the shipped classes
// (core::MwLLSC, baseline::AmLLSC, baseline::RetryLLSC) one shared access
// at a time:
//   (a) bounded-exhaustive verification — every N=2, W=2 schedule with at
//       most 2 preemptions passes I1, I2 and the sequential-spec oracle
//       (the CHESS-style small-configuration check), an N=3 search holds
//       a reader mid-copy across a drift of exactly P (ring aging), and
//       an N=2, W=1 search deep enough to reach the rescue path hits
//       exactly 3W+6;
//   (b) the wait-freedom separation — the anti-adversarial scheduler
//       starves the retry strawman's victim LL without bound, while jp's
//       worst LL stays under the implementation's 3W+6 bound (inside the
//       paper's 4W+12; am stays under its O(N·W) bound), flat in however
//       long the adversary runs — and the adversary does reach it: the
//       victim's first attempt falls back and its announced round is
//       rescued, exactly 3W+6 steps.
//   (c) directed help-path choreographies — a donor that gives its spare
//       away and then loses its own SC, an owner whose withdraw beats the
//       donation CAS, and a donor whose help re-validation fails and so
//       fails its SC at once.
// The checker additionally enforces, on every jp run here, that no LL
// exceeds 3W+6 steps and that the defensive retry never fires; the oracle
// runs on all three classes.
#include <cstdint>
#include <cstdio>

#include "sim/harness.hpp"
#include "sim_choreo.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;
using namespace mwllsc::sim::choreo;

namespace {

// (a) Exhaustive small-configuration check. Two processes, two words, two
// LL..SC rounds each (with VLs mixed in), every schedule with <=2
// preemptions: the search must complete untruncated with every invariant
// green, and must actually have explored a nontrivial schedule space.
void exhaustive_small_config() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 2;
  cfg.vl_percent = 50;
  cfg.seed = 3;
  const EnumerateResult r =
      enumerate_preemption_bounded<SimJp>(2, 2, cfg, 2, 2000000);
  if (!r.ok) std::fprintf(stderr, "CHESS search failed: %s\n", r.error.c_str());
  CHECK(r.ok);
  CHECK(!r.truncated);
  CHECK(r.schedules_explored > 100);
  CHECK(r.total_steps > r.schedules_explored);
  // The implemented bound, exhaustively: no schedule in the search produced
  // an LL over 3W+6 steps (the checker would also have failed the search).
  CHECK(r.max_ll_steps > 0);
  CHECK(r.max_ll_steps <= SimJp::ll_impl_bound(2));
}

// Ring aging at N >= 3, exhaustively. One preemption lets a reader stop
// mid-copy while another process runs its whole script — four commits, a
// drift of exactly P = 4, which aged validation accepts. The linked buffer
// must not have been rewritten meanwhile, which holds only because it
// rests R >= P commits in the retirement ring.
void exhaustive_ring_aging() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 4;
  cfg.vl_percent = 0;
  const EnumerateResult r =
      enumerate_preemption_bounded<SimJp>(3, 2, cfg, 1, 2000000);
  if (!r.ok) std::fprintf(stderr, "ring search failed: %s\n", r.error.c_str());
  CHECK(r.ok);
  CHECK(!r.truncated);
  CHECK(r.schedules_explored > 100);
}

// The exhaustive search reaches the rescue path. With W=1 and six rounds
// per process, three preemptions suffice to hold one LL across P+1 = 3
// commits twice — first attempt, then announced round — so its worst LL
// is exactly the 3W+6 = 9 step bound.
void exhaustive_reaches_rescue() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 6;
  cfg.vl_percent = 0;
  const EnumerateResult r =
      enumerate_preemption_bounded<SimJp>(2, 1, cfg, 3, 2000000);
  if (!r.ok) std::fprintf(stderr, "rescue search: %s\n", r.error.c_str());
  CHECK(r.ok);
  CHECK(!r.truncated);
  CHECK(r.schedules_explored > 100);
  CHECK_EQ(r.max_ll_steps, SimJp::ll_impl_bound(1));
}

// Random schedules with the full oracle, as a wider (non-exhaustive) net.
void random_oracle_sweep() {
  for (std::uint64_t s = 1; s <= 5; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 200;
    cfg.vl_percent = 20;
    cfg.seed = s;
    SimWorkload<SimJp> wl(3, 3, cfg);
    const RunResult r = run_random(wl, s * 101);
    if (!r.ok) std::fprintf(stderr, "random run failed: %s\n", r.error.c_str());
    CHECK(r.ok);
    CHECK(r.max_ll_steps <= SimJp::ll_impl_bound(3));
    CHECK_EQ(wl.object().stats().ll_retries, 0u);
  }
  // The baselines under the same oracle.
  for (std::uint64_t s = 1; s <= 3; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 200;
    cfg.vl_percent = 20;
    cfg.seed = s;
    SimWorkload<SimAm> am(3, 3, cfg);
    const RunResult ra = run_random(am, s * 101);
    if (!ra.ok) std::fprintf(stderr, "am random: %s\n", ra.error.c_str());
    CHECK(ra.ok);
    SimWorkload<SimRetry> rt(3, 3, cfg);
    const RunResult rr = run_random(rt, s * 101);
    if (!rr.ok) std::fprintf(stderr, "retry random: %s\n", rr.error.c_str());
    CHECK(rr.ok);
  }
}

struct AdvOut {
  std::uint32_t max_ll;           // worst completed LL, steps
  std::uint32_t steps_in_flight;  // the victim's stuck op at cutoff
  std::uint64_t helps_given;
};

template <class Impl>
AdvOut adversarial(std::uint32_t n, std::uint32_t w, std::uint64_t max_steps,
                   std::uint64_t doom_delta) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 1000000;  // effectively unbounded within max_steps
  cfg.vl_percent = 0;
  SimWorkload<Impl> wl(n, w, cfg);
  const RunResult r =
      run_adversarial_anti(wl, /*victim=*/0, w + 8, max_steps, doom_delta);
  if (!r.ok) {
    std::fprintf(stderr, "adversarial run failed: %s\n", r.error.c_str());
  }
  CHECK(r.ok);
  return {wl.max_ll_steps(), wl.steps_in_flight(0),
          wl.object().stats().helps_given};
}

// (b) The separation Theorem 1 is about, made observable.
void adversary_separation() {
  const std::uint32_t n = 3, w = 4;
  const std::uint32_t bound = SimJp::ll_step_bound(w);
  const std::uint32_t impl = SimJp::ll_impl_bound(w);
  const std::uint64_t jp_doom = 4 + 1;  // P+1, P = N rounded up to 2^k

  // jp's bound is 3W+6 inside the paper's 4W+12 — independent of N.
  const AdvOut jp_short = adversarial<SimJp>(n, w, 30000, jp_doom);
  const AdvOut jp_long = adversarial<SimJp>(n, w, 90000, jp_doom);
  // Wait-free: bounded, flat in the adversary's run length, and the
  // rescue actually went through the help path after a fallback.
  CHECK_EQ(jp_short.max_ll, impl);
  CHECK_EQ(jp_long.max_ll, impl);
  CHECK(jp_long.steps_in_flight <= impl);
  CHECK(jp_long.helps_given > 0);

  const AdvOut am_long = adversarial<SimAm>(n, w, 90000, 1);
  CHECK(am_long.max_ll <= SimAm::ll_step_bound(n, w));
  CHECK(am_long.helps_given > 0);

  // Lock-free only: the victim's LL never completes, and its in-flight
  // step count keeps growing with the adversary's patience — already far
  // beyond anything the wait-free bound permits.
  const AdvOut rt_short = adversarial<SimRetry>(n, w, 30000, 1);
  const AdvOut rt_long = adversarial<SimRetry>(n, w, 90000, 1);
  CHECK(rt_short.steps_in_flight > bound);
  CHECK(rt_long.steps_in_flight > rt_short.steps_in_flight);
}

// (c) Directed help-path choreographies at N=2, W=2, every step under the
// full checker. The victim (pid 0) is forced into its announced round,
// offering its spare; the helper (pid 1) then links tag 3, so its SC for
// tag 4 probes slot 0 and finds it WAITING.
constexpr std::uint32_t kVictim = 0, kHelper = 1;

WorkloadConfig choreo_cfg() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 6;
  cfg.vl_percent = 0;
  return cfg;
}

// The helper donates its spare, then loses its own SC. The victim's
// withdraw finds the donation; with drift 0 its own copy stands and its
// link holds, so it adopts the donated buffer as its spare and commits
// tag 4 first. The helper writes its value into the spare it took and
// fails at X.
void donor_loses_its_sc() {
  Wl wl(2, 2, choreo_cfg());
  CHECK(force_fallback(wl, kVictim, kHelper));
  wl.step(kVictim);  // the announce
  CHECK(step_until(wl, kHelper, [&] {
    return wl.object().stats().helps_given == 1;
  }));
  CHECK(parked_at(wl, kHelper, "sc:copy"));
  const std::uint64_t v = wl.version();
  CHECK(step_until(wl, kVictim, [&] { return wl.version() == v + 1; }));
  CHECK_EQ(wl.object().stats().ll_helped, 1u);
  CHECK_EQ(wl.object().stats().ll_used_helped_value, 0u);
  const std::uint64_t commits = wl.object().stats().sc_success;
  CHECK(step_until(wl, kHelper, [&] {
    return parked_at(wl, kHelper, "ll:link");
  }));
  CHECK_EQ(wl.object().stats().sc_success, commits);  // the helper lost
  CHECK_EQ(wl.version(), v + 1);
  drain(wl);
  report(wl);
  CHECK(wl.ok());
  CHECK_EQ(wl.object().stats().ll_retries, 0u);
}

// The withdraw wins the race for the victim's slot: the helper has copied
// and re-validated, but its donation CAS finds the word IDLE again. It
// keeps its spare, writes its value there and commits.
void withdraw_beats_donation() {
  Wl wl(2, 2, choreo_cfg());
  CHECK(force_fallback(wl, kVictim, kHelper));
  wl.step(kVictim);  // the announce
  CHECK(step_until(wl, kHelper, [&] {
    return parked_at(wl, kHelper, "sc:help_mark");
  }));
  const std::uint64_t lls = wl.completed_lls();
  CHECK(step_until(wl, kVictim, [&] { return wl.completed_lls() > lls; }));
  wl.step(kHelper);  // the donation CAS fails
  CHECK(parked_at(wl, kHelper, "sc:copy"));
  CHECK_EQ(wl.object().stats().helps_given, 0u);
  CHECK_EQ(wl.object().stats().ll_helped, 0u);
  const std::uint64_t v = wl.version();
  CHECK(step_until(wl, kHelper, [&] { return wl.version() == v + 1; }));
  drain(wl);
  report(wl);
  CHECK(wl.ok());
}

// The victim finishes its LL (clean withdraw) and commits tag 4 while the
// helper is parked at its help re-validation. The re-validation fails, so
// the helper's SC is doomed: it returns false at once, donating nothing,
// rewriting no value and skipping X — its next access is its next LL's
// link.
void doomed_donor_fails_at_once() {
  Wl wl(2, 2, choreo_cfg());
  CHECK(force_fallback(wl, kVictim, kHelper));
  wl.step(kVictim);  // the announce
  CHECK(step_until(wl, kHelper, [&] {
    return parked_at(wl, kHelper, "sc:help_validate");
  }));
  const std::uint64_t v = wl.version();
  CHECK(step_until(wl, kVictim, [&] { return wl.version() == v + 1; }));
  const std::uint64_t commits = wl.object().stats().sc_success;
  wl.step(kHelper);  // the failed re-validation
  CHECK(parked_at(wl, kHelper, "ll:link"));
  CHECK_EQ(wl.object().stats().sc_success, commits);
  CHECK_EQ(wl.object().stats().helps_given, 0u);
  drain(wl);
  report(wl);
  CHECK(wl.ok());
}

}  // namespace

int main() {
  exhaustive_small_config();
  exhaustive_ring_aging();
  exhaustive_reaches_rescue();
  random_oracle_sweep();
  adversary_separation();
  donor_loses_its_sc();
  withdraw_beats_donation();
  doomed_donor_fails_at_once();
  std::printf("test_sim: OK\n");
  return 0;
}
