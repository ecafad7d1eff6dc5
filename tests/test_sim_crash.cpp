// Crash-stop fault injection in the deterministic simulator:
//   (a) bounded-exhaustive search with a crash budget — every N=2, W=2
//       schedule with <=2 preemptions AND a crash-stop of the currently
//       scheduled process injected at every protocol step (plus a
//       2-crash / N=3 variant) keeps I1, I2, the 3W+6 bound (inside the
//       paper's 4W+12) and the sequential-spec oracle green for the live
//       processes;
//   (b) directed choreographies for the two nastiest crash points — a
//       helper dying between posting its donation and its exchange CAS,
//       and a victim dying between announce and withdraw — asserting that
//       reclamation restores the exact buffer-ownership census (I1) and
//       completes the dead process's pending bank write (I2);
//   (c) replay round-trip — a recorded crash-churn schedule re-executes
//       token-for-token to the same step count;
//   (d) every invariant-violation message embeds the scheduler seed and
//       schedule prefix needed to reproduce it (--seed / --replay).
// Set MWLLSC_SIM_SOAK=1 for a longer churn soak (the CI fault-injection
// job does, under ASan and TSan).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/harness.hpp"
#include "sim/invariants.hpp"
#include "sim/sim_jp.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;

namespace {

std::vector<std::uint64_t> init(std::uint32_t w) {
  return std::vector<std::uint64_t>(w, 1);
}

// (a) Exhaustive small configurations with a crash budget. The enumerator
// exploits that a crash is protocol-inert (a frozen process changes no
// shared word), so injecting the crash right before the victim's next
// step covers crash-at-every-protocol-step without redundant placements.
void exhaustive_with_crashes() {
  struct Shape {
    std::uint32_t n, w, ops, preempts, crashes;
  };
  const Shape shapes[] = {
      {2, 2, 2, 2, 1},  // the ISSUE's acceptance configuration
      {2, 2, 2, 1, 2},  // both processes can die
      {3, 2, 1, 1, 2},  // three procs, two corpses, survivors finish
  };
  for (const Shape& s : shapes) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = s.ops;
    cfg.vl_percent = 50;
    cfg.seed = 3;
    SimWorkload<SimJpSystem> wl(SimJpSystem(s.n, s.w, init(s.w)), cfg);
    JpInvariantChecker chk(wl.system());
    const EnumerateResult r =
        enumerate_preemption_bounded(wl, chk, s.preempts, 4000000, s.crashes);
    if (!r.ok) {
      std::fprintf(stderr, "crash CHESS (n=%u w=%u p=%u c=%u) failed: %s\n",
                    s.n, s.w, s.preempts, s.crashes, r.error.c_str());
    }
    CHECK(r.ok);
    CHECK(!r.truncated);
    CHECK(r.schedules_explored > 100);
    // Live processes stayed wait-free in every schedule: the checker
    // enforces 3W+6 + the oracle per completed op, and completed ops
    // exist (crashes never claim every process before its first SC).
    CHECK(r.max_ll_steps > 0);
    CHECK(r.max_ll_steps <= SimJpSystem::ll_impl_bound(s.w));
  }

  // The crash budget must actually enlarge the explored space over the
  // crash-free search of the same shape.
  WorkloadConfig cfg;
  cfg.ops_per_proc = 2;
  cfg.vl_percent = 50;
  cfg.seed = 3;
  SimWorkload<SimJpSystem> wl0(SimJpSystem(2, 2, init(2)), cfg);
  JpInvariantChecker chk0(wl0.system());
  const EnumerateResult base =
      enumerate_preemption_bounded(wl0, chk0, 2, 4000000, 0);
  SimWorkload<SimJpSystem> wl1(SimJpSystem(2, 2, init(2)), cfg);
  JpInvariantChecker chk1(wl1.system());
  const EnumerateResult crashy =
      enumerate_preemption_bounded(wl1, chk1, 2, 4000000, 1);
  CHECK(base.ok && crashy.ok);
  CHECK(crashy.schedules_explored > base.schedules_explored);
}

// Steps p until `cond` holds, with a hard step budget. Returns false if
// the budget ran out (callers CHECK it).
template <class Cond>
bool step_until(SimWorkload<SimJpSystem>& wl, JpInvariantChecker& chk,
                std::uint32_t p, Cond cond, std::uint32_t budget = 5000) {
  while (budget--) {
    if (cond()) return true;
    if (wl.proc_done(p)) return false;
    wl.step(p, chk);
    if (!chk.ok()) return false;
  }
  return false;
}

// An LL announces only once its announce-free first attempt saw drift > P.
// Runs `victim` to the brink of that re-check, lands doom_delta() = P+1
// commits from `other`, then lets the victim re-check and fall back.
bool force_fallback(SimWorkload<SimJpSystem>& wl, JpInvariantChecker& chk,
                    std::uint32_t victim, std::uint32_t other) {
  SimJpSystem& sys = wl.system();
  if (!step_until(wl, chk, victim,
                  [&] { return sys.next_is_validate(victim); })) {
    return false;
  }
  const std::uint64_t v0 = sys.version();
  const std::uint64_t fallbacks = sys.ll_fallbacks_total();
  if (!step_until(wl, chk, other, [&] {
        return sys.version() - v0 >= sys.doom_delta();
      })) {
    return false;
  }
  wl.step(victim, chk);
  return chk.ok() && sys.ll_fallbacks_total() == fallbacks + 1;
}

// Runs every runnable process round-robin to completion.
void drain(SimWorkload<SimJpSystem>& wl, JpInvariantChecker& chk) {
  std::uint32_t guard = 200000;
  while (!wl.done() && guard--) {
    for (std::uint32_t p = 0; p < wl.system().n(); ++p) {
      if (!wl.proc_done(p)) {
        wl.step(p, chk);
        break;
      }
    }
  }
  CHECK(wl.done());
}

// (b1) Helper dies between donating a buffer and its exchange CAS. The
// victim must adopt the orphaned donation and finish inside 3W+6; the
// reclaimer then recycles the corpse (completing its pending bank write if
// the X SC had already landed) and I1's census must come back exact — the
// checker re-verifies it at the crash step and at the reclaim step.
void crash_helper_after_donation() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 6;
  cfg.vl_percent = 0;
  cfg.seed = 1;
  SimWorkload<SimJpSystem> wl(SimJpSystem(2, 2, init(2)), cfg);
  JpInvariantChecker chk(wl.system());
  SimJpSystem& sys = wl.system();
  const std::uint32_t victim = 0, helper = 1;

  // Victim: into its LL far enough to have announced.
  CHECK(force_fallback(wl, chk, victim, helper));
  CHECK(step_until(wl, chk, victim, [&] { return sys.announce_posted(victim); }));
  // Helper: run until its SC posts a donation into the victim's slot.
  CHECK(step_until(wl, chk, helper, [&] { return sys.donation_posted(victim); }));
  // The helper now dies with its SC unfinished (donation posted, exchange
  // CAS and/or ring retirement still pending).
  wl.crash(helper, chk);
  CHECK(chk.ok());

  // The victim's withdraw finds HELPED and adopts the corpse's donation.
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, chk, victim, [&] {
    return wl.completed_lls() > lls_before;
  }));
  CHECK(chk.ok());
  CHECK(wl.max_ll_steps() <= SimJpSystem::ll_impl_bound(2));

  // Reclaim the corpse: pending bank write completed, census restored
  // (the checker runs I1/I2 at the reclaim step and would fail here).
  wl.reclaim(helper, chk);
  CHECK(chk.ok());
  CHECK_EQ(sys.crash_reclaims_total(), 1u);

  drain(wl, chk);
  CHECK(chk.ok());
  CHECK_EQ(sys.ll_retries_total(), 0u);
}

// (b2) Victim dies between announce and withdraw. Helpers keep donating
// into the corpse's WAITING slot; every donated buffer must stay exactly
// once-owned (I1) while the corpse holds it, and reclamation must absorb
// the orphaned announce/donation so the slot is clean for reuse.
void crash_victim_mid_announce() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 8;
  cfg.vl_percent = 0;
  cfg.seed = 2;
  SimWorkload<SimJpSystem> wl(SimJpSystem(2, 2, init(2)), cfg);
  JpInvariantChecker chk(wl.system());
  SimJpSystem& sys = wl.system();
  const std::uint32_t victim = 0, helper = 1;

  CHECK(force_fallback(wl, chk, victim, helper));
  CHECK(step_until(wl, chk, victim, [&] { return sys.announce_posted(victim); }));
  wl.crash(victim, chk);
  CHECK(chk.ok());

  // The helper churns through its whole script against the corpse —
  // donations to the dead announce land and sit there; the helper itself
  // must stay wait-free the entire time.
  CHECK(step_until(wl, chk, helper, [&] { return wl.proc_done(helper); },
                   50000));
  CHECK(chk.ok());
  CHECK(wl.max_ll_steps() <= SimJpSystem::ll_impl_bound(2));

  // Reclaim absorbs whatever the slot holds (WAITING withdrawn or HELPED
  // adopted) and restores the census; the victim's stranded script then
  // reruns its interrupted round from scratch.
  wl.reclaim(victim, chk);
  CHECK(chk.ok());
  CHECK_EQ(sys.crash_reclaims_total(), 1u);
  drain(wl, chk);
  CHECK(chk.ok());
}

// (c) A recorded crash-churn schedule replays token-for-token.
void replay_roundtrip() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 40;
  cfg.seed = 5;
  SimWorkload<SimJpSystem> wl(SimJpSystem(3, 3, init(3)), cfg);
  JpInvariantChecker chk(wl.system());
  ChurnConfig churn;
  churn.sched_seed = 9;
  churn.crash_period = 31;
  churn.reclaim_delay = 17;
  const RunResult first = run_crash_churn(wl, chk, churn);
  CHECK(first.ok);
  CHECK(wl.system().crashes_total() > 0);
  const std::string schedule =
      wl.schedule_string(/*max_chars=*/1u << 24);  // untruncated

  SimWorkload<SimJpSystem> wl2(SimJpSystem(3, 3, init(3)), cfg);
  JpInvariantChecker chk2(wl2.system());
  const RunResult again = run_replay(wl2, chk2, schedule);
  if (!again.ok) {
    std::fprintf(stderr, "replay failed: %s\n", again.error.c_str());
  }
  CHECK(again.ok);
  CHECK_EQ(again.total_steps, first.total_steps);
  CHECK_EQ(wl2.system().crashes_total(), wl.system().crashes_total());
  CHECK_EQ(wl2.system().crash_reclaims_total(),
           wl.system().crash_reclaims_total());
}

// (d) Violations reproduce: a synthetic checker failure mid-run must come
// back annotated with the scheduler seed and the exact schedule prefix.
struct FailAfter {
  std::uint64_t budget;
  bool failed = false;
  std::string err = "synthetic failure (test)";
  template <class System>
  void on_step(const System&) {
    if (budget == 0) failed = true;
    else --budget;
  }
  template <class System>
  void on_op(const System&, const OpRecord&) {}
  bool ok() const { return !failed; }
  const std::string& error() const { return err; }
};

void violations_carry_repro() {
  {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 20;
    SimWorkload<SimJpSystem> wl(SimJpSystem(2, 2, init(2)), cfg);
    FailAfter chk{40};
    const RunResult r = run_random(wl, chk, 1234);
    CHECK(!r.ok);
    CHECK(r.error.find("sched-seed=1234") != std::string::npos);
    CHECK(r.error.find("schedule=") != std::string::npos);
  }
  {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 20;
    SimWorkload<SimJpSystem> wl(SimJpSystem(2, 2, init(2)), cfg);
    FailAfter chk{40};
    ChurnConfig churn;
    churn.sched_seed = 77;
    const RunResult r = run_crash_churn(wl, chk, churn);
    CHECK(!r.ok);
    CHECK(r.error.find("churn-seed=77") != std::string::npos);
    CHECK(r.error.find("schedule=") != std::string::npos);
  }
}

// Churn soak: randomized crash/reclaim cycling with the full checker.
// MWLLSC_SIM_SOAK=1 (the CI fault-injection job) widens it.
void churn_soak() {
  const bool soak = []() {
    const char* e = std::getenv("MWLLSC_SIM_SOAK");
    return e && e[0] == '1';
  }();
  const std::uint64_t seeds = soak ? 12 : 3;
  const std::uint32_t ops = soak ? 3000 : 400;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = ops;
    cfg.vl_percent = 15;
    cfg.seed = s;
    SimWorkload<SimJpSystem> wl(SimJpSystem(4, 3, init(3)), cfg);
    JpInvariantChecker chk(wl.system());
    ChurnConfig churn;
    churn.sched_seed = s * 7919;
    churn.crash_period = 41 + s;
    churn.reclaim_delay = 13 + s;
    churn.max_concurrent_crashes = (s % 2) ? 1 : 2;
    const RunResult r = run_crash_churn(wl, chk, churn);
    if (!r.ok) {
      std::fprintf(stderr, "churn soak seed %llu failed: %s\n",
                   static_cast<unsigned long long>(s), r.error.c_str());
    }
    CHECK(r.ok);
    CHECK(wl.system().crashes_total() > 0);
    CHECK_EQ(wl.system().crashes_total(),
             wl.system().crash_reclaims_total());
    CHECK(r.max_ll_steps <= SimJpSystem::ll_impl_bound(3));
    CHECK_EQ(wl.system().ll_retries_total(), 0u);
  }
}

}  // namespace

int main() {
  exhaustive_with_crashes();
  crash_helper_after_donation();
  crash_victim_mid_announce();
  replay_roundtrip();
  violations_carry_repro();
  churn_soak();
  std::printf("test_sim_crash: OK\n");
  return 0;
}
