// Crash-stop fault injection in the deterministic simulator, on the
// shipped core::MwLLSC:
//   (a) bounded-exhaustive search with a crash budget — every N=2, W=2
//       schedule with <=2 preemptions AND a crash-stop of the currently
//       scheduled process injected at every shared access (plus a
//       2-crash / N=3 variant) keeps I1, I2, the 3W+6 bound (inside the
//       paper's 4W+12) and the sequential-spec oracle green for the live
//       processes;
//   (b) directed choreographies for the nastiest crash points — a helper
//       dying between its donation CAS and its SC, a victim dying between
//       announce and withdraw, and a committer dying between its X commit
//       and its ring swap — asserting that reclamation (reclaim_pid +
//       rebind_pid) restores the exact buffer-ownership census (I1),
//       finishes the dead process's pending bank write (I2), and that no
//       reader ever sees a value the reclaimed pid's next holder writes
//       into a buffer that is still in use; and, after a rescued LL, a
//       crash at every step of the victim's next rounds, reclaimed once
//       the consumed donation has rotated through X and the ring;
//   (c) replay round-trip — a recorded crash-churn schedule re-executes
//       token-for-token to the same step count;
//   (d) every invariant-violation message embeds the scheduler seed and
//       schedule prefix needed to reproduce it (--seed / --replay).
// Set MWLLSC_SIM_SOAK=1 for a longer churn soak (the CI fault-injection
// job does, under ASan and TSan).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/harness.hpp"
#include "sim_choreo.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;
using namespace mwllsc::sim::choreo;

namespace {

bool soak() {
  const char* e = std::getenv("MWLLSC_SIM_SOAK");
  return e && e[0] == '1';
}

// (a) Exhaustive small configurations with a crash budget. The enumerator
// exploits that a crash changes no shared word, so injecting the crash
// right before the victim's next access covers crash-at-every-access
// without redundant placements.
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
    const EnumerateResult r = enumerate_preemption_bounded<SimJp>(
        s.n, s.w, cfg, s.preempts, 4000000, s.crashes);
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
    CHECK(r.max_ll_steps <= SimJp::ll_impl_bound(s.w));
  }

  // The crash budget must actually enlarge the explored space over the
  // crash-free search of the same shape.
  WorkloadConfig cfg;
  cfg.ops_per_proc = 2;
  cfg.vl_percent = 50;
  cfg.seed = 3;
  const EnumerateResult base =
      enumerate_preemption_bounded<SimJp>(2, 2, cfg, 2, 4000000, 0);
  const EnumerateResult crashy =
      enumerate_preemption_bounded<SimJp>(2, 2, cfg, 2, 4000000, 1);
  CHECK(base.ok && crashy.ok);
  CHECK(crashy.schedules_explored > base.schedules_explored);
}

// (b1) Helper dies right after its donation CAS, before its X commit: its
// next access is the first word of its own value, written into the spare
// it just took from the victim. The victim must adopt the orphaned
// donation as its spare and finish inside 3W+6; the reclaimer then
// recycles the corpse and I1's census must come back exact — the checker
// re-verifies it at the reclaim.
void crash_helper_after_donation() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 6;
  cfg.vl_percent = 0;
  cfg.seed = 1;
  Wl wl(2, 2, cfg);
  const std::uint32_t victim = 0, helper = 1;

  // Victim: into its LL far enough to have announced.
  CHECK(force_fallback(wl, victim, helper));
  wl.step(victim);
  // Helper: run until its SC has posted a donation into the victim's slot.
  const std::uint64_t helps = wl.object().stats().helps_given;
  CHECK(step_until(wl, helper, [&] {
    return wl.object().stats().helps_given > helps;
  }));
  CHECK(parked_at(wl, helper, "sc:copy"));
  // The helper now dies between its donation and its SC.
  wl.crash(helper);

  // The victim's withdraw finds HELPED and adopts the corpse's donation.
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, victim, [&] {
    return wl.completed_lls() > lls_before;
  }));
  report(wl);
  CHECK(wl.ok());
  CHECK(wl.max_ll_steps() <= SimJp::ll_impl_bound(2));

  // Reclaim the corpse: census restored (the checker runs I1/I2 at the
  // reclaim and would fail here).
  wl.reclaim(helper);
  report(wl);
  CHECK(wl.ok());
  CHECK_EQ(wl.crash_reclaims_total(), 1u);

  drain(wl);
  report(wl);
  CHECK(wl.ok());
  CHECK_EQ(wl.object().stats().ll_retries, 0u);
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
  Wl wl(2, 2, cfg);
  const std::uint32_t victim = 0, helper = 1;

  CHECK(force_fallback(wl, victim, helper));
  wl.step(victim);  // the announce
  wl.crash(victim);

  // The helper churns through its whole script against the corpse —
  // donations to the dead announce land and sit there; the helper itself
  // must stay wait-free the entire time.
  CHECK(step_until(wl, helper, [&] { return wl.proc_done(helper); }, 50000));
  report(wl);
  CHECK(wl.ok());
  CHECK(wl.max_ll_steps() <= SimJp::ll_impl_bound(2));
  CHECK(wl.object().stats().helps_given > 0);

  // Reclaim absorbs whatever the slot holds (WAITING withdrawn or HELPED
  // adopted) and restores the census; the victim's stranded script then
  // reruns its interrupted round from scratch.
  wl.reclaim(victim);
  CHECK(wl.ok());
  CHECK_EQ(wl.crash_reclaims_total(), 1u);
  drain(wl);
  report(wl);
  CHECK(wl.ok());
}

// (b3) Committer dies between its X commit and its ring swap. Its retiree
// (the buffer current just before the commit) may still be under a
// reader's copy, so the pid's next holder must not get it as the spare it
// writes into: reclaim_pid finishes the ring swap, and the retiree ages
// in the ring instead. A reader linked at the pre-commit version copies
// one word, then the reclaimed pid's next holder commits again, then the
// reader finishes its copy and validates (drift 2 = P, accepted): it must
// return an untorn value.
void crash_committer_before_ring_swap() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 4;
  cfg.vl_percent = 0;
  Wl wl(2, 2, cfg);
  const std::uint32_t reader = 0, writer = 1;

  CHECK(step_until(wl, reader, [&] {
    return parked_at(wl, reader, "ll:copy");
  }));
  wl.step(reader);  // word 0 of the linked buffer
  CHECK(step_until(wl, writer, [&] {
    return parked_at(wl, writer, "sc:ring_load");
  }));
  CHECK_EQ(wl.version(), 1u);
  wl.crash(writer);
  wl.reclaim(writer);
  report(wl);
  CHECK(wl.ok());
  // The new holder: its interrupted SC fails (no link), then a full round.
  CHECK(step_until(wl, writer, [&] { return wl.version() == 2; }));
  const std::uint64_t lls_before = wl.completed_lls();
  CHECK(step_until(wl, reader, [&] {
    return wl.completed_lls() > lls_before;
  }));
  report(wl);
  CHECK(wl.ok());
  drain(wl);
  report(wl);
  CHECK(wl.ok());
}

// The rescue prefix shared by every placement below: the victim's first
// attempt falls back, its announced round sees P+1 = 3 commits after its
// link (the helper's SC for a tag that probes slot 0 donates), and its
// validation fails, so it returns the donated snapshot. Its slot keeps the
// consumed HELPED word until it next announces. Returns the donated buffer.
std::uint32_t rescue_victim(Wl& wl, std::uint32_t victim,
                            std::uint32_t helper) {
  CHECK(force_fallback(wl, victim, helper));
  wl.step(victim);  // the announce
  CHECK(step_until(wl, victim, [&] { return wl.at_validation(victim); }));
  const std::uint64_t v0 = wl.version();
  CHECK(step_until(wl, helper, [&] { return wl.version() - v0 >= 3; }));
  const std::uint64_t lls = wl.completed_lls();
  CHECK(step_until(wl, victim, [&] { return wl.completed_lls() > lls; }));
  CHECK_EQ(wl.object().stats().ll_used_helped_value, 1u);
  SimJp::Census c;
  wl.object().census(c);
  return c.spare[victim];
}

// The helper runs to its next commit and through its ring swap: it stops
// parked at its next LL's link (or done).
void helper_round(Wl& wl, std::uint32_t helper) {
  const std::uint64_t v = wl.version();
  CHECK(step_until(wl, helper, [&] {
    return wl.version() > v && parked_at(wl, helper, "ll:link");
  }) || wl.proc_done(helper));
}

// (b4) Reclaim after a consumed rescue. After the rescue the victim's
// rescued SC fails at once, its next LL is announce-free, and its SC after
// that installs the donated buffer d; the helper's next SC retires d to the
// ring. All the while the victim's slot still reads HELPED with d. The
// schedule after the rescue is fixed — the victim to its next commit, one
// helper round, the victim to the end of its script — and the victim
// crashes before each of its steps in turn; one more helper round follows
// the crash, then the reclaim. A reclaim that adopted the stale HELPED
// word would give d a second owner, which I1 catches at the reclaim.
void reclaim_after_consumed_rescue(std::uint32_t w) {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 8;
  cfg.vl_percent = 0;
  cfg.seed = 4;
  const std::uint32_t victim = 0, helper = 1;
  std::uint32_t placements = 0, rotated = 0;
  for (std::uint32_t k = 0;; ++k) {
    Wl wl(2, w, cfg);
    const std::uint32_t d = rescue_victim(wl, victim, helper);
    // The fixed schedule, cut at the victim's k-th step.
    std::uint32_t steps = 0;
    bool crashed = false;
    auto victim_until = [&](auto cond) {
      while (!wl.proc_done(victim) && !cond()) {
        if (steps++ == k) {
          wl.crash(victim);
          crashed = true;
          return;
        }
        wl.step(victim);
        CHECK(wl.ok());
      }
    };
    const std::uint64_t v1 = wl.version();
    victim_until([&] { return wl.version() > v1; });
    if (!crashed) {
      CHECK_EQ(wl.version(), v1 + 1);
      SimJp::Census c;
      wl.object().census(c);
      CHECK_EQ(c.current, d);  // the victim installed the donated buffer
      helper_round(wl, helper);
      victim_until([] { return false; });
    }
    if (!crashed) break;  // k ran past the victim's script
    ++placements;
    helper_round(wl, helper);
    SimJp::Census c;
    wl.object().census(c);
    if (std::find(c.ring.begin(), c.ring.end(), d) != c.ring.end()) {
      ++rotated;
    }
    wl.reclaim(victim);
    report(wl);
    CHECK(wl.ok());
    drain(wl);
    report(wl);
    CHECK(wl.ok());
    CHECK_EQ(wl.object().stats().ll_retries, 0u);
  }
  CHECK(placements > 2 * w + 7);  // at least the victim's next two rounds
  CHECK(rotated > 0);
}

// (c) A recorded crash-churn schedule replays token-for-token.
void replay_roundtrip() {
  WorkloadConfig cfg;
  cfg.ops_per_proc = 40;
  cfg.seed = 5;
  Wl wl(3, 3, cfg);
  ChurnConfig churn;
  churn.sched_seed = 9;
  churn.crash_period = 31;
  churn.reclaim_delay = 17;
  const RunResult first = run_crash_churn(wl, churn);
  if (!first.ok) std::fprintf(stderr, "churn: %s\n", first.error.c_str());
  CHECK(first.ok);
  CHECK(wl.crashes_total() > 0);
  const std::string schedule =
      wl.schedule_string(/*max_chars=*/1u << 24);  // untruncated

  Wl wl2(3, 3, cfg);
  const RunResult again = run_replay(wl2, schedule);
  if (!again.ok) {
    std::fprintf(stderr, "replay failed: %s\n", again.error.c_str());
  }
  CHECK(again.ok);
  CHECK_EQ(again.total_steps, first.total_steps);
  CHECK_EQ(wl2.crashes_total(), wl.crashes_total());
  CHECK_EQ(wl2.crash_reclaims_total(), wl.crash_reclaims_total());
  CHECK_EQ(wl2.version(), wl.version());
}

// (d) Violations reproduce: a synthetic checker failure mid-run must come
// back annotated with the scheduler seed and the exact schedule prefix.
struct FailAfter {
  FailAfter(std::uint32_t, std::uint32_t) {}
  std::uint64_t budget = 40;
  bool failed = false;
  std::string err = "synthetic failure (test)";
  template <class Impl>
  void on_step(const Impl&, const StepInfo&) {
    if (budget == 0) failed = true;
    else --budget;
  }
  void on_op(const OpRecord&) {}
  void on_reclaim(std::uint32_t) {}
  bool ok() const { return !failed; }
  const std::string& error() const { return err; }
};

void violations_carry_repro() {
  {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 20;
    SimWorkload<SimJp, FailAfter> wl(2, 2, cfg);
    const RunResult r = run_random(wl, 1234);
    CHECK(!r.ok);
    CHECK(r.error.find("sched-seed=1234") != std::string::npos);
    CHECK(r.error.find("schedule=") != std::string::npos);
  }
  {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 20;
    SimWorkload<SimJp, FailAfter> wl(2, 2, cfg);
    ChurnConfig churn;
    churn.sched_seed = 77;
    const RunResult r = run_crash_churn(wl, churn);
    CHECK(!r.ok);
    CHECK(r.error.find("churn-seed=77") != std::string::npos);
    CHECK(r.error.find("schedule=") != std::string::npos);
  }
}

// Churn soak: randomized crash/reclaim cycling with the full checker.
// MWLLSC_SIM_SOAK=1 (the CI fault-injection job) widens it.
void churn_soak() {
  const std::uint64_t seeds = soak() ? 12 : 3;
  const std::uint32_t ops = soak() ? 3000 : 400;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = ops;
    cfg.vl_percent = 15;
    cfg.seed = s;
    Wl wl(4, 3, cfg);
    ChurnConfig churn;
    churn.sched_seed = s * 7919;
    churn.crash_period = 41 + s;
    churn.reclaim_delay = 13 + s;
    churn.max_concurrent_crashes = (s % 2) ? 1 : 2;
    const RunResult r = run_crash_churn(wl, churn);
    if (!r.ok) {
      std::fprintf(stderr, "churn soak seed %llu failed: %s\n",
                   static_cast<unsigned long long>(s), r.error.c_str());
    }
    CHECK(r.ok);
    CHECK(wl.crashes_total() > 0);
    CHECK_EQ(wl.crashes_total(), wl.crash_reclaims_total());
    CHECK(r.max_ll_steps <= SimJp::ll_impl_bound(3));
    CHECK_EQ(wl.object().stats().ll_retries, 0u);
  }
}

}  // namespace

int main() {
  exhaustive_with_crashes();
  crash_helper_after_donation();
  crash_victim_mid_announce();
  crash_committer_before_ring_swap();
  reclaim_after_consumed_rescue(2);
  if (soak()) {
    reclaim_after_consumed_rescue(1);
    reclaim_after_consumed_rescue(3);
  }
  replay_roundtrip();
  violations_carry_repro();
  churn_soak();
  std::printf("test_sim_crash: OK\n");
  return 0;
}
