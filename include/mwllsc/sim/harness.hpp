// Deterministic simulation harness for the multiword LL/SC protocols.
//
// The per-implementation step machines (sim_jp.hpp, sim_am.hpp,
// sim_retry.hpp) re-express each protocol as an explicit state machine: one
// call to step(pid) performs one memory access of process pid's in-flight
// operation. Because the scheduler — not the OS — decides which process
// moves next, the harness can replay any interleaving exactly, which turns
// Theorem 1's wait-freedom claim from a statistical observation into a
// checkable property:
//
//   * run_random            seeded uniform scheduling, the baseline sweep;
//   * run_adversarial_anti  an anti-schedule that tries to starve one
//                           victim reader: run the victim up to its copy
//                           validation, inject a successful SC, let the
//                           doomed validation fail, repeat. Wait-free
//                           implementations stay bounded (the announce/help
//                           path rescues the victim); the retry strawman's
//                           victim LL grows with however long the
//                           adversary cares to run;
//   * enumerate_preemption_bounded
//                           CHESS-style bounded search (Musuvathi & Qadeer):
//                           exhaustively explore every schedule with at
//                           most K preemptions — and, with a crash budget,
//                           every crash-stop placement — checking
//                           invariants and the sequential-spec oracle after
//                           every step;
//   * run_crash_churn       seeded-random scheduling with periodic
//                           crash(pid) injection and delayed reclamation —
//                           the membership layer's churn, in the simulator;
//   * run_replay            re-executes a recorded schedule token-for-token
//                           (every invariant-violation message embeds its
//                           scheduler seed and exact schedule prefix, so
//                           failures reproduce with --seed/--replay).
//
// Systems and checkers are plain copyable values, which is what makes the
// exhaustive search a simple DFS with state copies at branch points.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mwllsc::sim {

namespace detail {

/// Whether a step machine models the crash-stop adversary (crash/reclaim).
/// Runners that inject crashes compile their crash arms out for systems
/// that don't (the am/retry baselines), instead of failing to instantiate.
template <class S, class = void>
struct SupportsCrash : std::false_type {};
template <class S>
struct SupportsCrash<
    S, std::void_t<decltype(std::declval<S&>().crash(std::uint32_t{0})),
                   decltype(std::declval<S&>().reclaim(std::uint32_t{0}))>>
    : std::true_type {};

}  // namespace detail

enum class OpType { kLl, kSc, kVl };

/// Completion record for one operation, carrying the ghost state the
/// oracle needs. "version" is the abstract state version: the number of
/// successful SCs applied to the variable so far (version v's value is the
/// v-th entry of the checker's history).
struct OpRecord {
  OpType type = OpType::kLl;
  std::uint32_t pid = 0;
  std::uint32_t steps = 0;      ///< simulator steps this op took
  bool success = false;         ///< SC/VL outcome; LL always true
  bool helped = false;          ///< LL: a donation was involved
  bool had_link = false;        ///< SC/VL: link_valid on entry
  std::vector<std::uint64_t> value;  ///< LL: value read; SC: value written
  std::uint64_t start_version = 0;   ///< version when the op began
  std::uint64_t end_version = 0;     ///< version when the op completed
  std::uint64_t lin_version = 0;     ///< LL: version whose value was returned
  std::uint64_t link_version = 0;    ///< SC/VL: version the matching LL linked at
  std::uint64_t version_at_sc = 0;   ///< SC: version right before the X step
};

struct StepResult {
  bool completed = false;
  OpRecord rec;  ///< valid iff completed
};

struct RunResult {
  bool ok = true;
  std::string error;
  std::uint64_t total_steps = 0;
  std::uint32_t max_ll_steps = 0;  ///< worst completed LL, in steps
};

struct EnumerateResult {
  bool ok = true;
  std::string error;
  std::uint64_t schedules_explored = 0;  ///< complete executions reached
  std::uint64_t total_steps = 0;         ///< step() calls across the search
  std::uint32_t max_ll_steps = 0;  ///< worst completed LL across schedules
  bool truncated = false;                ///< hit the schedule budget
};

struct WorkloadConfig {
  std::uint32_t ops_per_proc = 100;  ///< LL..SC rounds per process
  std::uint32_t vl_percent = 10;     ///< chance of a VL between LL and SC
  std::uint64_t seed = 1;            ///< workload stream seed (VL coin)
};

/// Owns a System and drives each process through a deterministic script of
/// ops_per_proc rounds of LL, optional VL, then SC of a value derived from
/// (pid, round) — so the oracle can match every observed value to the
/// unique write that produced it. The scheduler (a runner below) only
/// chooses *which* process takes the next step.
template <class System>
class SimWorkload {
 public:
  SimWorkload(System sys, WorkloadConfig cfg)
      : sys_(std::move(sys)), cfg_(cfg), crashed_(sys_.n(), 0) {
    procs_.reserve(sys_.n());
    for (std::uint32_t p = 0; p < sys_.n(); ++p) {
      procs_.push_back(Proc{util::SplitMix64(cfg_.seed * 0x9e3779b9u + p)});
    }
  }

  System& system() { return sys_; }
  const System& system() const { return sys_; }

  /// A crashed process takes no steps until reclaimed, so it counts as
  /// done for scheduling purposes (done() means "no runnable work", not
  /// "every script finished" — a crash-stop may strand a script forever).
  bool proc_done(std::uint32_t p) const {
    return crashed_[p] != 0 ||
           (procs_[p].rounds >= cfg_.ops_per_proc && sys_.idle(p));
  }

  bool done() const {
    for (std::uint32_t p = 0; p < sys_.n(); ++p) {
      if (!proc_done(p)) return false;
    }
    return true;
  }

  bool crashed(std::uint32_t p) const { return crashed_[p] != 0; }

  /// Whether p's script is finished regardless of crash state (used by
  /// churn runners to decide if a crashed process is worth reclaiming
  /// before declaring the run over).
  bool script_done(std::uint32_t p) const {
    return procs_[p].rounds >= cfg_.ops_per_proc && sys_.idle(p);
  }

  /// One simulator step of process p, feeding the checker after the step
  /// and after any op completion. p must not be done.
  template <class Checker>
  StepResult step(std::uint32_t p, Checker& chk) {
    assert(!proc_done(p));
    sched_.push_back(p << 2);
    if (sys_.idle(p)) begin_next(p);
    StepResult r = sys_.step(p);
    ++total_steps_;
    chk.on_step(sys_);
    if (r.completed) {
      advance_script(p, r.rec);
      chk.on_op(sys_, r.rec);
    }
    return r;
  }

  /// Crash-stop event: p freezes wherever it is and never steps again
  /// (until reclaimed). Re-runs the invariant checks at the crash point —
  /// a frozen process must leave every invariant intact by construction.
  template <class Checker>
  void crash(std::uint32_t p, Checker& chk) {
    static_assert(detail::SupportsCrash<System>::value,
                  "this step machine does not model crash-stop");
    assert(!crashed_[p]);
    sched_.push_back((p << 2) | 1);
    crashed_[p] = 1;
    sys_.crash(p);
    chk.on_step(sys_);
  }

  /// Reclaims a crashed process's slot (completing/withdrawing its help
  /// obligations, see System::reclaim) and makes the pid runnable again;
  /// its interrupted micro-op restarts from scratch. Re-runs the invariant
  /// checks — reclamation must restore the exact buffer-ownership census.
  template <class Checker>
  void reclaim(std::uint32_t p, Checker& chk) {
    assert(crashed_[p]);
    sched_.push_back((p << 2) | 2);
    crashed_[p] = 0;
    sys_.reclaim(p);
    chk.on_step(sys_);
  }

  std::uint64_t total_steps() const { return total_steps_; }
  std::uint32_t max_ll_steps() const { return max_ll_steps_; }
  std::uint64_t completed_lls() const { return completed_lls_; }

  /// The exact schedule so far in `--replay` token form: "P" is one step
  /// of process P, "cP" a crash, "rP" a reclaim. Longer schedules are
  /// truncated with a "+K" tail — the scheduler seed in the same message
  /// reproduces them in full.
  std::string schedule_string(std::size_t max_chars = 4096) const {
    std::string out;
    for (std::size_t i = 0; i < sched_.size(); ++i) {
      std::string tok;
      switch (sched_[i] & 3) {
        case 1: tok = "c"; break;
        case 2: tok = "r"; break;
        default: break;
      }
      tok += std::to_string(sched_[i] >> 2);
      if (!out.empty()) out += ',';
      if (out.size() + tok.size() > max_chars) {
        out += "+" + std::to_string(sched_.size() - i) + " more";
        break;
      }
      out += tok;
    }
    return out;
  }

 private:
  // Micro-op script position within the current round.
  enum : std::uint8_t { kAtLl = 0, kAtVl = 1, kAtSc = 2 };

  struct Proc {
    util::SplitMix64 rng;
    std::uint32_t rounds = 0;
    std::uint8_t micro = kAtLl;
  };

  void begin_next(std::uint32_t p) {
    Proc& pr = procs_[p];
    assert(pr.rounds < cfg_.ops_per_proc);
    switch (pr.micro) {
      case kAtLl:
        sys_.begin_ll(p);
        break;
      case kAtVl:
        sys_.begin_vl(p);
        break;
      case kAtSc:
        sys_.begin_sc(p, value_for(p, pr.rounds));
        break;
    }
  }

  void advance_script(std::uint32_t p, const OpRecord& rec) {
    Proc& pr = procs_[p];
    switch (rec.type) {
      case OpType::kLl:
        if (rec.steps > max_ll_steps_) max_ll_steps_ = rec.steps;
        ++completed_lls_;
        pr.micro = (pr.rng.next() % 100 < cfg_.vl_percent) ? kAtVl : kAtSc;
        break;
      case OpType::kVl:
        pr.micro = kAtSc;
        break;
      case OpType::kSc:
        pr.micro = kAtLl;
        ++pr.rounds;
        break;
    }
  }

  std::vector<std::uint64_t> value_for(std::uint32_t p,
                                       std::uint32_t round) const {
    std::vector<std::uint64_t> v(sys_.w());
    for (std::uint32_t i = 0; i < sys_.w(); ++i) {
      v[i] = (std::uint64_t{p} + 1) * 0x100000001b3ULL +
             std::uint64_t{round} * 131 + i * 7 + 1;
    }
    return v;
  }

  System sys_;
  WorkloadConfig cfg_;
  std::vector<std::uint8_t> crashed_;
  std::vector<Proc> procs_;
  std::vector<std::uint32_t> sched_;  ///< (pid << 2) | {step=0, crash=1, reclaim=2}
  std::uint64_t total_steps_ = 0;
  std::uint64_t completed_lls_ = 0;
  std::uint32_t max_ll_steps_ = 0;
};

namespace detail {

/// On a checker violation, embeds how the schedule was produced (the seed
/// or adversary) plus the exact schedule prefix in the error, so every
/// failure reproduces via --seed or --replay (bench_sim_schedules).
template <class System, class Checker>
bool bail(const Checker& chk, RunResult& res, const SimWorkload<System>& wl,
          const std::string& how) {
  if (chk.ok()) return false;
  res.ok = false;
  res.error = chk.error() + " [repro: " + how +
              " schedule=" + wl.schedule_string() + "]";
  return true;
}

}  // namespace detail

/// Seeded uniform scheduling: every step, a uniformly random not-yet-done
/// process moves.
template <class System, class Checker>
RunResult run_random(SimWorkload<System>& wl, Checker& chk,
                     std::uint64_t sched_seed) {
  util::Xoshiro256 rng(sched_seed ? sched_seed : 1);
  RunResult res;
  const std::string how = "sched-seed=" + std::to_string(sched_seed);
  std::vector<std::uint32_t> runnable;
  while (!wl.done()) {
    runnable.clear();
    for (std::uint32_t p = 0; p < wl.system().n(); ++p) {
      if (!wl.proc_done(p)) runnable.push_back(p);
    }
    const std::uint32_t p =
        runnable[rng.next_below(static_cast<std::uint32_t>(runnable.size()))];
    wl.step(p, chk);
    if (detail::bail(chk, res, wl, how)) break;
  }
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

/// Churn scheduling for the crash-stop adversary: seeded-random stepping
/// with a crash injected every ~crash_period steps (never the last live
/// process) and each dead slot reclaimed reclaim_delay steps later, so
/// survivors keep running against frozen announces, orphaned donations and
/// in-flight retirements, then against the recycled slots.
struct ChurnConfig {
  std::uint64_t sched_seed = 1;
  std::uint32_t crash_period = 53;   ///< steps between crash injections
  std::uint32_t reclaim_delay = 23;  ///< steps a dead slot stays unreclaimed
  std::uint32_t max_concurrent_crashes = 1;
};

template <class System, class Checker>
RunResult run_crash_churn(SimWorkload<System>& wl, Checker& chk,
                          ChurnConfig cfg) {
  static_assert(detail::SupportsCrash<System>::value,
                "crash churn needs a step machine with crash/reclaim");
  util::Xoshiro256 rng(cfg.sched_seed ? cfg.sched_seed : 1);
  RunResult res;
  const std::string how = "churn-seed=" + std::to_string(cfg.sched_seed);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dead;  // pid, at step
  std::vector<std::uint32_t> runnable;
  std::uint64_t next_crash = cfg.crash_period;
  for (;;) {
    // Reclaim dead slots whose grace period expired.
    while (!dead.empty() &&
           wl.total_steps() >= dead.front().second + cfg.reclaim_delay) {
      wl.reclaim(dead.front().first, chk);
      dead.erase(dead.begin());
      if (detail::bail(chk, res, wl, how)) goto out;
    }
    if (wl.done()) {
      // Only frozen stragglers can still hold unfinished scripts; recycle
      // them and let them finish (the run must end with every op done, or
      // the oracle would be vacuous on the tail).
      if (dead.empty()) break;
      for (const auto& d : dead) {
        wl.reclaim(d.first, chk);
        if (detail::bail(chk, res, wl, how)) goto out;
      }
      dead.clear();
      if (wl.done()) break;
    }
    runnable.clear();
    for (std::uint32_t p = 0; p < wl.system().n(); ++p) {
      if (!wl.proc_done(p)) runnable.push_back(p);
    }
    if (runnable.empty()) continue;  // everyone crashed; loop reclaims
    if (wl.total_steps() >= next_crash && runnable.size() > 1 &&
        dead.size() < cfg.max_concurrent_crashes) {
      const std::uint32_t v = runnable[rng.next_below(
          static_cast<std::uint32_t>(runnable.size()))];
      wl.crash(v, chk);
      dead.emplace_back(v, wl.total_steps());
      next_crash = wl.total_steps() + cfg.crash_period;
      if (detail::bail(chk, res, wl, how)) goto out;
      continue;
    }
    const std::uint32_t p =
        runnable[rng.next_below(static_cast<std::uint32_t>(runnable.size()))];
    wl.step(p, chk);
    if (detail::bail(chk, res, wl, how)) goto out;
  }
out:
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

/// Re-executes a recorded schedule token-for-token (the format
/// schedule_string emits and invariant-violation messages embed): "P"
/// steps process P, "cP" crashes it, "rP" reclaims it. Stops at the end of
/// the tokens; a token that is not applicable (wrong config or seed)
/// reports divergence instead of asserting. A momentarily done() workload
/// does not end the replay: a crash-churn run reclaims its frozen
/// stragglers after every live script finished, and those reclaims and
/// the steps that follow are part of the schedule.
template <class System, class Checker>
RunResult run_replay(SimWorkload<System>& wl, Checker& chk,
                     const std::string& schedule) {
  RunResult res;
  std::size_t i = 0;
  while (i < schedule.size()) {
    if (schedule[i] == ',' || schedule[i] == ' ') {
      ++i;
      continue;
    }
    char kind = 's';
    if (schedule[i] == 'c' || schedule[i] == 'r') kind = schedule[i++];
    if (i >= schedule.size() || schedule[i] < '0' || schedule[i] > '9') {
      res.ok = false;
      res.error = "replay: malformed token at offset " + std::to_string(i);
      break;
    }
    std::uint32_t p = 0;
    while (i < schedule.size() && schedule[i] >= '0' && schedule[i] <= '9') {
      p = p * 10 + static_cast<std::uint32_t>(schedule[i++] - '0');
    }
    const char* diverged = nullptr;
    if (p >= wl.system().n()) {
      diverged = "pid out of range";
    } else if (kind == 'c') {
      if (wl.crashed(p)) diverged = "crash of an already-crashed pid";
    } else if (kind == 'r') {
      if (!wl.crashed(p)) diverged = "reclaim of a live pid";
    } else if (wl.proc_done(p)) {
      diverged = "step of a done/crashed pid";
    }
    if (diverged) {
      res.ok = false;
      res.error = std::string("replay diverged (") + diverged +
                  "): check that N/W/ops/seed match the failing run";
      break;
    }
    if (kind == 'c' || kind == 'r') {
      if constexpr (detail::SupportsCrash<System>::value) {
        if (kind == 'c') {
          wl.crash(p, chk);
        } else {
          wl.reclaim(p, chk);
        }
      } else {
        res.ok = false;
        res.error = "replay: crash token for a crash-less step machine";
        break;
      }
    } else {
      wl.step(p, chk);
    }
    if (detail::bail(chk, res, wl, "replay")) break;
  }
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

/// The anti-schedule: starve `victim`'s copy loop. Run the victim until its
/// next step is the copy validation (capped at victim_burst steps), run the
/// other processes round-robin until one lands a successful SC, then let
/// the victim take its now-doomed validation. Repeat until max_steps.
///
/// For the announce/help protocols the victim is rescued by a donation
/// within O(N) successful SCs, so its worst LL is flat in max_steps; the
/// retry strawman's victim never completes and system().steps_in_flight(
/// victim) grows linearly with max_steps.
template <class System, class Checker>
RunResult run_adversarial_anti(SimWorkload<System>& wl, Checker& chk,
                               std::uint32_t victim,
                               std::uint32_t victim_burst,
                               std::uint64_t max_steps) {
  RunResult res;
  const std::string how = "anti-adversary victim=" + std::to_string(victim);
  System& sys = wl.system();
  const std::uint32_t n = sys.n();
  std::uint32_t rr = victim;  // round-robin cursor over the adversaries
  while (wl.total_steps() < max_steps && !wl.done()) {
    // Victim slice: up to the brink of its validation.
    for (std::uint32_t k = 0; k < victim_burst; ++k) {
      if (wl.proc_done(victim) || sys.next_is_validate(victim) ||
          wl.total_steps() >= max_steps) {
        break;
      }
      wl.step(victim, chk);
      if (detail::bail(chk, res, wl, how)) goto out;
    }
    if (wl.proc_done(victim)) break;  // the victim survived its whole script
    // Adversary slice: writers run until enough successful SCs land to
    // doom the victim's validation (doom_delta: 1 for strict validation,
    // P+1 for the jp protocol's aged validation).
    {
      const std::uint64_t v0 = sys.version();
      bool progressed = false;
      while (sys.version() - v0 < sys.doom_delta() &&
             wl.total_steps() < max_steps) {
        std::uint32_t q = n;
        for (std::uint32_t i = 1; i <= n; ++i) {
          const std::uint32_t c = (rr + i) % n;
          if (c != victim && !wl.proc_done(c)) {
            q = c;
            break;
          }
        }
        if (q == n) break;  // no adversaries left
        rr = q;
        wl.step(q, chk);
        if (detail::bail(chk, res, wl, how)) goto out;
        progressed = true;
      }
      if (!progressed) {
        // Degenerate (N==1 or writers exhausted): the victim runs alone.
        wl.step(victim, chk);
        if (detail::bail(chk, res, wl, how)) goto out;
      } else if (sys.version() - v0 >= sys.doom_delta() &&
                 sys.next_is_validate(victim)) {
        // Only validate once an SC has actually landed; if the step
        // budget ran out mid-slice the validation would *succeed* and
        // hand the victim a completion the adversary never conceded.
        wl.step(victim, chk);  // the doomed validation
        if (detail::bail(chk, res, wl, how)) goto out;
      }
    }
  }
out:
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

namespace detail {

template <class System, class Checker>
struct Enumerator {
  std::uint64_t max_schedules;
  EnumerateResult res;
  bool stop = false;

  void fail(const Checker& chk, const SimWorkload<System>& wl) {
    res.ok = false;
    // The enumerated schedule is the exact repro: feed it to --replay.
    res.error = chk.error() + " [repro: enumerated schedule=" +
                wl.schedule_string() + "]";
    stop = true;
  }

  // Depth-first over scheduling choice points. The default scheduler runs
  // `current` until it finishes its script; the choice of who runs first
  // and each context switch at a completion are free, branching over
  // EVERY runnable successor (not just one canonical pick — otherwise
  // schedules that resume a specific process after a completion would
  // silently cost a preemption). With budget left, every other step is
  // additionally a branch point where any live process may preempt.
  // `fresh_switch` marks the step right after a free choice, where
  // preempting would only replay a sibling free branch — suppressing it
  // keeps the enumeration duplicate-free. Recursion depth <= preemption
  // budget + crash budget + number of processes: the continue-arm is the
  // loop, not a recursive call.
  //
  // With crash budget, every step of `current` is additionally a branch
  // point where current crash-stops instead of stepping. Crashing only
  // the about-to-step process is a sound reduction: a crash is
  // protocol-inert (it only suppresses the victim's future steps), so any
  // execution with a crash is step-for-step identical to one where the
  // victim froze immediately after its own last step — or before its
  // first, which the free start/switch branches make it `current` for.
  // The budget therefore injects a crash at every protocol step of every
  // process without enumerating the redundant placements in between.
  void explore(SimWorkload<System> wl, Checker chk, std::uint32_t current,
               std::uint32_t preempts_left, std::uint32_t crashes_left,
               bool fresh_switch) {
    for (;;) {
      if (stop) return;
      if (wl.done()) {
        ++res.schedules_explored;
        if (wl.max_ll_steps() > res.max_ll_steps) {
          res.max_ll_steps = wl.max_ll_steps();
        }
        if (res.schedules_explored >= max_schedules) {
          res.truncated = true;
          stop = true;
        }
        return;
      }
      if (wl.proc_done(current)) {
        // Free switch: continue with the first runnable process, branch
        // recursively into each alternative successor.
        std::uint32_t first = wl.system().n();
        for (std::uint32_t q = 0; q < wl.system().n(); ++q) {
          if (wl.proc_done(q)) continue;
          if (first == wl.system().n()) {
            first = q;
            continue;
          }
          explore(wl, chk, q, preempts_left, crashes_left,
                  /*fresh_switch=*/true);
          if (stop) return;
        }
        assert(first < wl.system().n());
        current = first;
      } else if (!fresh_switch && preempts_left > 0) {
        for (std::uint32_t q = 0; q < wl.system().n(); ++q) {
          if (q == current || wl.proc_done(q)) continue;
          SimWorkload<System> wl2 = wl;
          Checker chk2 = chk;
          wl2.step(q, chk2);
          ++res.total_steps;
          if (!chk2.ok()) {
            fail(chk2, wl2);
            return;
          }
          explore(std::move(wl2), std::move(chk2), q, preempts_left - 1,
                  crashes_left, /*fresh_switch=*/false);
          if (stop) return;
        }
      }
      if constexpr (SupportsCrash<System>::value) {
        if (crashes_left > 0 && !wl.crashed(current)) {
          // Crash branch: current freezes here instead of taking this step.
          SimWorkload<System> wl2 = wl;
          Checker chk2 = chk;
          wl2.crash(current, chk2);
          if (!chk2.ok()) {
            fail(chk2, wl2);
            return;
          }
          explore(std::move(wl2), std::move(chk2), current, preempts_left,
                  crashes_left - 1, /*fresh_switch=*/true);
          if (stop) return;
        }
      }
      wl.step(current, chk);
      fresh_switch = false;
      ++res.total_steps;
      if (!chk.ok()) {
        fail(chk, wl);
        return;
      }
    }
  }
};

}  // namespace detail

/// CHESS-style bounded exhaustive search: explore every schedule with at
/// most max_preemptions preemptions and max_crashes crash-stop events (up
/// to max_schedules complete executions), checking after every step. The
/// choice of which process runs first is a free branch — it is not a
/// preemption — so the search really covers every schedule within the
/// budget regardless of who starts; with a crash budget, every protocol
/// step of every process doubles as a crash-stop injection point (see
/// Enumerator::explore for why that placement is exhaustive). Crashed
/// processes stay frozen to the end of the schedule — the live processes
/// must complete against their abandoned announces, donations and
/// in-flight retirements. The workload and checker passed in are templates
/// for the search's copies; they are left untouched.
template <class System, class Checker>
EnumerateResult enumerate_preemption_bounded(const SimWorkload<System>& wl,
                                             const Checker& chk,
                                             std::uint32_t max_preemptions,
                                             std::uint64_t max_schedules,
                                             std::uint32_t max_crashes = 0) {
  detail::Enumerator<System, Checker> e;
  e.max_schedules = max_schedules ? max_schedules : 1;
  for (std::uint32_t p = 0; p < wl.system().n() && !e.stop; ++p) {
    if (wl.proc_done(p)) continue;
    e.explore(wl, chk, p, max_preemptions, max_crashes,
              /*fresh_switch=*/true);
  }
  return e.res;
}

}  // namespace mwllsc::sim
