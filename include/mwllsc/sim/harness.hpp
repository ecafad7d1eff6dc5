// Deterministic simulation of the shipped multiword LL/SC classes.
//
// Each simulated process runs a script of LL, optional try_read and VL,
// then SC calls on a real core::MwLLSC, baseline::AmLLSC or
// baseline::RetryLLSC built with core::HookEnv (core/env.hpp). The class
// calls Env::at right before each shared access; the harness's hook
// records the access's name and yields the process's fiber (sim/fiber.hpp)
// to the scheduler. So one step is one shared access of the shipped code,
// and the scheduler — not the OS — decides which process performs its
// next access. That turns Theorem 1's wait-freedom claim from a
// statistical observation into a checkable property:
//
//   * run_random            seeded uniform scheduling, the baseline sweep;
//   * run_adversarial_anti  an anti-schedule that tries to starve one
//                           victim reader: run the victim up to its copy
//                           validation, land enough successful SCs to doom
//                           it, let the doomed validation run, repeat.
//                           Wait-free classes stay bounded (the
//                           announce/help path rescues the victim); the
//                           retry strawman's victim LL grows with however
//                           long the adversary cares to run;
//   * enumerate_preemption_bounded
//                           CHESS-style bounded search (Musuvathi & Qadeer):
//                           every schedule with at most K preemptions —
//                           and, with a crash budget, every crash-stop
//                           placement. Fibers cannot be copied, so the
//                           search is stateless: it re-runs the schedule
//                           prefix on a rebuilt object at every branch;
//   * run_crash_churn       seeded-random scheduling with periodic
//                           crash-stop injection and delayed reclamation —
//                           the membership layer's churn, in the simulator;
//   * run_replay            re-executes a recorded schedule token-for-token
//                           (every violation message embeds its scheduler
//                           seed and exact schedule, so failures reproduce
//                           with bench_sim_schedules --seed/--replay).
//
// A crash is a fiber the scheduler never resumes again. A reclaim is the
// class's own reclaim_pid + rebind_pid (core::MwLLSC only) plus a fresh
// fiber that restarts the interrupted script step. The checker
// (sim/invariants.hpp) runs after every step and every completed op.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/am_llsc.hpp"
#include "baseline/retry_llsc.hpp"
#include "core/env.hpp"
#include "core/llsc.hpp"
#include "core/mwllsc.hpp"
#include "obs/trace.hpp"
#include "sim/fiber.hpp"
#include "sim/invariants.hpp"
#include "util/rng.hpp"

namespace mwllsc::sim {

/// The shipped classes, with their steps routed to the simulator.
using SimJp = core::MwLLSC<llsc::Dw128LLSC, core::HookEnv>;
using SimAm = baseline::AmLLSC<llsc::Dw128LLSC, core::HookEnv>;
using SimRetry = baseline::RetryLLSC<llsc::Dw128LLSC, core::HookEnv>;

namespace detail {

/// Whether a class can take a crashed pid back (reclaim_pid/rebind_pid).
template <class T, class = void>
struct SupportsReclaim : std::false_type {};
template <class T>
struct SupportsReclaim<
    T, std::void_t<decltype(std::declval<T&>().reclaim_pid(0u)),
                   decltype(std::declval<T&>().rebind_pid(0u))>>
    : std::true_type {};

}  // namespace detail

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
  std::uint64_t total_steps = 0;         ///< steps run, replays included
  std::uint32_t max_ll_steps = 0;  ///< worst completed LL across schedules
  bool truncated = false;                ///< hit the schedule budget
};

struct WorkloadConfig {
  std::uint32_t ops_per_proc = 100;  ///< LL..SC rounds per process
  std::uint32_t vl_percent = 10;     ///< chance of a VL between LL and SC
  /// Chance of a try_read of a random word range right after the LL, then
  /// always a VL (which checks the read left the link alone). At 0 the
  /// read coin is never drawn, so a shape without reads keeps the stream,
  /// and so the schedules, it has without this field.
  std::uint32_t read_percent = 0;
  std::uint64_t seed = 1;  ///< workload stream seed (read/VL coins, ranges)
};

/// One object of class Impl and n processes, each a fiber running
/// ops_per_proc rounds of LL, an optional try_read, an optional VL, then an
/// SC of a value no other attempt writes. The scheduler (a runner below)
/// only chooses which process performs its next shared access.
template <class Impl, class Checker = InvariantChecker<Impl>>
class SimWorkload {
 public:
  SimWorkload(std::uint32_t n, std::uint32_t w, WorkloadConfig cfg)
      : n_(n), w_(w), cfg_(cfg), procs_(new Proc[n]) {
    restart();
  }
  SimWorkload(const SimWorkload&) = delete;
  SimWorkload& operator=(const SimWorkload&) = delete;

  /// Back to the initial state: a fresh object, checker and scripts. The
  /// stacks are reused, which is what makes the replay search cheap.
  void restart() {
    obj_ = std::make_unique<Impl>(n_, w_);
    if (sink_) obj_->set_trace(sink_, var_);
    chk_ = std::make_unique<Checker>(n_, w_);
    parked_.assign(n_, nullptr);
    crashed_.assign(n_, 0);
    sched_.clear();
    done_.clear();
    next_id_ = 1;
    total_steps_ = completed_lls_ = crashes_ = reclaims_ = 0;
    reads_ = refused_reads_ = 0;
    max_ll_steps_ = 0;
    for (std::uint32_t p = 0; p < n_; ++p) {
      Proc& pr = procs_[p];
      pr.wl = this;
      pr.pid = p;
      pr.rng = util::SplitMix64(cfg_.seed * 0x9e3779b9u + p);
      pr.rounds = 0;
      pr.micro = kAtLl;
      pr.sc_id = 0;
      pr.rec.value.assign(w_, 0);
      launch(p);
    }
  }

  /// Records the object's events into `sink` as variable `var`, from the
  /// first operation on: restarts the workload with the binding in place.
  void trace(obs::TraceSink* sink, std::uint32_t var) {
    sink_ = sink;
    var_ = var;
    restart();
  }

  Impl& object() { return *obj_; }
  const Impl& object() const { return *obj_; }
  std::uint32_t n() const { return n_; }
  std::uint32_t w() const { return w_; }

  bool ok() const { return chk_->ok(); }
  const std::string& error() const { return chk_->error(); }

  /// Crashed processes count as done: done() means "no runnable work", not
  /// "every script finished" — a crash-stop may strand a script forever.
  bool proc_done(std::uint32_t p) const {
    return crashed_[p] != 0 || procs_[p].fiber.finished();
  }
  bool done() const {
    for (std::uint32_t p = 0; p < n_; ++p) {
      if (!proc_done(p)) return false;
    }
    return true;
  }
  bool crashed(std::uint32_t p) const { return crashed_[p] != 0; }

  /// The shared access p performs at its next step (nullptr once done).
  const char* parked_at(std::uint32_t p) const { return parked_[p]; }
  /// Whether p's next step is an LL or try_read copy validation.
  bool at_validation(std::uint32_t p) const {
    return detail::is_point(parked_[p], "ll:validate") ||
           detail::is_point(parked_[p], "ll:revalidate") ||
           detail::is_point(parked_[p], "read:validate");
  }
  /// Steps p's unfinished operation has taken so far.
  std::uint32_t steps_in_flight(std::uint32_t p) const {
    return procs_[p].fiber.finished() ? 0 : procs_[p].op_steps;
  }
  std::uint64_t version() const { return obj_->version(); }

  /// One step of p: the shared access it is parked at, then its private
  /// work up to the next access. p must not be done.
  void step(std::uint32_t p) {
    assert(!proc_done(p));
    sched_.push_back(p << 2);
    const char* point = parked_[p];
    resume(p);
    ++total_steps_;
    chk_->on_step(*obj_, StepInfo{p, point, procs_[p].sc_id, parked_});
    drain();
  }

  /// Crash-stop: p stays parked where it is and never steps again (until
  /// reclaimed). Nothing shared changes, so there is nothing to check.
  void crash(std::uint32_t p) {
    assert(!proc_done(p));
    sched_.push_back((p << 2) | 1);
    crashed_[p] = 1;
    ++crashes_;
  }

  /// Takes a crashed pid back through the class's own reclaim_pid and
  /// rebind_pid, and gives it a fresh fiber that restarts the interrupted
  /// script step (an interrupted LL reruns; an interrupted SC fails, its
  /// link gone). The checker re-verifies the census right after.
  void reclaim(std::uint32_t p) {
    static_assert(detail::SupportsReclaim<Impl>::value,
                  "this class cannot take a crashed pid back");
    assert(crashed_[p]);
    sched_.push_back((p << 2) | 2);
    crashed_[p] = 0;
    ++reclaims_;
    obj_->reclaim_pid(p);
    obj_->rebind_pid(p);
    chk_->on_reclaim(p);
    launch(p);
    chk_->on_step(*obj_, StepInfo{p, "reclaim", procs_[p].sc_id, parked_});
    drain();
  }

  std::uint64_t total_steps() const { return total_steps_; }
  std::uint32_t max_ll_steps() const { return max_ll_steps_; }
  std::uint64_t completed_lls() const { return completed_lls_; }
  std::uint64_t completed_reads() const { return reads_; }
  std::uint64_t refused_reads() const { return refused_reads_; }
  std::uint64_t crashes_total() const { return crashes_; }
  std::uint64_t crash_reclaims_total() const { return reclaims_; }

  /// The exact schedule so far in `--replay` token form: "P" is one step
  /// of process P, "cP" a crash, "rP" a reclaim. Longer schedules are
  /// truncated with a "+K more" tail — the scheduler seed in the same
  /// message reproduces them in full.
  std::string schedule_string(std::size_t max_chars = 4096) const {
    std::string out;
    for (std::size_t i = 0; i < sched_.size(); ++i) {
      std::string tok = (sched_[i] & 3) == 1   ? "c"
                        : (sched_[i] & 3) == 2 ? "r"
                                               : "";
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
  // Script position within the current round.
  enum : std::uint8_t { kAtLl = 0, kAtVl = 1, kAtSc = 2, kAtRead = 3 };

  // Everything a fiber's script touches lives here, outside the fiber's
  // frames, so a crashed fiber leaks nothing.
  struct Proc {
    SimWorkload* wl = nullptr;
    std::uint32_t pid = 0;
    Fiber fiber;
    util::SplitMix64 rng{0};
    std::uint32_t rounds = 0;
    std::uint8_t micro = kAtLl;
    std::uint32_t op_steps = 0;
    std::uint64_t sc_id = 0;  ///< latest SC attempt's value id
    OpRecord rec;
  };

  static void run(void* arg) {
    auto* pr = static_cast<Proc*>(arg);
    pr->wl->script(*pr);
  }

  void script(Proc& pr) {
    const std::uint32_t p = pr.pid;
    OpRecord& rec = pr.rec;
    while (pr.rounds < cfg_.ops_per_proc) {
      rec.pid = p;
      rec.start_version = obj_->version();
      pr.op_steps = 0;
      switch (pr.micro) {
        case kAtLl:
          rec.type = OpType::kLl;
          obj_->ll(p, rec.value.data());
          rec.success = true;
          if (cfg_.read_percent > 0 &&
              pr.rng.next() % 100 < cfg_.read_percent) {
            pr.micro = kAtRead;
          } else {
            pr.micro =
                (pr.rng.next() % 100 < cfg_.vl_percent) ? kAtVl : kAtSc;
          }
          break;
        case kAtRead: {
          rec.type = OpType::kRead;
          rec.first = static_cast<std::uint32_t>(pr.rng.next() % w_);
          const auto count =
              static_cast<std::uint32_t>(1 + pr.rng.next() % (w_ - rec.first));
          rec.value.resize(count);
          rec.success = obj_->try_read(p, rec.first, count, rec.value.data());
          pr.micro = kAtVl;
          break;
        }
        case kAtVl:
          rec.type = OpType::kVl;
          rec.success = obj_->vl(p);
          pr.micro = kAtSc;
          break;
        default:
          rec.type = OpType::kSc;
          rec.sc_id = pr.sc_id = next_id_++;
          rec.value.resize(w_);  // a try_read may have shrunk it
          for (std::uint32_t i = 0; i < w_; ++i) {
            rec.value[i] = value_word(rec.sc_id, i);
          }
          rec.success = obj_->sc(p, rec.value.data());
          pr.micro = kAtLl;
          ++pr.rounds;
          break;
      }
      rec.steps = pr.op_steps;
      rec.end_version = obj_->version();
      done_.push_back(rec);
    }
  }

  /// The Env hook: p is about to make the shared access `point`; park it.
  static void on_at(void* ctx, const char* point, std::uint32_t pid) {
    auto* self = static_cast<SimWorkload*>(ctx);
    Proc& pr = self->procs_[pid];
    self->parked_[pid] = point;
    pr.fiber.yield();
    ++pr.op_steps;
  }

  /// Arms p's fiber on its script and runs it to its first shared access
  /// (not a step: nothing shared happens before it).
  void launch(std::uint32_t p) {
    procs_[p].fiber.start(&run, &procs_[p]);
    resume(p);
    drain();
  }

  void resume(std::uint32_t p) {
    core::HookEnv::install(&on_at, this);
    procs_[p].fiber.resume();
    core::HookEnv::install(nullptr, nullptr);
    if (procs_[p].fiber.finished()) parked_[p] = nullptr;
  }

  void drain() {
    for (const OpRecord& r : done_) {
      if (r.type == OpType::kLl) {
        if (r.steps > max_ll_steps_) max_ll_steps_ = r.steps;
        ++completed_lls_;
      } else if (r.type == OpType::kRead) {
        ++reads_;
        if (!r.success) ++refused_reads_;
      }
      chk_->on_op(r);
    }
    done_.clear();
  }

  const std::uint32_t n_;
  const std::uint32_t w_;
  const WorkloadConfig cfg_;
  std::unique_ptr<Proc[]> procs_;
  std::unique_ptr<Impl> obj_;
  std::unique_ptr<Checker> chk_;
  obs::TraceSink* sink_ = nullptr;
  std::uint32_t var_ = 0;
  std::vector<const char*> parked_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint32_t> sched_;  ///< (pid << 2) | {step, crash, reclaim}
  std::vector<OpRecord> done_;        ///< ops completed by the current step
  std::uint64_t next_id_ = 1;
  std::uint64_t total_steps_ = 0;
  std::uint64_t completed_lls_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t reclaims_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t refused_reads_ = 0;
  std::uint32_t max_ll_steps_ = 0;
};

namespace detail {

/// On a violation, embeds how the schedule was produced (the seed or
/// adversary) plus the exact schedule so far in the error, so every
/// failure reproduces via --seed or --replay (bench_sim_schedules).
template <class Wl>
bool bail(const Wl& wl, RunResult& res, const std::string& how) {
  if (wl.ok()) return false;
  res.ok = false;
  res.error =
      wl.error() + " [repro: " + how + " schedule=" + wl.schedule_string() +
      "]";
  return true;
}

template <class Wl>
RunResult finish(const Wl& wl, RunResult res) {
  res.total_steps = wl.total_steps();
  res.max_ll_steps = wl.max_ll_steps();
  return res;
}

template <class Wl>
void runnable(const Wl& wl, std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::uint32_t p = 0; p < wl.n(); ++p) {
    if (!wl.proc_done(p)) out.push_back(p);
  }
}

}  // namespace detail

/// Seeded uniform scheduling: every step, a uniformly random not-yet-done
/// process moves.
template <class Wl>
RunResult run_random(Wl& wl, std::uint64_t sched_seed) {
  util::Xoshiro256 rng(sched_seed ? sched_seed : 1);
  RunResult res;
  const std::string how = "sched-seed=" + std::to_string(sched_seed);
  std::vector<std::uint32_t> ready;
  while (!wl.done()) {
    detail::runnable(wl, ready);
    wl.step(ready[rng.next_below(static_cast<std::uint32_t>(ready.size()))]);
    if (detail::bail(wl, res, how)) break;
  }
  return detail::finish(wl, res);
}

/// Churn scheduling for the crash-stop adversary: seeded-random stepping
/// with a crash injected every ~crash_period steps (never the last live
/// process) and each dead pid reclaimed reclaim_delay steps later, so
/// survivors keep running against frozen announces, orphaned donations and
/// pending ring swaps, then against the recycled pids.
struct ChurnConfig {
  std::uint64_t sched_seed = 1;
  std::uint32_t crash_period = 53;   ///< steps between crash injections
  std::uint32_t reclaim_delay = 23;  ///< steps a dead pid stays unreclaimed
  std::uint32_t max_concurrent_crashes = 1;
};

template <class Wl>
RunResult run_crash_churn(Wl& wl, ChurnConfig cfg) {
  util::Xoshiro256 rng(cfg.sched_seed ? cfg.sched_seed : 1);
  RunResult res;
  const std::string how = "churn-seed=" + std::to_string(cfg.sched_seed);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dead;  // pid, at step
  std::vector<std::uint32_t> ready;
  std::uint64_t next_crash = cfg.crash_period;
  for (;;) {
    // Reclaim dead pids whose grace period expired.
    while (!dead.empty() &&
           wl.total_steps() >= dead.front().second + cfg.reclaim_delay) {
      wl.reclaim(dead.front().first);
      dead.erase(dead.begin());
      if (detail::bail(wl, res, how)) return detail::finish(wl, res);
    }
    if (wl.done()) {
      // Only frozen stragglers can still hold unfinished scripts; recycle
      // them and let them finish (the run must end with every op done, or
      // the oracle would be vacuous on the tail).
      if (dead.empty()) break;
      for (const auto& d : dead) {
        wl.reclaim(d.first);
        if (detail::bail(wl, res, how)) return detail::finish(wl, res);
      }
      dead.clear();
      if (wl.done()) break;
    }
    detail::runnable(wl, ready);
    if (ready.empty()) continue;  // everyone crashed; the loop reclaims
    if (wl.total_steps() >= next_crash && ready.size() > 1 &&
        dead.size() < cfg.max_concurrent_crashes) {
      const std::uint32_t v =
          ready[rng.next_below(static_cast<std::uint32_t>(ready.size()))];
      wl.crash(v);
      dead.emplace_back(v, wl.total_steps());
      next_crash = wl.total_steps() + cfg.crash_period;
      continue;
    }
    wl.step(ready[rng.next_below(static_cast<std::uint32_t>(ready.size()))]);
    if (detail::bail(wl, res, how)) break;
  }
  return detail::finish(wl, res);
}

/// Re-executes a recorded schedule token-for-token (the format
/// schedule_string emits and violation messages embed): "P" steps process
/// P, "cP" crashes it, "rP" reclaims it. Stops at the end of the tokens; a
/// token that does not apply (wrong config or seed) reports divergence
/// instead of asserting. A momentarily done() workload does not end the
/// replay: a crash-churn run reclaims its frozen stragglers after every
/// live script finished, and those reclaims and the steps that follow are
/// part of the schedule.
template <class Wl>
RunResult run_replay(Wl& wl, const std::string& schedule) {
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
    if (p >= wl.n()) {
      diverged = "pid out of range";
    } else if (kind == 'c') {
      if (wl.proc_done(p)) diverged = "crash of a done or crashed pid";
    } else if (kind == 'r') {
      if (!wl.crashed(p)) diverged = "reclaim of a live pid";
    } else if (wl.proc_done(p)) {
      diverged = "step of a done or crashed pid";
    }
    if (diverged) {
      res.ok = false;
      res.error = std::string("replay diverged (") + diverged +
                  "): check that N/W/ops/seed match the failing run";
      break;
    }
    if (kind == 'c') {
      wl.crash(p);
    } else if (kind == 'r') {
      if constexpr (detail::SupportsReclaim<
                        std::decay_t<decltype(wl.object())>>::value) {
        wl.reclaim(p);
      } else {
        res.ok = false;
        res.error = "replay: reclaim token for a class without reclaim_pid";
        break;
      }
    } else {
      wl.step(p);
    }
    if (detail::bail(wl, res, "replay")) break;
  }
  return detail::finish(wl, res);
}

/// The anti-schedule: starve `victim`'s copy loop. Run the victim until its
/// next step is a copy validation (capped at victim_burst steps), run the
/// other processes round-robin until `doom_delta` successful SCs land —
/// enough to make that validation fail (1 for strict validation, P+1 for
/// jp's aged validation) — then let the victim take its doomed validation.
/// Repeat until max_steps.
///
/// For the announce/help classes the victim is rescued by a donation
/// within O(N) successful SCs, so its worst LL is flat in max_steps; the
/// retry strawman's victim never completes and steps_in_flight(victim)
/// grows linearly with max_steps.
template <class Wl>
RunResult run_adversarial_anti(Wl& wl, std::uint32_t victim,
                               std::uint32_t victim_burst,
                               std::uint64_t max_steps,
                               std::uint64_t doom_delta) {
  RunResult res;
  const std::string how = "anti-adversary victim=" + std::to_string(victim);
  const std::uint32_t n = wl.n();
  std::uint32_t rr = victim;  // round-robin cursor over the adversaries
  while (wl.total_steps() < max_steps && !wl.done()) {
    // Victim slice: up to the brink of its validation.
    for (std::uint32_t k = 0; k < victim_burst; ++k) {
      if (wl.proc_done(victim) || wl.at_validation(victim) ||
          wl.total_steps() >= max_steps) {
        break;
      }
      wl.step(victim);
      if (detail::bail(wl, res, how)) return detail::finish(wl, res);
    }
    if (wl.proc_done(victim)) break;  // the victim survived its whole script
    // Adversary slice: writers run until enough successful SCs land.
    const std::uint64_t v0 = wl.version();
    bool progressed = false;
    while (wl.version() - v0 < doom_delta && wl.total_steps() < max_steps) {
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
      wl.step(q);
      if (detail::bail(wl, res, how)) return detail::finish(wl, res);
      progressed = true;
    }
    if (!progressed) {
      // Degenerate (N == 1 or writers exhausted): the victim runs alone.
      wl.step(victim);
      if (detail::bail(wl, res, how)) break;
    } else if (wl.version() - v0 >= doom_delta && wl.at_validation(victim)) {
      // Only validate once the SCs have actually landed; if the step
      // budget ran out mid-slice the validation would succeed and hand
      // the victim a completion the adversary never conceded.
      wl.step(victim);  // the doomed validation
      if (detail::bail(wl, res, how)) break;
    }
  }
  return detail::finish(wl, res);
}

/// CHESS-style bounded exhaustive search over SimWorkload<Impl>(n, w, cfg):
/// every schedule with at most max_preemptions preemptions and max_crashes
/// crash-stops (up to max_schedules complete executions), checked after
/// every step.
///
/// The scheduler runs `current` until its script ends. Who runs first and
/// who runs after a script ends are free choices over every runnable
/// process. With budget left, every other step is also a branch point
/// where any other live process may preempt — except the step right after
/// a free choice, where a preemption would only repeat a sibling free
/// branch. With a crash budget, every step of `current` is also a branch
/// point where it crash-stops instead (frozen to the end of the schedule;
/// survivors must finish against its abandoned announce, donation or ring
/// swap). Crashing only the process about to step is a sound reduction: a
/// crash changes no shared word, so an execution with a crash is
/// step-for-step one where the victim froze right after its own last step.
///
/// Fibers cannot be copied, so the search is stateless: each schedule is
/// a run from a restarted workload that replays the recorded choices and
/// takes the first alternative at each new branch point; the next
/// schedule advances the deepest branch point with alternatives left.
template <class Impl>
EnumerateResult enumerate_preemption_bounded(std::uint32_t n, std::uint32_t w,
                                             WorkloadConfig cfg,
                                             std::uint32_t max_preemptions,
                                             std::uint64_t max_schedules,
                                             std::uint32_t max_crashes = 0) {
  struct Branch {
    std::uint32_t taken;
    std::uint32_t count;
  };
  EnumerateResult res;
  SimWorkload<Impl> wl(n, w, cfg);
  std::vector<Branch> path;
  std::vector<std::uint32_t> ready;
  for (bool first = true;; first = false) {
    if (!first) wl.restart();
    std::size_t depth = 0;
    auto choose = [&](std::uint32_t count) -> std::uint32_t {
      if (count == 1) return 0;
      if (depth == path.size()) path.push_back({0, count});
      assert(path[depth].count == count && "replay diverged");
      return path[depth++].taken;
    };
    std::uint32_t current = n;
    std::uint32_t preempts = max_preemptions;
    std::uint32_t crashes = max_crashes;
    bool fresh = true;
    while (!wl.done()) {
      detail::runnable(wl, ready);
      if (current == n || wl.proc_done(current)) {
        current = ready[choose(static_cast<std::uint32_t>(ready.size()))];
        fresh = true;
      }
      // Alternatives: 0 steps current; 1..k preempt to the k others; the
      // last crashes current.
      const std::uint32_t others =
          (!fresh && preempts > 0)
              ? static_cast<std::uint32_t>(ready.size()) - 1
              : 0;
      const std::uint32_t pick = choose(1 + others + (crashes > 0 ? 1 : 0));
      if (pick == 0 || pick <= others) {
        if (pick != 0) {
          std::uint32_t k = pick;
          for (std::uint32_t q : ready) {
            if (q != current && --k == 0) {
              current = q;
              break;
            }
          }
          --preempts;
        }
        wl.step(current);
        ++res.total_steps;
        fresh = false;
      } else {
        wl.crash(current);
        --crashes;
        fresh = true;
      }
      if (!wl.ok()) {
        res.ok = false;
        res.error = wl.error() + " [repro: enumerated schedule=" +
                    wl.schedule_string() + "]";
        return res;
      }
    }
    ++res.schedules_explored;
    if (wl.max_ll_steps() > res.max_ll_steps) {
      res.max_ll_steps = wl.max_ll_steps();
    }
    if (res.schedules_explored >= max_schedules) {
      res.truncated = true;
      return res;
    }
    path.resize(depth);
    while (!path.empty() && path.back().taken + 1 == path.back().count) {
      path.pop_back();
    }
    if (path.empty()) return res;
    ++path.back().taken;
  }
}

}  // namespace mwllsc::sim
