// Invariant checkers for the simulation harness.
//
// A checker is a copyable value the harness calls after every simulator
// step (on_step) and after every completed operation (on_op); ok() turns
// false, with error() explaining, the first time anything is violated.
// Checkers hold no pointer into the system — they always inspect the
// instance the harness passes — so the CHESS enumerator can copy
// (workload, checker) pairs freely at preemption branch points.
//
//   * NullChecker         accepts everything (pure measurement runs);
//   * JpInvariantChecker  the paper's structural invariants on the jp
//     step machine plus a sequential-spec linearizability oracle:
//       I1      every buffer has exactly one owner: the object (current),
//               a process's spare, a process's exchange side, or a
//               retirement-ring cell;
//       I2      exactly one bank write (the ring retirement) per
//               successful SC, counting the in-flight resolutions;
//       3W+6    no LL exceeds the implementation's step bound (inside
//               the paper's 4W+12) and the defensive retry arm never
//               fires (the help guarantee holds);
//       oracle  every LL returns the abstract value of its claimed
//               linearization version, which lies inside the op's
//               invocation/response window; SC succeeds iff no successful
//               SC intervened since the matching LL (the Brown–Ellen–
//               Ruppert "pragmatic primitives" contract: failures are
//               semantic, never spurious); VL mirrors SC.
//
// Crash-stop schedules need no weakening of any check: the harness re-runs
// on_step at every crash and reclaim event, so a frozen process must leave
// the ownership census and the bank-write equation exact (its buffers stay
// owned, its in-flight retirement stays pending), reclamation must restore
// them (adopting donations, completing the pending bank write), and the
// 3W+6 bound and the oracle keep applying to every op the *live*
// processes complete — which is precisely the wait-freedom claim under
// crashes: nobody who keeps taking steps is ever blocked or starved by a
// process that stopped.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/harness.hpp"
#include "sim/sim_jp.hpp"

namespace mwllsc::sim {

/// Checker that checks nothing: for runs that only measure step counts.
struct NullChecker {
  template <class System>
  void on_step(const System&) {}
  template <class System>
  void on_op(const System&, const OpRecord&) {}
  bool ok() const { return true; }
  const std::string& error() const {
    static const std::string kEmpty;
    return kEmpty;
  }
};

class JpInvariantChecker {
 public:
  explicit JpInvariantChecker(const SimJpSystem& sys)
      : n_(sys.n()),
        w_(sys.w()),
        nbufs_(sys.num_bufs()),
        ring_size_(sys.ring_size()) {
    history_.push_back(sys.current_value());
  }

  void on_step(const SimJpSystem& sys) {
    if (failed_) return;
    ++steps_seen_;
    // Track the abstract state: one step can apply at most one successful
    // SC, whose installed value is the new current buffer's content (the
    // buffer is unwritable while current, so reading it now is exact).
    if (sys.version() == history_.size()) {
      history_.push_back(sys.current_value());
    }
    if (sys.version() + 1 != history_.size()) {
      return fail("abstract version jumped: version=%llu history=%zu",
                  ull(sys.version()), history_.size());
    }
    check_i1(sys);
    check_i2(sys);
    if (sys.ll_retries_total() > 0) {
      return fail("defensive LL retry fired at step %llu — the 3W+6 "
                  "help guarantee is broken",
                  ull(steps_seen_));
    }
  }

  void on_op(const SimJpSystem& sys, const OpRecord& rec) {
    if (failed_) return;
    (void)sys;
    switch (rec.type) {
      case OpType::kLl: {
        if (rec.steps > SimJpSystem::ll_impl_bound(w_)) {
          return fail("LL(p%u) took %u steps, over the 3W+6 bound of %u "
                      "(paper's 4W+12 = %u)",
                      rec.pid, rec.steps, SimJpSystem::ll_impl_bound(w_),
                      SimJpSystem::ll_step_bound(n_, w_));
        }
        if (rec.lin_version < rec.start_version ||
            rec.lin_version > rec.end_version) {
          return fail(
              "LL(p%u) linearization version %llu outside its window "
              "[%llu, %llu]",
              rec.pid, ull(rec.lin_version), ull(rec.start_version),
              ull(rec.end_version));
        }
        if (rec.lin_version >= history_.size() ||
            rec.value != history_[rec.lin_version]) {
          return fail("LL(p%u) returned a value that was never the "
                      "variable's state at its claimed version %llu%s",
                      rec.pid, ull(rec.lin_version),
                      rec.helped ? " (helped path)" : "");
        }
        break;
      }
      case OpType::kSc: {
        const bool should_succeed =
            rec.had_link && rec.version_at_sc == rec.link_version;
        if (rec.success != should_succeed) {
          return fail(
              "SC(p%u) %s but link_version=%llu version_at_sc=%llu "
              "had_link=%d — SC failures must be semantic, never spurious",
              rec.pid, rec.success ? "succeeded" : "failed",
              ull(rec.link_version), ull(rec.version_at_sc),
              rec.had_link ? 1 : 0);
        }
        if (rec.success) {
          const std::uint64_t installed = rec.version_at_sc + 1;
          if (installed >= history_.size() ||
              history_[installed] != rec.value) {
            return fail("SC(p%u) succeeded but version %llu's abstract "
                        "value is not the value it wrote",
                        rec.pid, ull(installed));
          }
        }
        break;
      }
      case OpType::kVl: {
        const bool should_hold =
            rec.had_link && rec.end_version == rec.link_version;
        if (rec.success != should_hold) {
          return fail("VL(p%u) returned %d but link_version=%llu "
                      "version=%llu had_link=%d",
                      rec.pid, rec.success ? 1 : 0, ull(rec.link_version),
                      ull(rec.end_version), rec.had_link ? 1 : 0);
        }
        break;
      }
    }
  }

  bool ok() const { return !failed_; }
  const std::string& error() const { return error_; }

 private:
  static unsigned long long ull(std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  }

  void check_i1(const SimJpSystem& sys) {
    owners_.assign(nbufs_, 0);
    bump_owner(sys.current_buf());
    for (std::uint32_t p = 0; p < n_; ++p) {
      bump_owner(sys.spare_of(p));
      bump_owner(sys.exchange_buf_of(p));
    }
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      bump_owner(sys.ring_buf(j));
    }
    for (std::uint32_t b = 0; b < nbufs_; ++b) {
      if (owners_[b] != 1) {
        return fail("I1 violated at step %llu: buffer %u has %d owners "
                    "(want exactly 1: current, a spare, an exchange "
                    "slot, or a ring cell)",
                    ull(steps_seen_), b, owners_[b]);
      }
    }
  }

  void bump_owner(std::uint32_t b) {
    if (b < nbufs_) {
      ++owners_[b];
    } else {
      fail("I1 violated: out-of-range buffer index %u", b);
    }
  }

  void check_i2(const SimJpSystem& sys) {
    // The ring resolution is its own step after the X SC, so completed
    // plus in-flight bank writes must exactly cover the successful SCs.
    if (sys.bank_writes_total() + sys.pending_bank_writes() !=
            sys.version() ||
        sys.sc_success_total() != sys.version()) {
      fail("I2 violated at step %llu: %llu+%llu bank writes "
           "(done+pending), %llu successful SCs, version %llu (want one "
           "bank write per successful SC)",
           ull(steps_seen_), ull(sys.bank_writes_total()),
           ull(sys.pending_bank_writes()), ull(sys.sc_success_total()),
           ull(sys.version()));
    }
  }

  template <typename... Args>
  void fail(const char* fmt, Args... args) {
    if (failed_) return;
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    failed_ = true;
    error_ = buf;
  }

  std::uint32_t n_;
  std::uint32_t w_;
  std::uint32_t nbufs_;
  std::uint32_t ring_size_;
  std::uint64_t steps_seen_ = 0;
  bool failed_ = false;
  std::string error_;
  std::vector<std::vector<std::uint64_t>> history_;  ///< version -> value
  std::vector<int> owners_;  ///< scratch for the I1 ownership census
};

/// The strongest checker available for a system, picked by overload: the
/// full invariant checker for the jp step machine, NullChecker for systems
/// whose internals no checker models yet. Drivers and tests share this so
/// adding a checker upgrades every call site at once. Call it on the
/// workload's own system (wl.system()) — never on a moved-from shell.
inline JpInvariantChecker make_checker(const SimJpSystem& sys) {
  return JpInvariantChecker(sys);
}
template <class System>
NullChecker make_checker(const System&) {
  return NullChecker{};
}

}  // namespace mwllsc::sim
