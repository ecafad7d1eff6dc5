// Wait-free universal construction (Herlihy-style, value version) over a
// multiword LL/SC variable, in the fast-path/help idiom of telamon's
// normalized lock-free -> wait-free transformation and Brown-Ellen-Ruppert's
// pragmatic primitives: every operation is announced before the first LL,
// and every SC attempt applies *all* announced pending operations before
// trying to install — so a process whose SC keeps losing is carried along
// by the winners.
//
// A round is LL; help-all; VL; SC. It fails at the VL or at the SC: the
// O(1) VL (Brown-Ellen-Ruppert's VLX-before-the-expensive-step) ends a
// round whose link already broke without the O(W) SC, which would write
// all W words into a spare before its X CAS could lose. A round after a
// lost one first asks "was I helped?" with the same move: a validated
// two-word try_read of {applied_seq[p], result[p]} (core/any.hpp). If it
// shows our seq, the apply returns that result without the O(W) LL; a
// validated read is one committed version's words, so it linearizes the
// op exactly where the LL exit would. Otherwise the round runs as above.
//
// State layout inside the variable (W = ceil(sizeof(T)/8) + 2N words):
//   [0, payload)                the sequential object T, bytewise;
//   payload + 2q               applied_seq[q] — seq of q's last applied op;
//   payload + 2q + 1           result[q]      — its return value.
// Because LL returns an atomic snapshot, a process that finds its own seq
// applied can read its result from the same snapshot consistently.
//
// Attempt bound (the wait-free argument): suppose p's rounds 1 and 2 both
// fail. A false VL and a failed SC each witness an SC committed since the
// round's LL: round 1 fails because some SC by w1 committed inside (LL1,
// end of round 1); round 2 because some SC by w2 committed inside (LL2,
// end of round 2). w2's LL must follow w1's SC (else w1's SC would have
// killed w2's link), which follows p's LL1, which follows p's announce —
// so w2 saw the announce and its committed SC applied p's op. Round 3's
// try_read, if it validates, reads a version at or after w2's commit and
// sees the op; if not, round 3's LL observes applied_seq[p] == seq. Either
// way it returns without another SC:
// **at most kMaxAttempts = 3 LL/SC rounds per apply**, over any
// linearizable substrate. (Genuine end-to-end wait-freedom additionally
// needs the substrate's own LL and SC to be wait-free — jp; under retry
// the construction is only as good as the substrate's LL.)
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "apps/universal.hpp"
#include "core/any.hpp"
#include "core/env.hpp"
#include "obs/trace.hpp"

namespace mwllsc::apps {

/// Announced-operation descriptor: an opcode plus one argument word. The
/// interpretation belongs entirely to the Op functor; constructions with a
/// single operation (e.g. a counter increment) ignore it.
struct OpDesc {
  std::uint64_t kind = 0;
  std::uint64_t arg = 0;
};

/// Wait-free lifting of sequential object T with operation functor Op
/// (`std::uint64_t Op::operator()(T&, const OpDesc&) const`, a pure
/// function of its arguments — every helper must compute the same result).
/// Env is the step seam of core/env.hpp: Env::at is called at
/// "apps:announced" (op published, before the first LL), "apps:linked"
/// (snapshot taken, before help-all, VL and SC) and "apps:sc_failed" (the
/// round was lost at its VL or its SC), so a test can park a process at an
/// exact protocol point and drive the help-all path deterministically.
/// NoEnv compiles the calls away.
template <class T, class Op, class Env = core::NoEnv>
class WfUniversal {
  static_assert(std::is_trivially_copyable_v<T>,
                "state is stored bytewise in the LL/SC variable");

 public:
  /// Per-apply bound on { LL; help-all; VL; SC } rounds (see file comment).
  static constexpr std::uint64_t kMaxAttempts = 3;

  WfUniversal(std::uint32_t nprocs, const T& initial,
              Substrate substrate = jp_substrate())
      : n_(nprocs),
        payload_words_(static_cast<std::uint32_t>((sizeof(T) + 7) / 8)),
        words_(payload_words_ + 2 * nprocs),
        obj_(substrate(nprocs, words_)),
        slots_(new Slot[nprocs]),
        priv_(new Priv[nprocs]) {
    for (std::uint32_t p = 0; p < n_; ++p)
      priv_[p].scratch.assign(words_, 0);
    // Install the initial state single-threaded: T's bytes, every
    // applied_seq and result zero. Only a substrate that breaks the LL/SC
    // contract can fail this SC; that is refused in every build.
    std::uint64_t* buf = priv_[0].scratch.data();
    obj_->ll(0, buf);
    std::memset(buf, 0, static_cast<std::size_t>(words_) * 8);
    std::memcpy(buf, &initial, sizeof(T));
    if (!obj_->sc(0, buf)) {
      throw std::logic_error("WfUniversal: the initial SC failed");
    }
  }

  /// Applies Op with descriptor `d` atomically and returns its result.
  /// Completes in at most kMaxAttempts LL/SC rounds.
  std::uint64_t apply(std::uint32_t p, const OpDesc& d) {
    assert(p < n_);
    Slot& a = slots_[p];
    Priv& me = priv_[p];
    const std::uint64_t seq = ++me.seq;
    // Publish argument words first, then the seq that makes them live.
    // seq_cst on the seq store/loads so a helper whose LL followed our
    // announce in real time is guaranteed to observe it.
    a.kind.store(d.kind, std::memory_order_relaxed);
    a.arg.store(d.arg, std::memory_order_relaxed);
    // mwllsc-ordering: seq_cst(op announce: a helper whose LL follows
    // this store in real time is guaranteed to observe the seq, which is
    // what makes help_all exhaustive and apply() wait-free)
    a.seq.store(seq, std::memory_order_seq_cst);
    Env::at("apps:announced", p);
    trace_.emit(obs::EventKind::kAnnounce, p, seq, static_cast<std::uint32_t>(d.kind));
    std::uint64_t* buf = me.scratch.data();
    const auto own_ix = static_cast<std::uint32_t>(applied_ix(p));
    std::uint64_t attempts = 0;
    std::uint64_t result = 0;
    for (;;) {
      ++attempts;
      // A round after a lost one first asks "was I helped?" from the two
      // words {applied_seq[p], result[p]}: a validated read that shows our
      // seq ends the apply without the O(W) LL.
      std::uint64_t own[2];
      if (attempts > 1 && obj_->try_read(p, own_ix, 2, own) &&
          own[0] == seq) {
        result = own[1];
        break;
      }
      obj_->ll(p, buf);
      if (buf[applied_ix(p)] == seq) {  // a winner applied us
        result = buf[result_ix(p)];
        break;
      }
      Env::at("apps:linked", p);
      const std::uint32_t applied = help_all(buf);
      trace_.emit(obs::EventKind::kHelpAll, p, seq, applied);
      // The O(1) VL before the O(W) SC: a broken link already witnesses a
      // commit inside this round, so the round is lost without the SC.
      if (obj_->vl(p) && obj_->sc(p, buf)) {  // won; help_all applied us
        result = buf[result_ix(p)];
        break;
      }
      Env::at("apps:sc_failed", p);  // lost at the VL or the SC
      assert(attempts < kMaxAttempts && "help-all attempt bound violated");
    }
    trace_.emit(obs::EventKind::kApplyCommit, p, seq,
                static_cast<std::uint32_t>(attempts));
    me.attempts.store(me.attempts.load(std::memory_order_relaxed) + attempts,
                      std::memory_order_relaxed);
    if (attempts > me.max_attempts.load(std::memory_order_relaxed))
      me.max_attempts.store(attempts, std::memory_order_relaxed);
    return result;
  }

  /// Reads the current state (one LL — an atomic snapshot).
  T read(std::uint32_t p) {
    assert(p < n_);
    obj_->ll(p, priv_[p].scratch.data());
    T state;
    std::memcpy(&state, priv_[p].scratch.data(), sizeof(T));
    return state;
  }

  /// Total LL/SC rounds across all applies (relaxed per-process sum).
  std::uint64_t total_attempts() const {
    std::uint64_t t = 0;
    for (std::uint32_t p = 0; p < n_; ++p)
      t += priv_[p].attempts.load(std::memory_order_relaxed);
    return t;
  }

  /// Worst single apply observed so far; the tests gate it <= kMaxAttempts.
  std::uint64_t max_attempts() const {
    std::uint64_t m = 0;
    for (std::uint32_t p = 0; p < n_; ++p) {
      const std::uint64_t v = priv_[p].max_attempts.load(std::memory_order_relaxed);
      if (v > m) m = v;
    }
    return m;
  }

  core::IMwLLSC& substrate() { return *obj_; }
  std::uint32_t procs() const { return n_; }
  std::uint32_t words() const { return words_; }

  /// Binds both the construction and its substrate to the sink under one
  /// variable id: apps events (announce/help_all/apply_commit) interleave
  /// with the substrate's LL/SC events in each process's ring, which is
  /// exactly the per-op causality the Perfetto view shows.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    obj_->set_trace(sink, var);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> kind{0};
    std::atomic<std::uint64_t> arg{0};
  };

  struct alignas(64) Priv {
    std::vector<std::uint64_t> scratch;
    std::uint64_t seq = 0;
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> max_attempts{0};
  };

  std::size_t applied_ix(std::uint32_t q) const {
    return payload_words_ + 2 * static_cast<std::size_t>(q);
  }
  std::size_t result_ix(std::uint32_t q) const { return applied_ix(q) + 1; }

  /// Applies every announced pending op to the snapshot in `buf`. Only a
  /// committed SC makes any of it real, so a stale view here is harmless:
  /// announce seqs advance only after the op is applied in the installed
  /// chain, hence a slot that changes under us implies a successful SC
  /// after our LL — our own SC is already doomed to fail semantically.
  std::uint32_t help_all(std::uint64_t* buf) {
    T state;
    std::memcpy(&state, buf, sizeof(T));
    std::uint32_t applied = 0;
    for (std::uint32_t q = 0; q < n_; ++q) {
      Slot& s = slots_[q];
      // mwllsc-ordering: seq_cst(helper side of the op announce: ordered
      // after the announcer's seq store, so an op announced before our LL
      // is never skipped)
      const std::uint64_t seq = s.seq.load(std::memory_order_seq_cst);
      if (seq != buf[applied_ix(q)] + 1) continue;  // nothing pending here
      OpDesc d{s.kind.load(std::memory_order_relaxed),
               s.arg.load(std::memory_order_relaxed)};
      // mwllsc-ordering: seq_cst(seqlock-style re-read: an unchanged seq
      // proves kind/arg above were not torn by a re-announce; a changed
      // seq means a later SC committed and ours is doomed anyway)
      if (s.seq.load(std::memory_order_seq_cst) != seq) continue;  // doomed
      buf[result_ix(q)] = op_(state, d);
      buf[applied_ix(q)] = seq;
      ++applied;
    }
    std::memcpy(buf, &state, sizeof(T));
    return applied;
  }

  std::uint32_t n_;
  std::uint32_t payload_words_;
  std::uint32_t words_;
  std::unique_ptr<core::IMwLLSC> obj_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<Priv[]> priv_;
  obs::TraceHandle trace_;
  const Op op_{};
};

}  // namespace mwllsc::apps
