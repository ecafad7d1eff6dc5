// The paper's wait-free N-process W-word LL/SC variable, built from a
// single-word LL/SC building block (core/llsc.hpp) — full protocol: LL
// completes in at most 3W+6 memory accesses regardless of N, inside
// Theorem 1's 4W+12 bound, SC in O(W), VL in O(1), with O(NW) shared space.
//
// Layout. The W-word value always lives in one of 2N+R+1 buffers, where
// R = max(2, P) and P is N rounded up to a power of two. Process p owns a
// *spare* it writes its next SC value into and an *exchange* buffer it
// offers through its announce slot (and reuses as help-copy scratch). R
// buffers rest in the global *retirement ring*; the remaining buffer is
// current. The 1-word LL/SC variable X holds the descriptor <pid, buf>;
// its sequence tag is the abstract version: tag T's value is whatever the
// T-th successful SC installed.
//
// LL, first attempt (announce-free). LL(p) links X (tag T, buffer b),
// copies b, then re-reads X's tag: the snapshot is accepted if the tag
// advanced by AT MOST P. This is safe by ring aging alone: retired buffers
// pass through the ring and are only reused once at least R >= P further
// SCs have succeeded, so a buffer current at tag T is not rewritten until
// the global tag exceeds T+P, and any rewrite concurrent with the copy
// forces the re-check to observe drift > P and reject. A snapshot accepted
// with drift in [1, P] is still exactly version T's value and linearizes
// at the link instant; only drift 0 leaves the SC link intact
// (link_valid). The announce word is not written, so an LL nobody
// disturbs pays no fence and no CAS: link (1) + copy (W) + re-check (1) +
// a read of its own announce word (1, below) = W+3 accesses.
//
// LL, announced round (drift > P). The first attempt is abandoned and the
// paper's protocol runs: announce, link, copy, aged validation, then
// either withdraw the announce (drift <= P) or — past P again — take the
// donation a winner must already have posted (next paragraph). That round
// costs at most 2W+4 accesses, so the whole LL takes at most
// (W+2) + (2W+4) = 3W+6 <= 4W+12 and stays wait-free. Deviation from the
// paper: it announces on every LL; here only an LL that has already seen
// more than P successful SCs during one copy announces (DESIGN.md §2).
//
// Help path, pre-SC. If the announced round's validation fails (drift >=
// P+1), at least P successful SCs linked X *after* p's announce. The winner
// installing tag U probes announce slot U mod P before its SC, so those P
// consecutive winners sweep every slot including p's; a prober that finds
// p WAITING copies the current buffer into its own exchange buffer,
// re-validates its link (strict: the copy is untorn and the value is
// current at an instant inside p's LL — the prober wins its SC, so its
// link held throughout), and CASes A[p] from the exact WAITING word to
// <HELPED, copy, seq>, taking p's offered exchange buffer in return.
// Because the mark lands before the helper's SC installs, it is complete
// before p's validation can fail — so a failed validation finds HELPED
// already posted, and LL finishes by copying the donated buffer: announce
// (1) + link (1) + copy (W) + validate (1) + check A[p] (1) + donated copy
// (W) = 2W+4 accesses for the round, with no retry loop at all. (A
// defensive retry remains for robustness; tests assert it never fires.)
//
// Reclaimed pids. reclaim_pid (membership layer) judges a process dead,
// finishes a ring swap it left pending and settles its announce slot,
// always bumping the slot's seq. A process resurrected under test control
// mid-LL must come back with its link broken: the announced round learns it
// from a failed withdraw CAS, the first attempt from one read of its own
// announce word (seq moved).
//
// Retirement ring. A successful SC retires the previously-current buffer
// into ring cell (T+1) mod R — <buf, tag T+1> — taking the cell's old
// buffer (aged by >= R-1 intervening SCs) as its new spare. From the X
// commit until that swap the retiree is the writer's provisional spare, so
// every buffer keeps exactly one owner at every step (I1). Writers that
// stall so long they get lapped (the cell's tag moved ahead of theirs)
// keep their own retiree, which the lapping itself aged. All tags in a
// cell are congruent mod R, the CAS retries at most N times (each failure
// is a distinct slower winner resolving), and exactly one ring resolution
// — the "bank write" of invariant I2 — happens per successful SC.
//
// Linearization. An LL that accepts its own copy (first attempt or
// announced round) linearizes at its X link; a helped LL at
// the donor's help-validation instant (inside p's LL window). A helped or
// drifted LL returns with its link broken: VL reports false and SC fails
// in O(1), which is semantically exact — a successful SC intervened.
//
// Memory ordering. Buffer words are relaxed atomics; both the reader copy
// and the helper copy are validated seqlock-style (acquire fence before
// the tag re-check / link re-validation); donated contents are published
// by the helper's seq_cst mark CAS and need no reader-side validation —
// ownership transfer makes the buffer private to the reader. ABA on the
// announce word is bounded by the 44-bit seq; ring tags carry 46 bits.
//
// Steps. The Env parameter (core/env.hpp) is called right before every
// shared access, named by protocol point; NoEnv compiles it away. The
// simulator counts one step per call, which is what ll_impl_bound() and
// ll_step_bound() bound.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/env.hpp"
#include "core/llsc.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace mwllsc::core {

template <class LLSC, class Env = NoEnv>
class MwLLSC {
 public:
  /// Theorem 1's LL bound: 4W+12 shared accesses, independent of N.
  static constexpr std::uint32_t ll_step_bound(std::uint32_t w) {
    return 4 * w + 12;
  }
  /// This implementation's worst LL: a first attempt that fell back
  /// (link + W-word copy + re-check = W+2) plus one announced round that
  /// needed rescue (announce + link + copy + validate + announce check +
  /// donated copy = 2W+4). An accepted first attempt is W+3.
  static constexpr std::uint32_t ll_impl_bound(std::uint32_t w) {
    return 3 * w + 6;
  }

  /// Throws std::invalid_argument, in every build and before anything is
  /// allocated, unless 1 <= nprocs <= 2^14 and words >= 1.
  MwLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(checked_nprocs(nprocs, words)),
        w_(words),
        p2_(next_pow2(nprocs)),
        ring_size_(p2_ < 2 ? 2 : p2_),
        nbufs_(2 * nprocs + ring_size_ + 1),
        stride_((words + 7) & ~7u),
        x_(nprocs, pack_x(0, 2 * nprocs + ring_size_)),
        raw_buf_(new std::atomic<std::uint64_t>[
            static_cast<std::size_t>(2 * nprocs + ring_size_ + 1) *
                ((words + 7) & ~7u) + 7]),
        ring_(new RingCell[ring_size_]),
        announce_(new AnnounceSlot[nprocs]),
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    // Align buffer row 0 to a cache line so the stride padding isolates
    // rows from each other (the false-sharing fix E2/E3 measure).
    auto addr = reinterpret_cast<std::uintptr_t>(raw_buf_.get());
    buf0_ = raw_buf_.get() + ((64 - (addr & 63)) & 63) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < static_cast<std::size_t>(nbufs_) * stride_;
         ++i) {
      buf0_[i].store(0, std::memory_order_relaxed);
    }
    // Buffer 2N+R is current (all-zero initial value); process p owns
    // spare p and exchange buffer N+p; ring cell j seeds buffer 2N+j with
    // tag j-R (mod 2^46), already "aged" for the first real lap.
    for (std::uint32_t p = 0; p < n_; ++p) {
      priv_[p].spare = p;
      priv_[p].xbuf = n_ + p;
      announce_[p].a.store(pack_a(kIdle, n_ + p, 0),
                           std::memory_order_relaxed);
    }
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      const std::uint64_t seed_tag =
          (std::uint64_t{j} - ring_size_) & kRingTagMask;
      ring_[j].w.store(pack_ring(2 * n_ + j, seed_tag),
                       std::memory_order_relaxed);
    }
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    trace_.emit(obs::EventKind::kLlStart, p, me.seq);
    // Announce-free first attempt: link, copy, re-check. Ring aging alone
    // makes an accepted snapshot safe; the announce below only buys the
    // helping guarantee, so an attempt that needs no help skips it.
    {
      std::uint64_t t0 = 0;
      std::uint32_t b = 0;
      const std::uint64_t drift = link_and_copy(p, false, out, t0, b);
      if (drift <= p2_) {
        // A reclaim_pid that judged this process dead always bumps the
        // slot's seq; a moved seq means the slot is no longer ours, so
        // the link must not survive. Only the owner and a reclaimer write
        // this word while no announce is posted.
        Env::at("ll:own_slot", p);
        // mwllsc-ordering: relaxed(own slot, no announce posted: nothing
        // to synchronize with except a test-driven reclaim on this thread)
        const bool reclaimed =
            seq_of_a(announce_[p].a.load(std::memory_order_relaxed)) !=
            me.seq;
        me.ll_buf = b;
        me.link_valid = (drift == 0) && !reclaimed;
        c.bump(c.ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, t0, b);
        return;
      }
    }
    // Drift > P: fall back to the announced protocol, which bounds the
    // rest of this LL at 2W+4 accesses through the helping guarantee.
    me.seq = (me.seq + 1) & kSeqMask;  // the announce word holds 44 bits
    // Announce, offering our exchange buffer to a prospective helper.
    Env::at("ll:announce", p);
    // mwllsc-ordering: seq_cst(this store and the winners' pre-SC probes
    // of A[(T+1) mod P] share one total order, so a winner that misses
    // the announce must have linked before it — bounding drift at P tags)
    announce_[p].a.store(pack_a(kWaiting, me.xbuf, me.seq),
                         std::memory_order_seq_cst);
    me.announced = true;
    trace_.emit(obs::EventKind::kLlFallback, p, me.seq);
    for (;;) {
      std::uint64_t t0 = 0;
      std::uint32_t b = 0;
      const std::uint64_t drift = link_and_copy(p, true, out, t0, b);
      if (drift <= p2_) {
        // Aged validation passed: buffers rest >= R >= P tags in the ring
        // before reuse, so the copy is an untorn snapshot of version t0,
        // linearized at the link. Withdraw the announce.
        // The withdraw races a winner's donation CAS on this slot; the
        // total order picks exactly one side of the ownership exchange.
        std::uint64_t expect = pack_a(kWaiting, me.xbuf, me.seq);
        bool reclaimed = false;
        Env::at("ll:withdraw", p);
        // mwllsc-ordering: seq_cst(withdraw vs donation CAS, one winner)
        if (!announce_[p].a.compare_exchange_strong(
                expect, pack_a(kIdle, me.xbuf, me.seq),
                std::memory_order_seq_cst)) {
          if (state_of_a(expect) == kHelped && seq_of_a(expect) == me.seq) {
            // A donation raced in. Our own copy stands; adopt the
            // donated buffer as our new exchange buffer — the donor took
            // the one we offered.
            me.xbuf = buf_of_a(expect);
            c.bump(c.ll_helped);
            trace_.emit(obs::EventKind::kLlHelped, p, me.seq,
                        buf_of_a(expect));
          } else {
            // The word no longer carries our seq: a crash-stop reclaim
            // (reclaim_pid) judged this process dead and withdrew the
            // announce out from under it. The copy is still an untorn
            // snapshot, but the slot — and the exchange buffer
            // folded into its word — belong to the reclaimer now, so the
            // only safe exit is to break the link and finish this op.
            // Reached only when a reclaimed process is resurrected under
            // test control; a genuinely dead process never gets here.
            reclaimed = true;
          }
        }
        me.announced = false;
        me.ll_buf = b;
        // Any drift already broke the link; so does a raced reclaim.
        me.link_valid = (drift == 0) && !reclaimed;
        c.bump(c.ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, t0, b);
        return;
      }
      // Drift >= P+1: the P winners that linked after our announce swept
      // every announce slot pre-SC, so a donation is already posted.
      Env::at("ll:check_slot", p);
      // mwllsc-ordering: seq_cst(this load sits in the same total order as
      // the announce store and the winners' probes — the sweep argument
      // only holds inside that order)
      const std::uint64_t a = announce_[p].a.load(std::memory_order_seq_cst);
      if (state_of_a(a) == kHelped && seq_of_a(a) == me.seq) {
        // Return the donated snapshot. We own the buffer now; no
        // validation needed.
        const std::uint32_t d = buf_of_a(a);
        copy_out(d, out, p, "ll:copy_donated");
        me.xbuf = d;
        me.announced = false;
        me.link_valid = false;  // a successful SC already intervened
        c.bump(c.ll_helped);
        c.bump(c.ll_used_helped_value);
        c.bump(c.ll_ops);
        trace_.emit(obs::EventKind::kLlRescue, p, me.seq, d);
        return;
      }
      // Unreachable if the help guarantee holds (tests assert this
      // counter stays zero); kept as a defensive retry.
      c.bump(c.ll_retries);
      trace_.emit(obs::EventKind::kLlRetry, p, me.seq);
    }
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p, me.seq,
                me.link_valid ? 1 : 0);
    if (!me.link_valid) {               // helped/drifted LL or no LL: O(1)
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    me.link_valid = false;             // the link is consumed either way
    // Write the new value into our spare buffer.
    copy_in(me.spare, v, p);
    std::atomic_thread_fence(std::memory_order_release);
    const std::uint64_t t = x_.linked_tag(p);
    // Probe the help schedule *before* the SC: the winner of tag T+1
    // reads A[(T+1) mod P] (P a power of two — mask, no division), so
    // consecutive winners sweep all slots after any announce.
    const std::uint32_t target =
        static_cast<std::uint32_t>(t + 1) & (p2_ - 1);
    if (target != p && target < n_) {
      // The probe pairs with the announce store in the single total
      // order: a probe after the announce cannot miss kWaiting.
      Env::at("sc:probe", p);
      // mwllsc-ordering: seq_cst(probe half of the announce handshake)
      const std::uint64_t seen =
          announce_[target].a.load(std::memory_order_seq_cst);
      if (state_of_a(seen) == kWaiting) {
        // Pre-SC help: copy the (still linked) current buffer into our
        // exchange buffer, re-validate the link seqlock-style — if it
        // holds, the copy is an untorn snapshot of version T taken after
        // the target announced — and donate it by marking A[target].
        copy_buf(me.ll_buf, me.xbuf, p);
        std::atomic_thread_fence(std::memory_order_acquire);
        Env::at("sc:help_validate", p);
        if (x_.vl(p)) {
          // The donation must precede our SC of tag T+1 in the total
          // order, and it races the owner's withdraw CAS on the same
          // slot; exactly one wins.
          Env::at("sc:help_mark", p);
          // mwllsc-ordering: seq_cst(donation before SC; races withdraw)
          std::uint64_t expect = seen;
          if (announce_[target].a.compare_exchange_strong(
                  expect, pack_a(kHelped, me.xbuf, seq_of_a(seen)),
                  std::memory_order_seq_cst)) {
            me.xbuf = buf_of_a(seen);  // ownership exchange, O(1)
            c.bump(c.helps_given);
            trace_.emit(obs::EventKind::kHelpInstall, p, seq_of_a(seen),
                        target);
          }
        }
      }
    }
    Env::at("sc:x", p);
    if (!x_.sc(p, pack_x(p, me.spare))) {
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    c.bump(c.sc_success);
    trace_.emit(obs::EventKind::kScCommit, p, (t + 1) & kRingTagMask);
    // The previously-current buffer is ours from the commit on: it is the
    // provisional spare until the ring swap trades it for an aged one.
    me.spare = me.ll_buf;
    me.retiring = (t + 1) & kRingTagMask;
    retire(p);
    return true;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    Env::at("vl", p);
    return x_.vl(p);  // O(1), independent of W
  }

  /// Crash-stop slot reclamation (membership layer, DESIGN.md §10).
  /// Settles the obligations a dead process left behind so its pid can be
  /// reissued. A ring swap it left pending (it died between its X commit
  /// and the swap) is finished on its behalf, so the retiree ages in the
  /// ring before reuse and the pid's next holder starts from an aged spare
  /// (I2 stays exact: one bank write per successful SC). A posted WAITING
  /// announce is withdrawn (so future winners stop donating into a slot
  /// nobody will read) and an unconsumed donation — HELPED while the dead
  /// process was still in its announced round — is adopted as its exchange
  /// buffer: the donor took the offered one, so the ownership census stays
  /// exact. A HELPED word from an earlier, consumed round is stale (its
  /// buffer may since have been donated away) and adopts nothing. The
  /// unconditional seq bump fences the slot against stale donation CASes
  /// keyed to the dead seq.
  /// Precondition: p takes no further steps (crash-stop); the pid is
  /// reissued only after rebind_pid. Returns true if an obligation (a
  /// pending ring swap, a posted announce or an unconsumed donation) was
  /// actually settled.
  bool reclaim_pid(std::uint32_t p) {
    assert(p < n_);
    Priv& me = priv_[p];
    const bool retiring = me.retiring != kNoRetire;
    const bool announced = me.announced;
    if (retiring) retire(p);
    // mwllsc-ordering: seq_cst(the withdraw-by-proxy races a winner's
    // donation CAS on this slot exactly like the owner's withdraw does;
    // the single total order picks one side of the ownership exchange)
    std::uint64_t a = announce_[p].a.load(std::memory_order_seq_cst);
    for (;;) {
      const std::uint32_t x =
          announced && state_of_a(a) == kHelped ? buf_of_a(a) : me.xbuf;
      const std::uint64_t next =
          pack_a(kIdle, x, (seq_of_a(a) + 1) & kSeqMask);
      // mwllsc-ordering: seq_cst(same handshake as the load above: one
      // winner between this withdraw-by-proxy and a racing donation)
      if (announce_[p].a.compare_exchange_weak(a, next,
                                               std::memory_order_seq_cst)) {
        me.xbuf = x;
        break;
      }
      // Lost to a donation landing on the dead WAITING word; the reloaded
      // word is HELPED and the next lap adopts it (at most one extra lap:
      // donations require WAITING, which the word never is again).
    }
    me.announced = false;
    trace_.emit(obs::EventKind::kProcCrashReclaim, p, seq_of_a(a));
    return retiring || announced;
  }

  /// Reissues pid p to a new owner after reclaim_pid or a graceful
  /// retirement. The spare and exchange buffer stay the previous holder's
  /// (reclaim_pid already settled them); the seq comes from the announce
  /// word, which reclaim_pid bumped, and the link starts broken. Must not
  /// run concurrently with any operation by a previous owner of p; the
  /// membership layer guarantees this by only reissuing slots whose holder
  /// retired or was reclaimed.
  void rebind_pid(std::uint32_t p) {
    assert(p < n_);
    // mwllsc-ordering: seq_cst(reads the word settled by the retire-path
    // withdraw or reclaim_pid CAS in the same total order)
    const std::uint64_t a = announce_[p].a.load(std::memory_order_seq_cst);
    Priv& me = priv_[p];
    me.seq = seq_of_a(a);
    me.link_valid = false;
  }

  std::uint32_t words() const { return w_; }

  OpStatsSnapshot stats() const { return stats_.snapshot(); }

  /// The abstract version: X's tag, the number of successful SCs so far.
  std::uint64_t version() const { return x_.current_tag(); }

  /// Buffer-ownership view for the simulator's invariant checker
  /// (sim/invariants.hpp: I1 every buffer has exactly one owner, I2 one
  /// bank write per successful SC). It reads every process's private
  /// state unsynchronized, so call it only while no operation is running,
  /// as the single-threaded simulator does between steps.
  struct Census {
    std::uint64_t version = 0;
    std::uint32_t buffers = 0;  ///< 2N+R+1
    std::uint32_t current = 0;  ///< the buffer X names
    std::vector<std::uint32_t> spare;     ///< per pid
    std::vector<std::uint32_t> exchange;  ///< per pid: offered or donated
    std::vector<std::uint32_t> ring;      ///< per ring cell
    std::vector<std::uint64_t> sc_success, bank_writes;  ///< per pid
  };

  /// Fills `out` (its vectors are reused, so a per-step census does not
  /// allocate after the first).
  void census(Census& out) const {
    out.version = x_.current_tag();
    out.buffers = nbufs_;
    out.current = buf_of_x(x_.peek());
    out.spare.resize(n_);
    out.exchange.resize(n_);
    out.sc_success.resize(n_);
    out.bank_writes.resize(n_);
    for (std::uint32_t p = 0; p < n_; ++p) {
      out.spare[p] = priv_[p].spare;
      // A donation not yet consumed — HELPED while the process is still in
      // its announced round — is the process's exchange side (the donor
      // took the offered buffer); otherwise the private one is.
      // mwllsc-ordering: relaxed(debug view, no operation in flight)
      const std::uint64_t a = announce_[p].a.load(std::memory_order_relaxed);
      out.exchange[p] = priv_[p].announced && state_of_a(a) == kHelped
                            ? buf_of_a(a)
                            : priv_[p].xbuf;
      out.sc_success[p] =
          stats_.at(p).sc_success.load(std::memory_order_relaxed);
      out.bank_writes[p] =
          stats_.at(p).bank_writes.load(std::memory_order_relaxed);
    }
    out.ring.resize(ring_size_);
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      // mwllsc-ordering: relaxed(debug view, no operation in flight)
      out.ring[j] = ring_buf_of(ring_[j].w.load(std::memory_order_relaxed));
    }
  }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers ((2N+R+1) x W words, rows line-padded)",
          static_cast<std::size_t>(nbufs_) * stride_ * sizeof(std::uint64_t) +
              64);  // + alignment slack
    f.add("retirement ring (R cells)", ring_size_ * sizeof(RingCell));
    f.add("announce/help slots (N)", n_ * sizeof(AnnounceSlot));
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

  /// Binds this variable to a trace sink (obs/trace.hpp); self-describes
  /// with the "jp" substrate prefix the offline checker keys its 4W+12 /
  /// zero-retry rules on. No-op when MWLLSC_TRACE is off.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, w_, "jp");
  }

 private:
  // X packs <pid, buf> into the engine's value bits: buf in the low 18,
  // pid in the next 14 — fits the 32-bit value of the packed64 engine.
  static constexpr std::uint32_t kBufBits = 18;
  static constexpr std::uint32_t kPidBits = 14;
  static constexpr std::uint32_t kMaxProcs = 1u << kPidBits;
  static_assert(LLSC::kValueBits >= kBufBits + kPidBits,
                "engine value too narrow for the <pid, buf> descriptor");
  // 2N+R+1 buffers with N <= 2^14 and R = max(2, P) <= 2^14: every buffer
  // index fits the descriptor's, the announce word's and a ring cell's
  // buf field.
  static_assert(3 * kMaxProcs + 1 <= (1u << kBufBits),
                "buffer index wider than kBufBits");

  static std::uint64_t pack_x(std::uint32_t pid, std::uint32_t buf) {
    return (static_cast<std::uint64_t>(pid) << kBufBits) | buf;
  }
  static std::uint32_t buf_of_x(std::uint64_t x) {
    return static_cast<std::uint32_t>(x & ((1u << kBufBits) - 1));
  }

  // Announce slot word: state(2) | buf(18) | seq(44).
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kWaiting = 1;
  static constexpr std::uint64_t kHelped = 2;

  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 44) - 1;

  static std::uint64_t pack_a(std::uint64_t state, std::uint32_t buf,
                              std::uint64_t seq) {
    return (seq << 20) | (static_cast<std::uint64_t>(buf) << 2) | state;
  }
  static std::uint64_t state_of_a(std::uint64_t a) { return a & 3; }
  static std::uint32_t buf_of_a(std::uint64_t a) {
    return static_cast<std::uint32_t>((a >> 2) & ((1u << kBufBits) - 1));
  }
  static std::uint64_t seq_of_a(std::uint64_t a) { return a >> 20; }

  // Ring cell word: buf(18) | tag(46). The tag's 2^46 envelope bounds ABA
  // the same way the announce seq does.
  static constexpr std::uint32_t kRingTagBits = 46;
  static constexpr std::uint64_t kRingTagMask =
      (std::uint64_t{1} << kRingTagBits) - 1;

  static std::uint64_t pack_ring(std::uint32_t buf, std::uint64_t tag) {
    return (tag << kBufBits) | buf;
  }
  static std::uint32_t ring_buf_of(std::uint64_t r) {
    return static_cast<std::uint32_t>(r & ((1u << kBufBits) - 1));
  }
  static std::uint64_t ring_tag_of(std::uint64_t r) { return r >> kBufBits; }
  /// Priv::retiring when no ring swap is pending (ring tags are 46-bit).
  static constexpr std::uint64_t kNoRetire = ~std::uint64_t{0};

  // n_ is the first member initialized, so this runs before any
  // allocation. Beyond 2^14 the pid no longer fits X's descriptor.
  static std::uint32_t checked_nprocs(std::uint32_t nprocs,
                                      std::uint32_t words) {
    if (nprocs == 0 || nprocs > kMaxProcs) {
      throw std::invalid_argument("MwLLSC: nprocs must be in [1, 2^14]");
    }
    if (words == 0) {
      throw std::invalid_argument("MwLLSC: words must be >= 1");
    }
    return nprocs;
  }

  static std::uint32_t next_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  struct alignas(64) AnnounceSlot {
    std::atomic<std::uint64_t> a;
  };

  struct alignas(64) RingCell {
    std::atomic<std::uint64_t> w;
  };

  struct alignas(64) Priv {  // touched only by the owning process
    std::uint32_t spare = 0;
    std::uint32_t xbuf = 0;
    std::uint32_t ll_buf = 0;
    std::uint64_t seq = 0;
    std::uint64_t retiring = kNoRetire;  ///< tag whose ring swap is pending
    bool link_valid = false;
    bool announced = false;  ///< in the announced round: A[p] is posted
                             ///< or holds a donation not yet consumed
  };

  /// One LL attempt: link X (tag t0, buffer b), copy b into out, re-read
  /// X's tag — W+2 accesses. Returns the drift; the caller accepts the
  /// copy iff it is at most P (aged validation). `announced` only names
  /// the steps: the first attempt's or the announced round's.
  std::uint64_t link_and_copy(std::uint32_t p, bool announced,
                              std::uint64_t* out, std::uint64_t& t0,
                              std::uint32_t& b) {
    Env::at(announced ? "ll:relink" : "ll:link", p);
    b = buf_of_x(x_.ll(p));
    t0 = x_.linked_tag(p);
    copy_out(b, out, p, announced ? "ll:recopy" : "ll:copy");
    std::atomic_thread_fence(std::memory_order_acquire);
    Env::at(announced ? "ll:revalidate" : "ll:validate", p);
    return x_.current_tag() - t0;
  }

  /// The bank write of the SC that installed tag priv_[p].retiring: swap
  /// the retiree (the provisional spare) into ring cell tag mod R and take
  /// the cell's aged buffer as the spare (I2: exactly one resolution per
  /// successful SC). Runs at the end of sc(), or from reclaim_pid for a
  /// process that died before finishing it.
  void retire(std::uint32_t p) {
    Priv& me = priv_[p];
    const std::uint64_t mytag = me.retiring;
    const std::uint32_t retired = me.spare;
    RingCell& cell =
        ring_[static_cast<std::uint32_t>(mytag) & (ring_size_ - 1)];
    for (;;) {
      Env::at("sc:ring_load", p);
      const std::uint64_t rw = cell.w.load(std::memory_order_acquire);
      const std::uint64_t d = (mytag - ring_tag_of(rw)) & kRingTagMask;
      // All tags in a cell are congruent mod R, so d is a multiple of R:
      // d >= R with the high bits clear means the cell is genuinely
      // behind us — swap our retiree in and take the aged buffer out.
      if (d >= ring_size_ && !(d >> (kRingTagBits - 1))) {
        // The ring swap is the bank-write resolution: exactly one winner
        // per tag retires into the cell, which is what keeps invariant
        // I2 and the aging bound R.
        Env::at("sc:ring_cas", p);
        // mwllsc-ordering: seq_cst(one retiree per tag resolves the cell)
        std::uint64_t expect = rw;
        if (cell.w.compare_exchange_strong(expect, pack_ring(retired, mytag),
                                           std::memory_order_seq_cst)) {
          me.spare = ring_buf_of(rw);
          break;
        }
        // Lost to another winner resolving this cell; re-read (bounded:
        // each failure is a distinct winner with a smaller tag).
      } else {
        // Lapped: the cell moved past our tag while we stalled, so our
        // own retiree has already aged >= R tags — it stays the spare.
        break;
      }
    }
    me.retiring = kNoRetire;
    auto& c = stats_.at(p);
    c.bump(c.bank_writes);
    trace_.emit(obs::EventKind::kBankWrite, p, mytag, retired);
  }

  std::atomic<std::uint64_t>* buf_row(std::uint32_t b) const {
    return buf0_ + static_cast<std::size_t>(b) * stride_;
  }

  void copy_out(std::uint32_t b, std::uint64_t* out, std::uint32_t p,
                const char* point) const {
    const std::atomic<std::uint64_t>* row = buf_row(b);
    // Read-prefetch lines 1..ceil(W/8)-1 so a multi-line copy waits on its
    // line misses together instead of one after another (line 0 is
    // demanded by the loop at once). Rows are 64-byte aligned with a
    // stride of whole lines, so line k starts at word 8k. A prefetch is a
    // hint, not a shared access: it is outside the step count and the
    // memory-ordering discipline, and the copy is validated exactly as
    // before (DESIGN.md §2).
    for (std::uint32_t i = 8; i < w_; i += 8) {
      __builtin_prefetch(row + i, 0, 3);
    }
    for (std::uint32_t i = 0; i < w_; ++i) {
      Env::at(point, p);
      out[i] = row[i].load(std::memory_order_relaxed);
    }
  }

  void copy_in(std::uint32_t b, const std::uint64_t* v, std::uint32_t p) {
    std::atomic<std::uint64_t>* row = buf_row(b);
    for (std::uint32_t i = 0; i < w_; ++i) {
      Env::at("sc:copy", p);
      row[i].store(v[i], std::memory_order_relaxed);
    }
  }

  /// One step per word: the read is of the linked (validated) buffer, the
  /// write goes to the copier's own exchange buffer, which nobody reads.
  void copy_buf(std::uint32_t from, std::uint32_t to, std::uint32_t p) {
    const std::atomic<std::uint64_t>* src = buf_row(from);
    std::atomic<std::uint64_t>* dst = buf_row(to);
    for (std::uint32_t i = 0; i < w_; ++i) {
      Env::at("sc:help_copy", p);
      dst[i].store(src[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
  }

  const std::uint32_t n_;
  const std::uint32_t w_;
  const std::uint32_t p2_;        ///< N rounded up to a power of two (P)
  const std::uint32_t ring_size_; ///< R = max(2, P), a power of two
  const std::uint32_t nbufs_;
  const std::uint32_t stride_;    ///< buffer row pitch, words (line-padded)
  LLSC x_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> raw_buf_;
  std::atomic<std::uint64_t>* buf0_ = nullptr;  ///< 64B-aligned row 0
  std::unique_ptr<RingCell[]> ring_;
  std::unique_ptr<AnnounceSlot[]> announce_;
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::core
